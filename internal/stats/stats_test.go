package stats_test

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"hgmatch/internal/stats"
)

func TestSummarize(t *testing.T) {
	f := stats.Summarize([]float64{1, 2, 3, 4, 5})
	if f.Min != 1 || f.Max != 5 || f.Median != 3 || f.Q1 != 2 || f.Q3 != 4 || f.N != 5 {
		t.Errorf("Summarize = %+v", f)
	}
	if z := stats.Summarize(nil); z.N != 0 {
		t.Errorf("empty summary %+v", z)
	}
	one := stats.Summarize([]float64{7})
	if one.Min != 7 || one.Max != 7 || one.Median != 7 {
		t.Errorf("singleton summary %+v", one)
	}
}

func TestSummarizeOrderingInvariant(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		s := stats.Summarize(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeans(t *testing.T) {
	if m := stats.Mean([]float64{2, 4}); m != 3 {
		t.Errorf("Mean = %f", m)
	}
	if m := stats.Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %f", m)
	}
}

func TestSpeedup(t *testing.T) {
	if s := stats.Speedup(10*time.Second, time.Second); s != 10 {
		t.Errorf("Speedup = %f", s)
	}
	if s := stats.Speedup(time.Second, 0); s != 0 {
		t.Errorf("Speedup(zero target) = %f", s)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KiB",
		1 << 20: "1.0MiB",
	}
	for n, want := range cases {
		if got := stats.FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
	if got := stats.FormatCount(999); got != "999" {
		t.Errorf("FormatCount small = %q", got)
	}
	if got := stats.FormatCount(38_600_000_000); got != "3.86e+10" {
		t.Errorf("FormatCount big = %q", got)
	}
	if got := stats.FormatDuration(500 * time.Nanosecond); got != "500ns" {
		t.Errorf("FormatDuration ns = %q", got)
	}
	if got := stats.FormatDuration(2500 * time.Microsecond); got != "2.5ms" {
		t.Errorf("FormatDuration ms = %q", got)
	}
	if got := stats.FormatDuration(90 * time.Second); got != "90s" {
		t.Errorf("FormatDuration s = %q", got)
	}
}
