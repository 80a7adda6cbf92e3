// Package stats provides the small statistical helpers the experiment
// harness needs: box-plot five-number summaries (the paper's Fig. 6),
// means, speedup factors, and byte/duration formatting for table output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// FiveNum is a box-plot five-number summary.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// Summarize computes the five-number summary of xs (N=0 summary for empty
// input). Quartiles use linear interpolation between order statistics.
func Summarize(xs []float64) FiveNum {
	if len(xs) == 0 {
		return FiveNum{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return FiveNum{
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.50),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func (f FiveNum) String() string {
	return fmt.Sprintf("min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g (n=%d)",
		f.Min, f.Q1, f.Median, f.Q3, f.Max, f.N)
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Speedup returns base/target as a factor, treating non-positive targets
// as missing (0).
func Speedup(base, target time.Duration) float64 {
	if target <= 0 || base <= 0 {
		return 0
	}
	return float64(base) / float64(target)
}

// FormatBytes renders a byte count with binary units, e.g. "1.5MiB".
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// FormatCount renders large counts compactly, e.g. "3.9e10" above a
// million, plain integers below.
func FormatCount(n uint64) string {
	if n < 1_000_000 {
		return fmt.Sprintf("%d", n)
	}
	return fmt.Sprintf("%.3g", float64(n))
}

// FormatDuration renders durations with 3 significant figures in natural
// units (µs/ms/s), matching the paper's time-cost axes.
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.3gµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.3gms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3gs", d.Seconds())
	}
}
