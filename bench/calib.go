package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox is a few cores of a shared host whose speed changes under the
// benchmark: the same instruction sequence takes 1.0 to 1.5 times as much
// processor time from one minute to the next, for longer than a run lasts,
// and every timing of a run moves with it. A speedProbe measures that beside
// the load: every probeEvery it runs calibKernel on a thread of its own and
// records the thread's processor time for it (which a descheduled thread
// does not accrue). Timings are then reported as the time the interval would
// have taken had the kernel run at refKernel throughout; see speed.scaled.

const (
	probeEvery = 50 * time.Millisecond
	calibIters = 40000
	// refKernel is the kernel's time on an idle sandbox core at its fastest.
	// It is a unit, not a measurement: changing it rescales every reported
	// timing and invalidates comparisons with earlier runs.
	refKernel = 120 * time.Microsecond
	// smoothHalf is half the width of the moving median over probe samples.
	smoothHalf = time.Second
)

var (
	calibBuf  [32 << 10]uint64 // 256 KiB: resident in a core's private cache
	calibSink uint64
)

// calibKernel is the fixed work: a dependent chain of shifts, adds and
// random accesses to calibBuf. It shares no code with the program under
// test, so a change to the program cannot move it.
func calibKernel() uint64 {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(calibBuf)-1)
		acc += calibBuf[j]
		calibBuf[j] = acc ^ x
	}
	return acc
}

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU is the processor time the calling thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeSample is one run of the kernel: when, and the processor time taken.
type probeSample struct {
	at  time.Duration // since the probe started
	cpu time.Duration
}

type speedProbe struct {
	t0      time.Time
	stop    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	samples []probeSample
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{t0: time.Now(), stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			c0 := threadCPU()
			calibSink += calibKernel()
			p.samples = append(p.samples, probeSample{at: time.Since(p.t0), cpu: threadCPU() - c0})
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the probe and returns what it saw; safe to call twice.
func (p *speedProbe) finish() *speed {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
	return newSpeed(p.t0, p.samples)
}

// speed is the machine's slowdown over a run as a step function of time:
// slow[i] holds from at[i] to at[i+1], and is the median processor time of
// the probes within smoothHalf of at[i] over refKernel.
type speed struct {
	t0   time.Time
	at   []time.Duration
	slow []float64
}

func newSpeed(t0 time.Time, raw []probeSample) *speed {
	sp := &speed{t0: t0}
	lo, hi := 0, 0
	var near []float64
	for i := range raw {
		for raw[i].at-raw[lo].at > smoothHalf {
			lo++
		}
		for hi < len(raw) && raw[hi].at-raw[i].at <= smoothHalf {
			hi++
		}
		near = near[:0]
		for _, s := range raw[lo:hi] {
			near = append(near, float64(s.cpu))
		}
		sp.at = append(sp.at, raw[i].at)
		sp.slow = append(sp.slow, median(near)/float64(refKernel))
	}
	return sp
}

// scaled returns how long the interval from a to b (offsets from t0) would
// have lasted at reference speed: the integral of dt/slowdown over it.
func (sp *speed) scaled(t0 time.Time, a, b time.Duration) time.Duration {
	shift := t0.Sub(sp.t0)
	a, b = a+shift, b+shift
	i := sort.Search(len(sp.at), func(i int) bool { return sp.at[i] > a }) - 1
	if i < 0 {
		i = 0 // before the first probe: its value holds
	}
	var out float64
	for a < b {
		end := b
		if i+1 < len(sp.at) && sp.at[i+1] < b {
			end = sp.at[i+1]
		}
		out += float64(end-a) / sp.slow[i]
		a = end
		i++
	}
	return time.Duration(out)
}

// median returns the slowdown a typical instant of the interval saw.
func (sp *speed) median(t0 time.Time, a, b time.Duration) float64 {
	shift := t0.Sub(sp.t0)
	var in []float64
	for i, at := range sp.at {
		if at >= a+shift && at <= b+shift {
			in = append(in, sp.slow[i])
		}
	}
	return median(in)
}
