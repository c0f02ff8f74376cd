package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p ≤ 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// medians reduces per-round metric maps to the per-key median.
func medians(rounds []map[string]float64) map[string]float64 {
	keys := map[string][]float64{}
	for _, r := range rounds {
		for k, v := range r {
			keys[k] = append(keys[k], v)
		}
	}
	out := make(map[string]float64, len(keys))
	for k, vs := range keys {
		out[k] = median(vs)
	}
	return out
}

func sum(xs []int) int {
	var s int
	for _, v := range xs {
		s += v
	}
	return s
}

func meanSize(sizes []int) float64 { return ratio(float64(sum(sizes)), float64(len(sizes))) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypassed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timedRounds runs warm, when given, then round until the rounds' work
// adds up to budget, and at least min times. The first round of a process
// runs 10–20% slower than later ones (worker pools spawn, the heap grows,
// code and data pages fault in), so warm repeats enough of a round to
// take that cost outside the measurement. A collection after each
// round, outside its timing, starts every round from the same heap, so
// the peak resident set measures one round's working set and not how
// many rounds the run made.
func timedRounds(budget time.Duration, min int, warm func() error, round func() (time.Duration, error)) error {
	if warm != nil {
		if err := warm(); err != nil {
			return err
		}
		runtime.GC()
	}
	var total time.Duration
	for n := 0; n < min || total < budget; n++ {
		w, err := round()
		if err != nil {
			return err
		}
		runtime.GC()
		total += w
	}
	return nil
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var refSink float64

// refLoopNs times a fixed, allocation-free floating-point recurrence —
// the same work on every host and every commit — and returns the median
// nanoseconds per iteration over seven repeats, so drift of the host
// itself shows beside the per-layer numbers.
func refLoopNs() float64 {
	const iters = 1 << 22
	times := make([]float64, 7)
	for k := range times {
		t0 := time.Now()
		x, s := 1.0, 0.0
		for i := 0; i < iters; i++ {
			x = x*1.0000001 + 1e-9
			s += x
		}
		refSink = s
		times[k] = float64(time.Since(t0).Nanoseconds()) / iters
	}
	return median(times)
}
