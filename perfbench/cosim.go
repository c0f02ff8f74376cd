package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/parallel"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

// refTolerance is how far a co-simulated particle may end from the
// single-host integration; internal/parallel's tests use the same bound.
const refTolerance = 1e-6

type cosimSize struct {
	n, clusters, ranks int
	until              float64
}

// cosimSizes: the paper's flagship machine, 64 boards × 32 chips in 4
// clusters, emulated by 256 ranks of 8 chips each, integrating N = 2048
// to t = 1/32.
func cosimSizes(smoke bool) cosimSize {
	if smoke {
		return cosimSize{n: 256, clusters: 4, ranks: 16, until: 1.0 / 256}
	}
	return cosimSize{n: 2048, clusters: 4, ranks: 256, until: 1.0 / 32}
}

// cosimReference integrates sys0 on one host with the float64 direct
// backend to until: the state the co-simulation must reproduce.
func cosimReference(sys0 *nbody.System, until float64) (*nbody.System, error) {
	ref := sys0.Clone()
	it, err := hermite.New(ref, hermite.NewDirectBackend(), hermite.DefaultParams(eps))
	if err != nil {
		return nil, err
	}
	it.Run(until)
	return ref, nil
}

// cosimRound is what one round of the co-simulation measured.
type cosimRound struct {
	work time.Duration // from the first block step to the end
	lat  []float64     // per output interval, ms
	res  *parallel.Result

	// Over the ranks' backends (not the rank −1 set-up backend), timed
	// rounds only.
	callNs, forceNs, interactions int64
}

// cosimConfig is the flagship machine's configuration, with the float64
// direct backend on every rank unless newBackend says otherwise.
func cosimConfig(sz cosimSize, record bool, newBackend func(int) hermite.Backend) (parallel.Config, error) {
	m, err := perfmodel.ShardedFleet(sz.clusters, sz.ranks, 64, 32, simnet.Intel82540EM, perfmodel.P4)
	return parallel.Config{
		Hosts:      sz.ranks,
		NIC:        simnet.Intel82540EM,
		Machine:    m,
		Params:     hermite.DefaultParams(eps),
		Record:     record,
		NewBackend: newBackend,
	}, err
}

// cosimSetup times a co-simulation run to t = 0: the initial forces, the
// ranks' states, starting their processes and gathering the result — the
// set-up every co-simulation pays before its first block step.
func cosimSetup(sys0 *nbody.System, sz cosimSize) (time.Duration, error) {
	cfg, err := cosimConfig(sz, true, nil)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	res, err := parallel.RunHybrid(sys0.Clone(), 0, sz.clusters, cfg)
	d := time.Since(t0)
	if err == nil && res.Blocks != 0 {
		err = fmt.Errorf("set-up run made %d block steps", res.Blocks)
	}
	return d, err
}

// cosimRoundOnce runs one co-simulation from sys0 to until. Every rank's
// backend is the float64 direct backend behind a probe; timed probes
// also time each call. The probes' block clock marks where set-up ends
// (the first block's first force call) and when each block starts.
func cosimRoundOnce(sys0 *nbody.System, until float64, sz cosimSize, record, timed bool) (cosimRound, error) {
	var r cosimRound
	clock := &blockClock{}
	var probes []*backendProbe
	cfg, err := cosimConfig(sz, record, func(rank int) hermite.Backend {
		if rank < 0 { // the shared set-up backend for the initial forces
			return newBackendProbe(hermite.NewDirectBackend(), false, nil).wrap()
		}
		p := newBackendProbe(hermite.NewDirectBackend(), timed, clock)
		probes = append(probes, p)
		return p.wrap()
	})
	if err != nil {
		return r, err
	}
	res, err := parallel.RunHybrid(sys0.Clone(), until, sz.clusters, cfg)
	end := time.Now()
	if err != nil {
		return r, err
	}
	if len(clock.stamps) == 0 {
		return r, errors.New("co-simulation ran no block step")
	}
	r.res = res
	r.work = end.Sub(clock.stamps[0])
	r.lat = clock.intervals(outputInterval, end)
	for _, p := range probes {
		r.callNs += p.callNs
		r.forceNs += p.forceNs
		r.interactions += p.interactions
	}
	return r, nil
}

func (r cosimRound) gflops(n int) float64 {
	return units.FlopsPerInteraction * float64(r.res.Steps) * float64(n) / r.work.Seconds() / 1e9
}

// synchronizedEnergy predicts every particle to time t and returns the
// total energy.
func synchronizedEnergy(sys *nbody.System, t float64) float64 {
	s := sys.Clone()
	for i := 0; i < s.N; i++ {
		s.Pos[i], s.Vel[i] = hermite.Predict(s.Pos[i], s.Vel[i], s.Acc[i], s.Jerk[i], s.Snap[i], t-s.Time[i])
	}
	return s.TotalEnergy(eps)
}

func maxDeviation(a, b *nbody.System) float64 {
	var m float64
	for i := 0; i < a.N; i++ {
		m = math.Max(m, a.Pos[i].Dist(b.Pos[i]))
	}
	return m
}

func runCosim(o options, rep *report) error {
	sz := cosimSizes(o.smoke)
	sys0 := model.Plummer(sz.n, xrand.New(o.seed))
	until := sz.until
	ref, err := cosimReference(sys0, until)
	if err != nil {
		return err
	}
	e0 := sys0.TotalEnergy(eps)

	var first *parallel.Result
	var drift float64
	var setups []float64
	// round runs one co-simulation, checks it, and adds it to into unless
	// into is nil.
	round := func(record, timed bool, into *[]cosimRound) (time.Duration, error) {
		if into != nil && !o.trace {
			// Set-up is short, so it is sampled several times
			// around every round.
			for k := 0; k < 3; k++ {
				d, err := cosimSetup(sys0, sz)
				if err != nil {
					return 0, err
				}
				setups = append(setups, d.Seconds())
			}
		}
		r, err := cosimRoundOnce(sys0, until, sz, record, timed)
		if err != nil {
			return 0, err
		}
		res := r.res
		if first == nil {
			first = res
		}
		rep.check(res.VirtualTime == first.VirtualTime && res.Messages == first.Messages && res.Bytes == first.Bytes,
			"round gave virtual time %v, %d messages, %d bytes; the first gave %v, %d, %d",
			res.VirtualTime, res.Messages, res.Bytes, first.VirtualTime, first.Messages, first.Bytes)
		dev := maxDeviation(res.Sys, ref)
		rep.check(dev <= refTolerance, "final positions deviate from the single-host run by %.3g (limit %g)", dev, refTolerance)
		drift = math.Abs((synchronizedEnergy(res.Sys, until) - e0) / e0)
		rep.check(drift < driftLimit, "energy drift %.3g exceeds %g", drift, driftLimit)
		if into != nil {
			rep.ops(res.Blocks)
			*into = append(*into, r)
		}
		return r.work, nil
	}
	phase := func(record, timed bool, into *[]cosimRound) func() (time.Duration, error) {
		return func() (time.Duration, error) { return round(record, timed, into) }
	}
	// A full round warms up: it also grows the heap to a round's size.
	warm := func() error {
		_, err := round(true, false, nil)
		return err
	}

	var rounds, unrecorded, traced []cosimRound
	if !o.trace {
		if err := timedRounds(o.budget(), 3, warm, phase(true, false, &rounds)); err != nil {
			return err
		}
		var gfl, lat []float64
		for _, r := range rounds {
			gfl = append(gfl, r.gflops(sz.n))
			lat = append(lat, r.lat...)
		}
		rep.set("real_gflops", median(gfl))
		rep.set("setup_s", median(setups))
		rep.set("model_gflops", units.FlopsPerInteraction*float64(first.Steps)*float64(sz.n)/first.VirtualTime/1e9)
		return rep.latencies(lat, o.smoke)
	}

	// Traced: untimed probes with recording (as measured end to end),
	// the same without recording, then timed probes.
	third := o.budget() / 3
	if err := timedRounds(third, 2, warm, phase(true, false, &rounds)); err != nil {
		return err
	}
	if err := timedRounds(third, 2, nil, phase(false, false, &unrecorded)); err != nil {
		return err
	}
	if err := timedRounds(third, 2, nil, phase(true, true, &traced)); err != nil {
		return err
	}
	work := func(rs []cosimRound) (w, gfl []float64) {
		for _, r := range rs {
			w = append(w, r.work.Seconds())
			gfl = append(gfl, r.gflops(sz.n))
		}
		return w, gfl
	}
	wRec, gRec := work(rounds)
	wNo, _ := work(unrecorded)
	_, gTr := work(traced)
	var layers []map[string]float64
	for _, r := range traced {
		w := float64(r.work.Nanoseconds())
		layers = append(layers, map[string]float64{
			"direct.ns_per_interaction": ratio(float64(r.forceNs), float64(r.interactions)),
			"parallel.self_frac":        (w - float64(r.callNs)) / w,
			"simnet.msgs_per_s":         float64(r.res.Messages) / r.work.Seconds(),
		})
	}
	for k, v := range medians(layers) {
		rep.set(k, v)
	}
	mean := first.Breakdown.Mean()
	vt := first.VirtualTime
	rep.set("vtrace.host_frac", mean.Host()/vt)
	rep.set("vtrace.grape_frac", mean.Grape()/vt)
	rep.set("vtrace.comm_frac", mean.Comm()/vt)
	rep.set("vtrace.sync_frac", mean.Sync()/vt)
	rep.set("vtrace.overhead_frac", median(wRec)/median(wNo)-1)
	rep.set("simnet.messages", float64(first.Messages))
	rep.set("simnet.bytes", float64(first.Bytes))
	rep.set("parallel.energy_drift", drift)
	rep.set("hermite.block_size_mean", float64(first.Steps)/float64(first.Blocks))
	rep.set("trace.overhead_frac", 1-median(gTr)/median(gRec))
	rep.notef("tracing: traced real_gflops %.4g vs untraced %.4g; recording on %.4g s vs off %.4g s of work",
		median(gTr), median(gRec), median(wRec), median(wNo))
	return nil
}
