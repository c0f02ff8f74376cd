package main

import (
	"fmt"
	"math"
	"time"

	"grape6/internal/board"
	"grape6/internal/gbackend"
	"grape6/internal/grape6d"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
	"grape6/internal/timing"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

const (
	eps = 1.0 / 64

	// driftLimit bounds |ΔE/E| over any measured stretch; the repository's
	// own integrator tests hold Plummer runs to the same bound.
	driftLimit = 1e-4

	// outputInterval is the simulated time between the outputs whose
	// host-time latency the solo and cosim workloads report. One interval
	// holds every level of the block hierarchy below it, so its cost
	// varies little between seeds, where a single block step's cost is
	// set by how many particles happen to share its time.
	outputInterval = 1.0 / 2048

	// replayBatches is how many force batches of the last traced round
	// the chip rung replays.
	replayBatches = 60
)

// attachment is the dedicated 4-chip array (one board of 2 modules × 2
// chips) every GRAPE-path workload runs on: small enough that a block
// step of ~125 particles exposes the board's pool dispatch beside the
// kernel.
func attachment() board.Config {
	c := board.Default
	c.ChipsPerModule = 2
	c.ModulesPerBoard = 2
	c.Boards = 1
	return c
}

// attachmentModel is the analytic machine model of attachment(): one P4
// host driving 4 production chips.
func attachmentModel() perfmodel.Machine {
	m := perfmodel.SingleNode(simnet.Intel82540EM, perfmodel.P4)
	m.Name = "1-host 4-chip attachment"
	m.BoardsPerHost = 1
	m.HW.ChipsPerBoard = attachment().TotalChips()
	return m
}

// modelReport replays block sizes through the analytic model of the
// attachment.
func modelReport(n int, sizes []int) timing.Report {
	return timing.ReportForBlocks(attachmentModel(), n, sizes)
}

// modelShares is each component's share of the modelled machine time.
func modelShares(rep timing.Report) map[string]float64 {
	w := rep.Wall()
	return map[string]float64{
		"perfmodel.host_frac":  rep.Host / w,
		"perfmodel.grape_frac": rep.Grape / w,
		"perfmodel.comm_frac":  rep.Comm / w,
	}
}

// soloSize is the solo workload's shape: N particles integrated untimed
// to t = 1/512, then timed over quanta output intervals; a run keeps at
// least rounds rounds, so that the p90 latency has ten samples beyond it.
type soloSize struct{ n, quanta, rounds int }

const soloStart = 1.0 / 512

// soloSizes: N = 2048, whose steady-state blocks average ~125 particles.
// The first blocks of an integration are smaller, hence the untimed
// start. The measured unit is one Run to the next output time, the call
// a user of the library makes between outputs.
func soloSizes(smoke bool) soloSize {
	if smoke {
		return soloSize{n: 256, quanta: 8, rounds: 2}
	}
	return soloSize{n: 2048, quanta: 32, rounds: 4}
}

// soloRound is what one round of the solo workload measured.
type soloRound struct {
	setup, work time.Duration
	lat         []float64 // per output interval, ms
	sizes       []int     // block sizes over the measured intervals
	drift       float64
	hash        uint64
	layers      map[string]float64 // traced rounds only
}

func (r soloRound) gflops(n int) float64 {
	return units.FlopsPerInteraction * float64(sum(r.sizes)) * float64(n) / r.work.Seconds() / 1e9
}

// measure integrates untimed to the start time, then times each output
// interval, recording the block sizes through the integrator's trace
// hook.
func measure(it *hermite.Integrator, sz soloSize, r *soloRound, startTimed func()) {
	it.Run(soloStart)
	if startTimed != nil {
		startTimed()
	}
	e0 := it.Energy()
	it.Trace = func(st hermite.BlockStat) { r.sizes = append(r.sizes, st.Size) }
	start := time.Now()
	for k := 1; k <= sz.quanta; k++ {
		t0 := time.Now()
		it.Run(soloStart + float64(k)*outputInterval)
		r.lat = append(r.lat, ms(time.Since(t0)))
	}
	r.work = time.Since(start)
	r.drift = math.Abs((it.Energy() - e0) / e0)
	r.hash = grape6d.SystemHash(it.Synchronize(it.T))
}

// soloRoundOnce runs one round. It assembles the integrator as
// core.NewSimulator does for its Grape backend — hermite over gbackend
// over a dedicated board.Array — but keeps the array, which
// core.Simulator offers no way to close, so no round leaves a worker
// pool behind. With traced, probes sit on the hermite → gbackend and
// gbackend → board boundaries and record the first replayBatches force
// batches of the measured intervals for the chip replay.
func soloRoundOnce(sz soloSize, seed uint64, traced bool) (soloRound, *arrayProbe, error) {
	var r soloRound
	sys := model.Plummer(sz.n, xrand.New(seed))
	t0 := time.Now()
	arr := board.New(attachment())
	defer arr.Close()
	var (
		gb *gbackend.Backend
		be hermite.Backend
		ap *arrayProbe
		bp *backendProbe
	)
	if traced {
		ap = newArrayProbe(arr)
		gb = gbackend.NewBorrowed(ap.wrap())
		bp = newBackendProbe(gb, true, nil)
		be = bp.wrap()
	} else {
		gb = gbackend.New(arr)
		be = gb
	}
	it, err := hermite.New(sys, be, hermite.DefaultParams(eps))
	if err != nil {
		return r, nil, err
	}
	r.setup = time.Since(t0)

	if !traced {
		measure(it, sz, &r, nil)
		return r, nil, nil
	}
	var retries0 int64
	measure(it, sz, &r, func() {
		bp.reset()
		ap.reset()
		ap.record(replayBatches)
		retries0 = gb.Retries
	})

	blocks := float64(len(r.sizes))
	work := float64(r.work.Nanoseconds())
	inter := float64(sum(r.sizes)) * float64(sz.n)
	r.layers = map[string]float64{
		"hermite.ns_per_step":         work / blocks,
		"hermite.ns_per_interaction":  work / inter,
		"hermite.self_frac":           (work - float64(bp.callNs)) / work,
		"gbackend.ns_per_interaction": ratio(float64(bp.forceNs), float64(bp.interactions)),
		"gbackend.self_ns_per_step":   float64(bp.callNs-ap.callNs) / blocks,
		"gbackend.retry_ratio":        ratio(float64(gb.Retries-retries0), float64(bp.forceCalls)),
		"board.ns_per_interaction":    ratio(float64(ap.forceNs), float64(ap.interactions)),
		"board.predict_ns_per_step":   float64(ap.predictNs) / blocks,
		"board.update_ns_per_step":    float64(ap.updateNs) / blocks,
		"board.hw_cycles_per_step":    float64(ap.cycles) / blocks,
	}
	return r, ap, nil
}

func runSolo(o options, rep *report) error {
	sz := soloSizes(o.smoke)
	var rounds, traced []soloRound
	var probe *arrayProbe
	var firstHash uint64
	keep := func(r soloRound, into *[]soloRound) {
		if firstHash == 0 {
			firstHash = r.hash
		}
		rep.check(r.hash == firstHash, "round hash %#016x differs from the first round's %#016x", r.hash, firstHash)
		rep.check(r.drift < driftLimit, "energy drift %.3g over the measured intervals exceeds %g", r.drift, driftLimit)
		rep.ops(int64(len(r.sizes)))
		*into = append(*into, r)
	}
	// The warm-up is a short round: set-up, the untimed start and two
	// intervals.
	warm := func() error {
		_, _, err := soloRoundOnce(soloSize{n: sz.n, quanta: 2}, o.seed, false)
		return err
	}
	budget, minRounds := o.budget(), sz.rounds
	if o.trace {
		budget, minRounds = budget/2, 2
	}
	err := timedRounds(budget, minRounds, warm, func() (time.Duration, error) {
		r, _, err := soloRoundOnce(sz, o.seed, false)
		if err != nil {
			return 0, err
		}
		keep(r, &rounds)
		return r.work, nil
	})
	if err != nil {
		return err
	}
	if o.trace {
		// Every traced round is compared against the untraced rounds'
		// hash: a probe that changed the path taken would change bits.
		err := timedRounds(budget, minRounds, nil, func() (time.Duration, error) {
			r, ap, err := soloRoundOnce(sz, o.seed, true)
			if err != nil {
				return 0, err
			}
			keep(r, &traced)
			probe = ap
			return r.work, nil
		})
		if err != nil {
			return err
		}
	}

	var setup, gfl, lat []float64
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		gfl = append(gfl, r.gflops(sz.n))
		lat = append(lat, r.lat...)
	}
	model := modelReport(sz.n, rounds[0].sizes)
	if !o.trace {
		rep.set("real_gflops", median(gfl))
		rep.set("setup_s", median(setup))
		rep.set("model_gflops", model.SpeedFlops()/1e9)
		return rep.latencies(lat, o.smoke)
	}

	var layers []map[string]float64
	var tgfl []float64
	for _, r := range traced {
		layers = append(layers, r.layers)
		tgfl = append(tgfl, r.gflops(sz.n))
	}
	m := medians(layers)
	for k, v := range m {
		rep.set(k, v)
	}
	for k, v := range modelShares(model) {
		rep.set(k, v)
	}
	rep.set("hermite.block_size_mean", meanSize(rounds[0].sizes))
	rep.set("hermite.energy_drift", rounds[0].drift)
	rep.set("trace.overhead_frac", 1-median(tgfl)/median(gfl))
	rep.notef("tracing: traced real_gflops %.4g vs untraced %.4g; %d untraced and %d traced rounds checked against final hash %#016x",
		median(tgfl), median(gfl), len(rounds), len(traced), firstHash)

	ns, inter, err := probe.replay(probe.Config().Chip)
	if err != nil {
		return fmt.Errorf("chip replay: %w", err)
	}
	chipNs := ratio(float64(ns), float64(inter))
	rep.set("chip.ns_per_interaction", chipNs)
	rep.ladder([]rung{
		{"chip replay", chipNs, ""},
		{"board", m["board.ns_per_interaction"], "board.pool_ratio"},
		{"gbackend", m["gbackend.ns_per_interaction"], "gbackend.overhead_ratio"},
		{"hermite step", m["hermite.ns_per_interaction"], "hermite.overhead_ratio"},
	})
	return nil
}
