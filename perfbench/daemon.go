package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"grape6/internal/core"
	"grape6/internal/grape6d"
	"grape6/internal/model"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

type daemonSize struct{ n, tenants, steps, pairs int }

// daemonSizes: two tenants (one per core of the reference host), each a
// closed loop of single-block Step calls on its own N = 512 session.
// Both share one 4-chip array, so the scheduler swaps their j-images in
// and out between requests. Successive rounds take their tenants from
// pairs sets of seeds in turn: a step's latency is set by the size of
// its block, and how many blocks are tiny depends on the few tightest
// particles of each system, so one pair alone would make the latencies
// a property of two draws of the seed.
func daemonSizes(smoke bool) daemonSize {
	if smoke {
		return daemonSize{n: 128, tenants: 2, steps: 30, pairs: 2}
	}
	return daemonSize{n: 512, tenants: 2, steps: 300, pairs: 8}
}

// tenantSeeds derives n distinct session seeds from the run's seed.
func tenantSeeds(seed uint64, n int) []uint64 {
	src := xrand.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = src.Uint64()
	}
	return out
}

// daemonRound is what one round of the daemon workload measured.
type daemonRound struct {
	setup, work time.Duration
	lat         []float64 // per Step call, ms
	attach      []float64 // per Attach call, ms
	rpc         time.Duration
	sizes       [][]int // per tenant, block sizes in step order
	hashes      []uint64

	// The scheduler's counters just before and just after the loops.
	before, after grape6d.Stats
}

// dedicatedHash runs a tenant's workload on a dedicated array of its own
// — the reference the scheduler's bit-exactness contract promises.
func dedicatedHash(n int, seed uint64, blocks int) (uint64, error) {
	hw := attachment()
	sim, err := core.NewSimulator(model.Plummer(n, xrand.New(seed)), core.Config{Backend: core.Grape, Eps: eps, HW: &hw})
	if err != nil {
		return 0, err
	}
	for k := 0; k < blocks; k++ {
		sim.Step()
	}
	return grape6d.SystemHash(sim.Synchronized()), nil
}

// daemonRoundOnce dials the server once per tenant, attaches every
// session (the set-up), runs the tenants' closed loops concurrently (the
// measured work), and detaches. Failed RPCs inside the loops are counted
// in rep; failures to set up or tear down end the run.
func daemonRoundOnce(addr string, sz daemonSize, seeds []uint64, rep *report) (daemonRound, error) {
	r := daemonRound{
		sizes:  make([][]int, sz.tenants),
		hashes: make([]uint64, sz.tenants),
	}
	name := func(i int) string { return fmt.Sprintf("tenant%d", i) }
	clients := make([]*grape6d.Client, 0, sz.tenants)
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	t0 := time.Now()
	for i := 0; i < sz.tenants; i++ {
		cl, err := grape6d.Dial(addr)
		if err != nil {
			return r, err
		}
		clients = append(clients, cl)
		a0 := time.Now()
		if _, err := cl.Attach(grape6d.AttachArgs{Name: name(i), N: sz.n, Seed: seeds[i], Eps: eps}); err != nil {
			return r, err
		}
		r.attach = append(r.attach, ms(time.Since(a0)))
	}
	r.setup = time.Since(t0)

	var err error
	if r.before, err = clients[0].Stats(); err != nil {
		return r, err
	}
	lats := make([][]float64, sz.tenants)
	rpcs := make([]time.Duration, sz.tenants)
	errs := make([][]error, sz.tenants)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var prev int64
			for k := 0; k < sz.steps; k++ {
				t := time.Now()
				reply, err := clients[i].Step(name(i), 1)
				d := time.Since(t)
				if err != nil {
					errs[i] = append(errs[i], err)
					continue
				}
				rpcs[i] += d
				lats[i] = append(lats[i], ms(d))
				r.sizes[i] = append(r.sizes[i], int(reply.Steps-prev))
				prev = reply.Steps
			}
		}(i)
	}
	w0 := time.Now()
	close(start)
	wg.Wait()
	r.work = time.Since(w0)
	for i := range clients {
		r.lat = append(r.lat, lats[i]...)
		r.rpc += rpcs[i]
		rep.ops(int64(len(lats[i])))
		for _, err := range errs[i] {
			rep.fail(err)
		}
	}

	if r.after, err = clients[0].Stats(); err != nil {
		return r, err
	}
	for i, cl := range clients {
		h, err := cl.Hash(name(i))
		if err != nil {
			return r, err
		}
		r.hashes[i] = h.Hash
		if err := cl.Detach(name(i)); err != nil {
			return r, err
		}
	}
	return r, nil
}

// arrayTotals sums the fleet's cumulative busy time and swap-ins.
func arrayTotals(st grape6d.Stats) (busy time.Duration, swaps int64) {
	for _, a := range st.Arrays {
		busy += a.Busy
		swaps += a.Swaps
	}
	return busy, swaps
}

func runDaemon(o options, rep *report) error {
	sz := daemonSizes(o.smoke)
	seeds := tenantSeeds(o.seed, sz.pairs*sz.tenants)

	sched := grape6d.NewScheduler(grape6d.Config{Fleet: 1, HW: attachment()})
	sv := grape6d.NewServer(sched)
	defer sv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- sv.Serve(ln) }()
	defer func() {
		ln.Close()
		<-served
	}()

	want := map[uint64]uint64{} // tenant seed → dedicated-array hash
	var rounds []daemonRound
	var layers []map[string]float64
	pairSizes := make([][][]int, sz.pairs) // per pair, per tenant: exact for the seed
	k := 0
	round := func(keep bool) (time.Duration, error) {
		p := k % sz.pairs
		k++
		ss := seeds[p*sz.tenants : (p+1)*sz.tenants]
		for _, s := range ss {
			if _, ok := want[s]; !ok {
				h, err := dedicatedHash(sz.n, s, sz.steps)
				if err != nil {
					return 0, err
				}
				want[s] = h
			}
		}
		r, err := daemonRoundOnce(ln.Addr().String(), sz, ss, rep)
		if err != nil {
			return 0, err
		}
		for i, s := range ss {
			rep.check(r.hashes[i] == want[s], "tenant seed %d hash %#016x, dedicated run %#016x: sharing the array changed bits", s, r.hashes[i], want[s])
		}
		if keep {
			rounds = append(rounds, r)
			layers = append(layers, daemonLayers(r))
			if pairSizes[p] == nil {
				pairSizes[p] = r.sizes
			}
		}
		return r.work, nil
	}
	warm := func() error {
		_, err := round(false)
		return err
	}
	// At least one kept round per pair, so every pair counts.
	err = timedRounds(o.budget(), sz.pairs, warm, func() (time.Duration, error) { return round(true) })
	if err != nil {
		return err
	}

	var setup, gfl, lat []float64
	for _, r := range rounds {
		var steps int
		for _, s := range r.sizes {
			steps += sum(s)
		}
		setup = append(setup, r.setup.Seconds())
		gfl = append(gfl, units.FlopsPerInteraction*float64(steps)*float64(sz.n)/r.work.Seconds()/1e9)
		lat = append(lat, r.lat...)
	}
	// Tenants take turns on one array, so the modelled machine time of a
	// round is the sum of the tenants' modelled times.
	var steps int
	var wall float64
	var all []int
	for _, pair := range pairSizes {
		for _, s := range pair {
			steps += sum(s)
			wall += modelReport(sz.n, s).Wall()
			all = append(all, s...)
		}
	}

	if !o.trace {
		rep.set("real_gflops", median(gfl))
		rep.set("setup_s", median(setup))
		rep.set("model_gflops", units.FlopsPerInteraction*float64(steps)*float64(sz.n)/wall/1e9)
		return rep.latencies(lat, o.smoke)
	}
	for k, v := range medians(layers) {
		rep.set(k, v)
	}
	for k, v := range modelShares(modelReport(sz.n, all)) {
		rep.set(k, v)
	}
	rep.set("hermite.block_size_mean", meanSize(all))
	// The per-layer numbers come from the server's own counters, read
	// outside the measured loops: nothing is wrapped.
	rep.set("trace.overhead_frac", 0)
	return nil
}

// daemonLayers derives a round's per-layer metrics from the growth of
// the scheduler's counters over the tenants' loops.
func daemonLayers(r daemonRound) map[string]float64 {
	busy1, swaps1 := arrayTotals(r.after)
	busy0, swaps0 := arrayTotals(r.before)
	busy := busy1 - busy0
	var steps, reqs, batches, throttled int64
	for _, s := range r.sizes {
		steps += int64(len(s))
	}
	for i, s := range r.after.Sessions {
		s0 := r.before.Sessions[i]
		reqs += s.Requests - s0.Requests
		batches += s.Batches - s0.Batches
		throttled += s.Throttled - s0.Throttled
	}
	f1, f0 := r.after.Fill, r.before.Fill
	fill := ratio(f1.MeanFill*float64(f1.Dispatches)-f0.MeanFill*float64(f0.Dispatches), float64(f1.Dispatches-f0.Dispatches))
	return map[string]float64{
		"grape6d.busy_frac":            ratio(float64(busy), float64(r.work)),
		"grape6d.swaps_per_step":       ratio(float64(swaps1-swaps0), float64(steps)),
		"grape6d.fill_mean":            fill,
		"grape6d.batches_per_request":  ratio(float64(batches), float64(reqs)),
		"grape6d.offarray_ns_per_step": ratio(float64(r.rpc-busy), float64(steps)),
		"grape6d.attach_ms":            median(r.attach),
		"grape6d.throttled":            float64(throttled),
	}
}
