package main

import (
	"sync"
	"time"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/direct"
	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/vec"
)

// The probes below decorate the public interfaces between layers, from
// the benchmark's side: they time every call, count the work that
// crosses the boundary, and otherwise forward the call unchanged. Each
// forwards exactly the optional interfaces the wrapped value implements.
// The layer above type-asserts for those (hermite for ForcesInto,
// BeginPredict and Yield; gbackend for Yield), so a probe that added or
// hid one would send the caller down a different path and the trace would
// measure a different program.

// blockClock stamps the host time at which each new block time is first
// seen by a force call: the start of every block step of a co-simulation,
// whose ranks all run the same block sequence.
type blockClock struct {
	mu     sync.Mutex
	times  []float64 // block times, increasing
	stamps []time.Time
}

func (c *blockClock) observe(t float64) {
	c.mu.Lock()
	if n := len(c.times); n == 0 || t > c.times[n-1] {
		c.times = append(c.times, t)
		c.stamps = append(c.stamps, clockNow())
	}
	c.mu.Unlock()
}

// intervals returns the host time, in ms, the run took to cross each
// output interval of quantum simulated time units: interval k holds the
// blocks with times in ((k-1)·quantum, k·quantum]; the last one ends at
// end.
func (c *blockClock) intervals(quantum float64, end time.Time) []float64 {
	var out []float64
	if len(c.stamps) == 0 {
		return out
	}
	start, bound := c.stamps[0], quantum
	for i, t := range c.times {
		if t > bound {
			out = append(out, ms(c.stamps[i].Sub(start)))
			start = c.stamps[i]
			for t > bound {
				bound += quantum
			}
		}
	}
	return append(out, ms(end.Sub(start)))
}

// backendProbe decorates a hermite.Backend.
type backendProbe struct {
	b     hermite.Backend
	into  hermite.ForcesIntoBackend   // b, when it has ForcesInto
	ahead hermite.PredictAheadBackend // b, when it has BeginPredict
	yield hermite.YieldBackend        // b, when it has Yield

	timed bool        // time each call (off: only the block clock runs)
	clock *blockClock // nil: no block stamps

	callNs       int64 // time inside any call into the layer
	forceNs      int64 // time inside force calls
	forceCalls   int64
	interactions int64 // i-particles × stored j-particles over force calls
}

func newBackendProbe(b hermite.Backend, timed bool, clock *blockClock) *backendProbe {
	p := &backendProbe{b: b, timed: timed, clock: clock}
	p.into, _ = b.(hermite.ForcesIntoBackend)
	p.ahead, _ = b.(hermite.PredictAheadBackend)
	p.yield, _ = b.(hermite.YieldBackend)
	return p
}

func (p *backendProbe) reset() {
	p.callNs, p.forceNs, p.forceCalls, p.interactions = 0, 0, 0, 0
}

func (p *backendProbe) begin() time.Time {
	if !p.timed {
		return time.Time{}
	}
	return clockNow()
}

func (p *backendProbe) end(t0 time.Time) int64 {
	if !p.timed {
		return 0
	}
	d := time.Since(t0).Nanoseconds()
	p.callNs += d
	return d
}

func (p *backendProbe) force(t float64, ni int) {
	if p.clock != nil {
		p.clock.observe(t)
	}
	p.forceCalls++
	p.interactions += int64(ni) * int64(p.b.NJ())
}

func (p *backendProbe) Load(sys *nbody.System) {
	t0 := p.begin()
	p.b.Load(sys)
	p.end(t0)
}

func (p *backendProbe) Update(sys *nbody.System, idx []int) {
	t0 := p.begin()
	p.b.Update(sys, idx)
	p.end(t0)
}

func (p *backendProbe) Forces(t float64, ids []int, xi, vi []vec.V3, eps float64) []direct.Force {
	p.force(t, len(ids))
	t0 := p.begin()
	out := p.b.Forces(t, ids, xi, vi, eps)
	p.forceNs += p.end(t0)
	return out
}

func (p *backendProbe) NJ() int { return p.b.NJ() }

type probeInto struct{ p *backendProbe }

func (w probeInto) ForcesInto(dst []direct.Force, t float64, ids []int, xi, vi []vec.V3, eps float64) []direct.Force {
	p := w.p
	p.force(t, len(ids))
	t0 := p.begin()
	out := p.into.ForcesInto(dst, t, ids, xi, vi, eps)
	p.forceNs += p.end(t0)
	return out
}

type probeAhead struct{ p *backendProbe }

func (w probeAhead) BeginPredict(t float64) {
	t0 := w.p.begin()
	w.p.ahead.BeginPredict(t)
	w.p.end(t0)
}

type probeYield struct{ p *backendProbe }

func (w probeYield) Yield() {
	t0 := w.p.begin()
	w.p.yield.Yield()
	w.p.end(t0)
}

// wrap returns the probe as a hermite.Backend with the same optional
// method set as the wrapped backend.
func (p *backendProbe) wrap() hermite.Backend {
	i, a, y := probeInto{p}, probeAhead{p}, probeYield{p}
	switch {
	case p.into != nil && p.ahead != nil && p.yield != nil:
		return struct {
			*backendProbe
			probeInto
			probeAhead
			probeYield
		}{p, i, a, y}
	case p.into != nil && p.ahead != nil:
		return struct {
			*backendProbe
			probeInto
			probeAhead
		}{p, i, a}
	case p.into != nil && p.yield != nil:
		return struct {
			*backendProbe
			probeInto
			probeYield
		}{p, i, y}
	case p.ahead != nil && p.yield != nil:
		return struct {
			*backendProbe
			probeAhead
			probeYield
		}{p, a, y}
	case p.into != nil:
		return struct {
			*backendProbe
			probeInto
		}{p, i}
	case p.ahead != nil:
		return struct {
			*backendProbe
			probeAhead
		}{p, a}
	case p.yield != nil:
		return struct {
			*backendProbe
			probeYield
		}{p, y}
	}
	return p
}

// replayOp is one recorded array operation: a j-particle rewrite, or a
// force batch.
type replayOp struct {
	update bool
	p      chip.JParticle
	t, eps float64
	is     []chip.IParticle
}

// arrayProbe decorates a gbackend.Array — the boundary between the GRAPE
// library layer and the board — and can record a window of its traffic
// for a single-chip replay.
type arrayProbe struct {
	a     gbackend.Array
	yield interface{ Yield() } // a, when it is a multi-tenant lease

	callNs, forceNs, predictNs, updateNs int64
	interactions, cycles                 int64

	// The j-set as the array holds it, kept so a recording can start
	// from it.
	mirror []chip.JParticle
	slot   map[int]int

	recording bool
	budget    int // force batches still to record
	base      []chip.JParticle
	ops       []replayOp
}

func newArrayProbe(a gbackend.Array) *arrayProbe {
	p := &arrayProbe{a: a, slot: map[int]int{}}
	p.yield, _ = a.(interface{ Yield() })
	return p
}

func (p *arrayProbe) reset() {
	p.callNs, p.forceNs, p.predictNs, p.updateNs = 0, 0, 0, 0
	p.interactions, p.cycles = 0, 0
}

// record starts recording the next batches force calls and the
// j-particle rewrites among them.
func (p *arrayProbe) record(batches int) {
	p.base = append([]chip.JParticle(nil), p.mirror...)
	p.ops = p.ops[:0]
	p.budget = batches
	p.recording = batches > 0
}

func (p *arrayProbe) LoadJ(ps []chip.JParticle) error {
	t0 := clockNow()
	err := p.a.LoadJ(ps)
	p.callNs += time.Since(t0).Nanoseconds()
	p.mirror = append(p.mirror[:0], ps...)
	clear(p.slot)
	for i, q := range ps {
		p.slot[q.ID] = i
	}
	return err
}

func (p *arrayProbe) UpdateJ(q chip.JParticle) error {
	t0 := clockNow()
	err := p.a.UpdateJ(q)
	d := time.Since(t0).Nanoseconds()
	p.callNs += d
	p.updateNs += d
	if i, ok := p.slot[q.ID]; ok {
		p.mirror[i] = q
	}
	if p.recording {
		p.ops = append(p.ops, replayOp{update: true, p: q})
	}
	return err
}

func (p *arrayProbe) ForcesInto(dst []chip.Partial, t float64, is []chip.IParticle, eps float64) int64 {
	t0 := clockNow()
	cy := p.a.ForcesInto(dst, t, is, eps)
	d := time.Since(t0).Nanoseconds()
	p.callNs += d
	p.forceNs += d
	p.interactions += int64(len(is)) * int64(p.a.NJ())
	p.cycles += cy
	if p.recording {
		p.ops = append(p.ops, replayOp{t: t, eps: eps, is: append([]chip.IParticle(nil), is...)})
		p.budget--
		p.recording = p.budget > 0
	}
	return cy
}

func (p *arrayProbe) BeginPredict(t float64) {
	t0 := clockNow()
	p.a.BeginPredict(t)
	d := time.Since(t0).Nanoseconds()
	p.callNs += d
	p.predictNs += d
}

func (p *arrayProbe) NJ() int              { return p.a.NJ() }
func (p *arrayProbe) Config() board.Config { return p.a.Config() }
func (p *arrayProbe) Close()               { p.a.Close() }

type arrayYield struct{ p *arrayProbe }

func (w arrayYield) Yield() {
	t0 := clockNow()
	w.p.yield.Yield()
	w.p.callNs += time.Since(t0).Nanoseconds()
}

// wrap returns the probe as a gbackend.Array with the same optional
// method set as the wrapped array.
func (p *arrayProbe) wrap() gbackend.Array {
	if p.yield != nil {
		return struct {
			*arrayProbe
			arrayYield
		}{p, arrayYield{p}}
	}
	return p
}

// replay runs the recorded force batches single-threaded through
// chip.ForceBatchInto on one chip holding the whole recorded j-set,
// applying the recorded rewrites in order, and returns the time spent in
// the force batches and the interactions they evaluated.
func (p *arrayProbe) replay(cfg chip.Config) (ns, interactions int64, err error) {
	ch := chip.New(cfg)
	if err := ch.LoadJ(p.base); err != nil {
		return 0, 0, err
	}
	slot := make(map[int]int, len(p.base))
	for i, q := range p.base {
		slot[q.ID] = i
	}
	var dst []chip.Partial
	for _, op := range p.ops {
		if op.update {
			if err := ch.WriteJ(slot[op.p.ID], op.p); err != nil {
				return 0, 0, err
			}
			continue
		}
		if cap(dst) < len(op.is) {
			dst = make([]chip.Partial, len(op.is))
		}
		t0 := clockNow()
		ch.ForceBatchInto(dst[:len(op.is)], op.t, op.is, op.eps)
		ns += time.Since(t0).Nanoseconds()
		interactions += int64(len(op.is)) * int64(len(p.base))
	}
	return ns, interactions, nil
}

// clockNow reads the host clock for the probes. A reading only ever
// lands in a probe's counters, never in a value the wrapped layer
// returns, so the bit-exact layers behind the probes stay independent of
// the clock.
func clockNow() time.Time {
	//grapelint:ignore puritydeep benchmark-side probe timing: the reading feeds the probe's counters only, never a result the wrapped layer computes
	return time.Now()
}
