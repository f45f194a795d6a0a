package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/delay"
	"repro/internal/learn"
	"repro/internal/scoap"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// Prepared is the immutable per-circuit precompute shared by every
// verifier on a circuit: arrival-time analysis, SCOAP
// controllabilities, reconvergent stems, the lazily-built static
// learning table, and the per-sink fan-in cone slices used by
// cone-sliced solving. A sweep over many δ values or option sets pays
// for each analysis once — NewVerifier derives verifiers that all
// point at the same Prepared. All methods are safe for concurrent
// use: the cone cache grows under a mutex with per-sink once
// initialisation, so parallel RunAll workers build distinct cones
// concurrently but never duplicate one.
type Prepared struct {
	c        *circuit.Circuit
	analysis *delay.Analysis
	cc       *scoap.Controllability
	stems    []circuit.NetID // reconvergent stems in NetsByLevel order

	learnOnce sync.Once
	learn     *learn.Table

	coneMu sync.Mutex
	cones  map[circuit.NetID]*conePrep // guarded by coneMu
}

// Prepare computes the shareable static analyses of a circuit.
func Prepare(c *circuit.Circuit) *Prepared {
	return &Prepared{
		c:        c,
		analysis: delay.New(c),
		cc:       scoap.Compute(c),
		stems:    c.ReconvergentStems(),
		cones:    make(map[circuit.NetID]*conePrep),
	}
}

// Circuit returns the prepared netlist.
func (p *Prepared) Circuit() *circuit.Circuit { return p.c }

// Analysis returns the arrival-time analysis.
func (p *Prepared) Analysis() *delay.Analysis { return p.analysis }

// LearnTable returns the static learning table, computing it on first
// use (it is the most expensive precompute and not every option set
// needs it).
func (p *Prepared) LearnTable() *learn.Table {
	p.learnOnce.Do(func() { p.learn = learn.Precompute(p.c) })
	return p.learn
}

// NewVerifier derives a verifier with the given options from the
// shared precompute.
func (p *Prepared) NewVerifier(opts Options) *Verifier {
	v := &Verifier{c: p.c, opts: opts, prep: p,
		analysis: p.analysis, cc: p.cc, stems: p.stems}
	if opts.UseLearning {
		v.table = p.LearnTable()
	}
	return v
}

// conePrep is the option-independent slice of one sink's fan-in cone:
// the cone circuit with its id maps plus the static analyses projected
// or recomputed on it. Built once per (circuit, sink) and shared by
// every verifier derived from the Prepared.
type conePrep struct {
	once sync.Once

	// full marks a cone spanning the whole circuit; slicing it would
	// only duplicate the system, so Run solves on the original.
	full bool
	cone *circuit.Circuit
	cm   *circuit.ConeMap

	analysis *delay.Analysis
	cc       *scoap.Controllability
	stems    []circuit.NetID // in the cone's NetsByLevel order

	learnOnce sync.Once
	learn     *learn.Table
}

// coneFor returns the cone precompute for sink, building it on first
// use; nil when the cone spans the whole circuit (or extraction
// failed) and slicing would buy nothing.
func (p *Prepared) coneFor(sink circuit.NetID) *conePrep {
	p.coneMu.Lock()
	cp := p.cones[sink]
	if cp == nil {
		cp = new(conePrep)
		p.cones[sink] = cp
	}
	p.coneMu.Unlock()
	cp.once.Do(func() { cp.build(p, sink) })
	if cp.cone == nil {
		return nil
	}
	return cp
}

func (cp *conePrep) build(p *Prepared, sink circuit.NetID) {
	mask := p.c.TransitiveFanin(sink)
	in := 0
	for _, ok := range mask {
		if ok {
			in++
		}
	}
	if in == p.c.NumNets() {
		cp.full = true
		return
	}
	cone, cm, err := circuit.ExtractConeMapped(p.c, sink)
	if err != nil {
		return // defensive: a nil cone falls back to whole-circuit solving
	}
	cp.cone, cp.cm = cone, cm
	cp.analysis = delay.New(cone)
	// Arrival times and SCOAP controllabilities are functions of each
	// net's fan-in alone, which the slice preserves, so the projection
	// is identical to recomputing on the cone.
	cp.cc = p.cc.Project(cm.FromCone)
	// Restrict the original circuit's reconvergent stems to the cone
	// instead of recomputing them on the slice: reconvergence seen by
	// the whole circuit may run through gates outside the cone, and
	// using the same candidate set (in the same order) keeps stem
	// selection, split budgets, and split order aligned with
	// whole-circuit solving. The cone keeps every net's level and the
	// order of ids, so the filtered stems stay in the cone's
	// NetsByLevel order.
	for _, s := range p.stems {
		if id := cm.ToCone[s]; id != circuit.InvalidNet {
			cp.stems = append(cp.stems, id)
		}
	}
}

// learnTable lazily projects the parent's learning table onto the cone.
func (cp *conePrep) learnTable(p *Prepared) *learn.Table {
	cp.learnOnce.Do(func() {
		cp.learn = p.LearnTable().Project(cp.cone, cp.cm.ToCone, cp.cm.FromCone)
	})
	return cp.learn
}

// coneVerifier pairs the sub-verifier solving on one sink's cone slice
// with the id maps needed to translate its reports back. Cached per
// sink on the (options-carrying) Verifier; the underlying cone
// geometry and analyses come from the shared Prepared.
type coneVerifier struct {
	once sync.Once
	sub  *Verifier
	cm   *circuit.ConeMap
	nPIs int // original primary-input count, for witness expansion
}

// coneFor returns the cached cone sub-verifier for sink, or nil when
// the sink's cone spans the whole circuit and Run should solve on the
// original system.
func (v *Verifier) coneFor(sink circuit.NetID) *coneVerifier {
	v.coneMu.Lock()
	if v.cones == nil {
		v.cones = make(map[circuit.NetID]*coneVerifier)
	}
	cv := v.cones[sink]
	if cv == nil {
		cv = new(coneVerifier)
		v.cones[sink] = cv
	}
	v.coneMu.Unlock()
	cv.once.Do(func() { cv.init(v, sink) })
	if cv.sub == nil {
		return nil
	}
	return cv
}

func (cv *coneVerifier) init(v *Verifier, sink circuit.NetID) {
	cp := v.prep.coneFor(sink)
	if cp == nil {
		return
	}
	subOpts := v.opts
	subOpts.UseConeSlicing = false
	sub := &Verifier{c: cp.cone, opts: subOpts,
		analysis: cp.analysis, cc: cp.cc, stems: cp.stems}
	if v.opts.UseLearning {
		sub.table = cp.learnTable(v.prep)
	}
	cv.sub, cv.cm = sub, cp.cm
	cv.nPIs = len(v.c.PrimaryInputs())
}

// runCone executes the check on the sink's fan-in cone slice and
// translates the report back to original-circuit ids: the sink, the
// witness vector, and the dominator nets. Primary inputs outside the
// cone cannot affect the sink, so the expanded witness sets them to 0;
// its simulated settle time on the original circuit equals the one
// certified on the cone. The caller's tracer sees original ids
// throughout: CheckStart/CheckDone fire here against the original
// sink, and a translating wrapper renames the nets of inner events.
func (v *Verifier) runCone(ctx context.Context, req Request, cv *coneVerifier) *Report {
	outer := req.Tracer
	sub := req
	sub.Sink = cv.cm.Sink
	if outer != nil {
		outer.CheckStart(req.Sink, req.Delta)
		sub.Tracer = &coneTracer{inner: outer, fromCone: cv.cm.FromCone}
	}
	rep := cv.sub.run(ctx, sub)
	rep.Sink = req.Sink
	if len(rep.Witness) > 0 {
		w := make(sim.Vector, cv.nPIs)
		for i, val := range rep.Witness {
			w[cv.cm.PIIndex[i]] = val
		}
		rep.Witness = w
	}
	// The report owns its dominator set (evaluate copies it out of the
	// run scratch), so it is translated in place.
	for i, n := range rep.DominatorSet.Nets {
		rep.DominatorSet.Nets[i] = cv.cm.FromCone[n]
	}
	if outer != nil {
		outer.CheckDone(rep)
	}
	return rep
}

// coneTracer translates the net ids of trace events fired by a cone
// sub-verifier back into original-circuit ids, and suppresses the
// inner CheckStart/CheckDone (runCone fires them against the original
// sink, with the translated report).
type coneTracer struct {
	inner    Tracer
	fromCone []circuit.NetID
}

func (t *coneTracer) CheckStart(circuit.NetID, waveform.Time) {}
func (t *coneTracer) CheckDone(*Report)                       {}

func (t *coneTracer) StageEnter(st Stage) { t.inner.StageEnter(st) }
func (t *coneTracer) StageExit(st Stage, res Result, d time.Duration) {
	t.inner.StageExit(st, res, d)
}
func (t *coneTracer) Decision(depth int, n circuit.NetID, val int) {
	t.inner.Decision(depth, t.fromCone[n], val)
}
func (t *coneTracer) Backtrack(total int) { t.inner.Backtrack(total) }
func (t *coneTracer) StemSplit(split int, stem circuit.NetID) {
	t.inner.StemSplit(split, t.fromCone[stem])
}
func (t *coneTracer) DominatorRound(round, doms int, narrowed bool) {
	t.inner.DominatorRound(round, doms, narrowed)
}
