// Package dom implements the global timing implications of Section 4
// of the paper: static carriers and static timing dominators
// (Definitions 4–6, Lemma 3) and dynamic carriers, dynamic distances
// and dynamic timing dominators (Definitions 7–9, Theorem 3,
// Corollary 1). Dominators are the nets lying on every
// sufficiently-long path to the checked output; their domains can be
// narrowed to waveforms that still transition late enough, which is the
// paper's main weapon against the pessimism of local narrowing.
package dom

import (
	"slices"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/delay"
	"repro/internal/waveform"
)

// Dominators lists the timing dominators of a check in order from the
// checked output towards the inputs, with the distance bound used for
// Corollary-1 narrowing: waveforms on Nets[i] stable at and after
// (δ − Dist[i]) are σ-incompatible.
type Dominators struct {
	Nets []circuit.NetID
	Dist []waveform.Time
}

// Scratch is the reusable working storage of the dynamic carrier and
// dominator computation: the carrier mask and dynamic distances, the
// Ψ′ vertex order, position and idom arrays, and the result. Every
// call overwrites all of it, so Mask, Dist and a returned Dominators
// are valid only until the next call on the same Scratch; a caller
// that keeps a dominator set copies it (Dominators.Clone). A Scratch
// must not be used by two goroutines at once. The zero value is ready
// to use and grows to the largest circuit it has seen.
type Scratch struct {
	// Mask and Dist are the dynamic carriers and dynamic distances of
	// the last Carriers or Dynamic call, indexed by net. Read-only:
	// the next call clears only the entries it set.
	Mask []bool
	Dist []waveform.Time

	c      *circuit.Circuit // circuit of the last Carriers call
	verts  []circuit.NetID  // Ψ′ vertices: carriers in NetsByLevel order
	ord    []int32          // net → position in verts (valid on carriers)
	idom   []int            // position → idom position; T at len(verts)
	tPreds []int
	nets   []circuit.NetID // result
	dist   []waveform.Time // result
}

// dominatorsOfT computes the dominators of the terminal vertex T in the
// carrier DAG Ψ′ (Definition 6): vertices are the carrier nets plus T,
// edges run from each gate output to its carrier inputs, and every
// carrier with no carrier predecessor (primary inputs of Ψ) feeds T.
// The result is the idom chain of T excluding T itself, i.e. the nets
// on every path from the source (the checked output) to T, ordered from
// the source down, written to s.nets. s.verts must list the carriers in
// NetsByLevel order: decreasing circuit level puts the sink first and
// every edge y→x forward, a topological order of Ψ′.
func (s *Scratch) dominatorsOfT(c *circuit.Circuit, carrier []bool, sink circuit.NetID) {
	s.nets = s.nets[:0]
	if !carrier[sink] {
		return
	}
	verts := s.verts
	if verts[0] != sink {
		// The sink must be the unique source of Ψ′; carriers outside
		// its fan-in cone would violate the construction.
		return
	}
	const tVertex = -1 // ord position of T is len(verts); idom index -1 = unset
	s.ord = slices.Grow(s.ord[:0], len(carrier))[:len(carrier)]
	ord := s.ord
	for i, v := range verts {
		ord[v] = int32(i)
	}
	nT := len(verts) // T's position
	s.idom = slices.Grow(s.idom[:0], len(verts)+1)[:len(verts)+1]
	idom := s.idom
	for i := range idom {
		idom[i] = tVertex
	}
	idom[0] = 0 // source's idom is itself

	intersect := func(a, b int) int {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}

	// Predecessors in Ψ′ of a carrier net x: the carrier outputs of the
	// gates x feeds. Predecessors of T: carriers with no carrier
	// gate-input (primary inputs of Ψ and conservative dead ends).
	for i := 1; i < len(verts); i++ {
		x := verts[i]
		best := tVertex
		for _, g := range c.Net(x).Fanout {
			y := c.Gate(g).Output
			if !carrier[y] {
				continue
			}
			p := int(ord[y])
			if idom[p] == tVertex && p != 0 {
				continue // unreachable from the source; skip
			}
			if best == tVertex {
				best = p
			} else {
				best = intersect(best, p)
			}
		}
		idom[i] = best
	}
	tPreds := s.tPreds[:0]
	for i, x := range verts {
		hasCarrierInput := false
		if d := c.Net(x).Driver; d != circuit.InvalidGate {
			for _, in := range c.Gate(d).Inputs {
				if carrier[in] {
					hasCarrierInput = true
					break
				}
			}
		}
		if !hasCarrierInput {
			if i == 0 || idom[i] != tVertex {
				tPreds = append(tPreds, i)
			}
		}
	}
	s.tPreds = tPreds
	if len(tPreds) == 0 {
		return
	}
	best := tPreds[0]
	for _, p := range tPreds[1:] {
		best = intersect(best, p)
	}
	idom[nT] = best

	// Walk T's idom chain up to the source, then reverse it to
	// source-first order.
	doms := s.nets
	for v := idom[nT]; ; v = idom[v] {
		doms = append(doms, verts[v])
		if v == 0 {
			break
		}
	}
	slices.Reverse(doms)
	s.nets = doms
}

// result pairs the dominators of the last dominatorsOfT call with
// their distance bounds, read from the per-net vector dist.
func (s *Scratch) result(dist []waveform.Time) Dominators {
	s.dist = s.dist[:0]
	for _, n := range s.nets {
		s.dist = append(s.dist, dist[n])
	}
	return Dominators{Nets: s.nets, Dist: s.dist}
}

// Static computes the static timing dominators of the check
// (c, sink, δ) with the Lemma-3 distance bound top_{d→s}.
func Static(c *circuit.Circuit, a *delay.Analysis, sink circuit.NetID, delta waveform.Time) Dominators {
	carrier := delay.StaticCarrierMask(c, a, sink, delta)
	var s Scratch
	for _, n := range c.NetsByLevel() {
		if carrier[n] {
			s.verts = append(s.verts, n)
		}
	}
	s.dominatorsOfT(c, carrier, sink)
	return s.result(delay.ToNet(c, sink))
}

// StaticCarriers exposes the static carrier mask (Definition 4) for
// reports and tests.
func StaticCarriers(c *circuit.Circuit, a *delay.Analysis, sink circuit.NetID, delta waveform.Time) []bool {
	return delay.StaticCarrierMask(c, a, sink, delta)
}

// Carriers computes the dynamic carriers of the check and their
// dynamic distances from the current domains of the constraint system
// (Definitions 7–8) into s.Mask and s.Dist: a net qualifies through
// gate g feeding carrier y at distance k when its domain still
// contains waveforms with a transition at or after δ − (k + d_max(g));
// its dynamic distance is the largest such k′.
//
// Nets are visited in NetsByLevel order. Every gate a net feeds drives
// a deeper net, so a net's distance is final when it is reached and
// its driver can propagate it; the carriers are collected in the same
// pass, already in the vertex order dominatorsOfT needs.
func (s *Scratch) Carriers(sys *constraint.System, sink circuit.NetID, delta waveform.Time) {
	c := sys.Circuit()
	if c != s.c {
		s.c = c
		s.Mask = slices.Grow(s.Mask[:0], c.NumNets())[:c.NumNets()]
		s.Dist = slices.Grow(s.Dist[:0], c.NumNets())[:c.NumNets()]
		clear(s.Mask)
		for i := range s.Dist {
			s.Dist[i] = waveform.NegInf
		}
	} else {
		// Only the last call's carriers were set.
		for _, n := range s.verts {
			s.Mask[n] = false
			s.Dist[n] = waveform.NegInf
		}
	}
	mask, dist := s.Mask, s.Dist
	verts := s.verts[:0]
	if !sys.Domain(sink).IsEmpty() {
		mask[sink] = true
		dist[sink] = 0
		for _, y := range c.NetsByLevel() {
			if !mask[y] {
				continue
			}
			verts = append(verts, y)
			drv := c.Net(y).Driver
			if drv == circuit.InvalidGate {
				continue
			}
			g := c.Gate(drv)
			kp := dist[y].Add(waveform.Time(g.Delay))
			for _, x := range g.Inputs {
				if dist[x] >= kp {
					continue
				}
				if sys.Domain(x).HasTransitionAtOrAfter(delta.Sub(kp)) {
					mask[x] = true
					dist[x] = kp
				}
			}
		}
	}
	s.verts = verts
}

// Dynamic computes the dynamic carriers (left in s.Mask and s.Dist)
// and the dynamic timing dominators of the check under the system's
// current domains, with the Theorem-3 distance bound (the dynamic
// distance). The result aliases s; see Scratch.
func (s *Scratch) Dynamic(sys *constraint.System, sink circuit.NetID, delta waveform.Time) Dominators {
	s.Carriers(sys, sink, delta)
	s.dominatorsOfT(sys.Circuit(), s.Mask, sink)
	return s.result(s.Dist)
}

// Dynamic is Scratch.Dynamic on a fresh scratch, for one-off callers.
func Dynamic(sys *constraint.System, sink circuit.NetID, delta waveform.Time) Dominators {
	return new(Scratch).Dynamic(sys, sink, delta)
}

// Clone returns a copy of d that shares no storage with it; an empty
// set clones to the zero Dominators.
func (d Dominators) Clone() Dominators {
	if len(d.Nets) == 0 {
		return Dominators{}
	}
	return Dominators{Nets: slices.Clone(d.Nets), Dist: slices.Clone(d.Dist)}
}

// NarrowDominators applies Corollary 1: for every dominator d at
// distance k, intersect its domain with waveforms transitioning at or
// after δ − k. It reports whether any domain changed (callers then
// resume the fixpoint).
func NarrowDominators(sys *constraint.System, doms Dominators, delta waveform.Time) bool {
	changed := false
	for i, n := range doms.Nets {
		cut := delta.Sub(doms.Dist[i])
		if sys.Narrow(n, waveform.CheckOutput(cut)) {
			changed = true
		}
	}
	return changed
}
