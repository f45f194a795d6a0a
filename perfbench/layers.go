package main

import (
	"context"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/internal/waveform"
)

// replayCircuit is one workload input replayed in-process through the
// public function of each layer.
type replayCircuit struct {
	name   string
	c      *circuit.Circuit
	bench  string // netlist text in .bench form
	sinks  []circuit.NetID
	deltas []waveform.Time // ascending
}

// replayLayers times parse, hash, prepare, cone extraction, cold and warm
// checks and witness replay on the circuits, each call under a span on
// lanes from lane up, and reports the per-call means. core.warm_reuse
// compares propagations over the δ schedule with and without warm start.
func replayLayers(m map[string]float64, rec *spanRecorder, rcs []replayCircuit, lane int) {
	var parse, vparse, hash, prep, cone, cold, warm, replay time.Duration
	var cones, colds, warms, witnesses int
	var warmProps, coldProps int64
	scratch := &engineAgg{}
	timed := func(name string, lane, parent int, f func()) time.Duration {
		t0 := time.Now()
		f()
		t1 := time.Now()
		rec.add(name, lane, parent, t0, t1)
		return t1.Sub(t0)
	}
	for i, rc := range rcs {
		ln := lane + i
		rec.nameLane(ln, "replay "+rc.name)
		root := rec.open("replay.circuit", ln, 0)
		parse += timed("circuit.parse", ln, root, func() {
			_, _ = circuit.ParseBenchString(rc.bench, circuit.BenchOptions{DefaultDelay: 10})
		})
		vtext := verilog.String(rc.c)
		vparse += timed("verilog.parse", ln, root, func() {
			_, _ = verilog.ParseString(vtext, verilog.Options{DefaultDelay: 10})
		})
		hash += timed("registry.hash", ln, root, func() {
			_, _, _ = registry.HashUpload(&api.UploadRequest{Netlist: rc.bench})
		})
		var p *core.Prepared
		prep += timed("core.prepare", ln, root, func() { p = core.Prepare(rc.c) })
		for _, s := range rc.sinks {
			cone += timed("circuit.cone", ln, root, func() { _, _, _ = circuit.ExtractConeMapped(rc.c, s) })
			cones++
		}

		// Cold pass (first call per sink builds its cone, no memo), then
		// the same schedule again warm, on one warm-starting verifier.
		v := p.NewVerifier(core.Default())
		tr := &spanTracer{rec: rec, lane: ln, parent: root, agg: scratch}
		for pass := 0; pass < 2; pass++ {
			for _, s := range rc.sinks {
				for _, d := range rc.deltas {
					t0 := time.Now()
					rep := v.Run(context.Background(), core.Request{Sink: s, Delta: d, Tracer: tr})
					el := time.Since(t0)
					if pass == 0 {
						cold += el
						colds++
						warmProps += rep.Propagations
						if rep.Final == core.ViolationFound {
							replay += timed("sim.replay", ln, root, func() { _, _ = sim.Run(rc.c, rep.Witness) })
							witnesses++
						}
					} else {
						warm += el
						warms++
					}
				}
			}
		}
		opts := core.Default()
		opts.UseWarmStart = false
		nv := p.NewVerifier(opts)
		for _, s := range rc.sinks {
			for _, d := range rc.deltas {
				coldProps += nv.Run(context.Background(), core.Request{Sink: s, Delta: d}).Propagations
			}
		}
		rec.close(root)
	}
	n := float64(max(len(rcs), 1))
	m["circuit.parse_us"] = us(parse) / n
	m["verilog.parse_us"] = us(vparse) / n
	m["registry.hash_us"] = us(hash) / n
	m["core.prepare_ms"] = ms(prep) / n
	m["circuit.cone_us"] = us(cone) / float64(max(cones, 1))
	m["core.cold_check_us"] = us(cold) / float64(max(colds, 1))
	m["core.warm_check_us"] = us(warm) / float64(max(warms, 1))
	if coldProps > 0 {
		m["core.warm_reuse"] = 1 - float64(warmProps)/float64(coldProps)
	} else {
		m["core.warm_reuse"] = 0
	}
	if _, ok := m["sim.replay_us"]; !ok {
		m["sim.replay_us"] = us(replay) / float64(max(witnesses, 1))
	}
}

// zeroUnset sets every per-layer metric with one of the prefixes that the
// run did not measure to 0: the workload does not exercise that layer.
func zeroUnset(m map[string]float64, prefixes ...string) {
	for _, lm := range layerMetrics {
		if _, ok := m[lm.Name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(lm.Name, p) {
				m[lm.Name] = 0
			}
		}
	}
}
