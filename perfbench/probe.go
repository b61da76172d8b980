package main

import (
	"fmt"
	"os"
	"sort"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/match"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/seq"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// Every traced run reports every per-layer metric. A workload's own
// operations reach only some layers; probeMissing measures the rest on
// pieces cut from the workload's own inputs, through the same traced
// paths the other workloads use: requests to a daemon (1-8 KB pieces),
// block exchanges (256 KiB pieces, dnax) and a grid build (16 KiB pieces).
// These figures describe a layer on this workload's data; the workload's
// end-to-end metrics do not depend on them.

// probeGroups lists which metrics each probe path yields.
var probeGroups = map[string][]string{
	"serve": {
		"http.self_us.write", "http.self_us.read", "serve.self_us.write", "serve.self_us.read",
		"serve.queue_wait_ms", "serve.work_ms", "serve.rejected", "seq.cleanse_us", "core.select_us",
		"compress.frame.seal_us", "compress.frame.verify_us", "compress.block.seal_us",
		"compress.block.slice_us", "compress.gencompress.compress_us", "compress.gencompress.decompress_us",
		"cloud.fleet.put_us", "cloud.fleet.get_us", "cloud.fleet.attempts_per_op", "match.index_us",
	},
	"exchange": {
		"cloud.exchange.self_ms", "compress.block.compress_mb_s", "compress.block.decompress_mb_s",
		"compress.dnax.compress_mb_s", "compress.dnax.decompress_mb_s",
	},
	"grid": {
		"experiment.idle_share", "dtree.train_ms", "compress.ctw.grid_s", "compress.dnax.grid_s",
		"compress.gencompress.grid_s", "compress.gzip.grid_s",
	},
}

// has reports whether the traced run produced metric name.
func (s *layerStats) has(name string) bool {
	_, sampled := s.samples[name]
	_, set := s.values[name]
	return sampled || set
}

// fill copies from probe every metric of names that s lacks.
func (s *layerStats) fill(probe *layerStats, names []string) {
	for _, name := range names {
		if s.has(name) {
			continue
		}
		if v, ok := probe.samples[name]; ok {
			s.samples[name] = v
		}
		if v, ok := probe.values[name]; ok {
			s.values[name] = v
		}
	}
}

// pieces cuts up to n pieces of at most maxLen bases from inputs, longest
// input first, cycling through them. Each piece gets a declared context
// and the codec sel picks for it (dnax when sel is nil); one in
// serveRangeEvery gets a range read.
func pieces(inputs [][]byte, n, maxLen int, sel func(core.Context) string) []unit {
	inputs = append([][]byte(nil), inputs...)
	sort.SliceStable(inputs, func(a, b int) bool { return len(inputs[a]) > len(inputs[b]) })
	units := make([]unit, 0, n)
	for i := 0; i < n; i++ {
		in := inputs[i%len(inputs)]
		off := (i / len(inputs)) * maxLen
		if off >= len(in) {
			off = 0
		}
		sym := in[off:min(off+maxLen, len(in))]
		ctx := declaredContexts[i%len(declaredContexts)]
		ctx.FileSizeKB = float64(len(sym)) / 1024
		u := unit{symbols: sym, body: seq.Decode(sym), rank: i, kind: i % 4, ctx: ctx, codec: "dnax"}
		if sel != nil {
			u.codec = sel(ctx)
		}
		if i%serveRangeEvery == 0 {
			u.ranged, u.off, u.n = true, len(sym)/3, max(1, min(len(sym)/3, 2048))
		}
		units = append(units, u)
	}
	return units
}

// probeMissing runs the probe paths whose metrics the traced run lacks and
// fills those metrics into stats. It returns the probe operations
// attempted and failed; the error is for a set-up that could not be
// built.
func probeMissing(cfg config, inputs [][]byte, stats *layerStats) (attempted, failed int, err error) {
	missing := func(group string) bool {
		for _, name := range probeGroups[group] {
			if !stats.has(name) {
				return true
			}
		}
		return false
	}
	if missing("serve") {
		e, err := setupServe(cfg, 0)
		if err != nil {
			return attempted, failed, err
		}
		replay, err := newFleet(cfg.seed, obs.NewRegistry())
		if err == nil {
			err = replay.CreateContainer(replayContainer)
		}
		if err != nil {
			e.close()
			return attempted, failed, err
		}
		e.units = pieces(inputs, 32, 8<<10, e.eng.SelectCodec)
		probe := newLayerStats()
		t := &serveTracer{e: e, replay: replay, stats: probe}
		c := &serveCaller{}
		ops0 := fleetShardOps(replay)
		for i := range e.units {
			t.unit(c, &e.units[i], i)
		}
		probe.set("cloud.fleet.attempts_per_op", float64(fleetShardOps(replay)-ops0)/float64(t.fleetOps), "count")
		probe.recorderStats(e.srv, 0)
		e.close()
		attempted, failed = c.attempted, c.failed
		if c.firstErr != "" {
			fmt.Fprintf(os.Stderr, "serve probe: %d failed, first: %s\n", c.failed, c.firstErr)
		}
		stats.fill(probe, probeGroups["serve"])
	}
	if missing("exchange") {
		fleet, err := newFleet(cfg.seed, obs.NewRegistry())
		if err != nil {
			return attempted, failed, err
		}
		e := &exchangeEnv{cfg: cfg, fleet: fleet, units: pieces(inputs, 4, 256<<10, nil)}
		probe := newLayerStats()
		for k := range e.units {
			attempted++
			if _, _, err := e.tracedExchange(k, probe); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "exchange probe %d: %v\n", k, err)
			}
		}
		stats.fill(probe, probeGroups["exchange"])
	}
	if missing("grid") {
		units := pieces(inputs, 16, 16<<10, nil)
		e := &gridEnv{cfg: cfg, contexts: cloud.Grid()}
		for i, u := range units {
			e.files = append(e.files, synth.File{Name: fmt.Sprintf("probe%02d", i), Data: u.symbols})
		}
		probe := newLayerStats()
		attempted++
		if _, err := e.tracedBuild(probe); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "grid probe: %v\n", err)
		}
		stats.fill(probe, probeGroups["grid"])
	}
	return attempted, failed, nil
}

// allocProbes measures, alone in the process, the heap bytes one matcher
// index build allocates and the bytes per base the gencompress and dnax
// encoders allocate, over units (every traced run passes 8 pieces of at
// most 64 KiB of its inputs).
func allocProbes(units []unit, stats *layerStats) {
	var idx uint64
	perBase := map[string][2]uint64{} // codec: allocated bytes, bases
	for i := range units {
		u := &units[i]
		a0 := allocated()
		match.NewHashMatcher(u.symbols)
		idx += allocated() - a0
		for _, codec := range []string{"gencompress", "dnax"} {
			c, err := compress.New(codec)
			if err != nil {
				continue
			}
			a0 = allocated()
			c.Compress(u.symbols)
			v := perBase[codec]
			perBase[codec] = [2]uint64{v[0] + allocated() - a0, v[1] + uint64(len(u.symbols))}
		}
	}
	stats.set("match.index_alloc_kb", float64(idx)/float64(len(units))/1024, "KiB")
	for codec, v := range perBase {
		stats.set("compress."+codec+".alloc_b_per_base", float64(v[0])/float64(v[1]), "B/base")
	}
}
