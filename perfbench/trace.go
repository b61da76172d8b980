package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// The traced run records spans in memory from the benchmark's own code,
// around its calls into each layer's public functions. Calls made inside
// the program (a store operation issued by cloud.ExchangeBlocks) are
// recorded where they cross into a layer the benchmark hands in (the
// store); calls the benchmark cannot see from outside (the library calls
// a request handler makes) are replayed on the same input right after the
// real call and nested under it by the path a request takes. A layer's
// self time is its span minus the part of the span its children cover.

// span is one timed call into a layer. Offsets are from the tree's epoch.
type span struct {
	layer      string
	start, end time.Duration
	parent     int // index into the tree's spans, -1 for a root
}

// spanTree is one operation's spans.
type spanTree struct {
	epoch  time.Time
	spans  []span
	cursor map[int]time.Duration // per parent: where the next nested child starts
}

func newTree() *spanTree {
	return &spanTree{epoch: time.Now(), cursor: map[int]time.Duration{}}
}

// add records a call that ran from start to end under parent.
func (t *spanTree) add(parent int, layer string, start, end time.Time) int {
	t.spans = append(t.spans, span{layer: layer, start: start.Sub(t.epoch), end: end.Sub(t.epoch), parent: parent})
	return len(t.spans) - 1
}

// nest records a replayed call of duration d under parent, placed after
// the parent's previous nested child (at the parent's start for the
// first).
func (t *spanTree) nest(parent int, layer string, d time.Duration) int {
	start, ok := t.cursor[parent]
	if !ok && parent >= 0 {
		start = t.spans[parent].start
	}
	t.cursor[parent] = start + d
	t.spans = append(t.spans, span{layer: layer, start: start, end: start + d, parent: parent})
	return len(t.spans) - 1
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals clipped to its own.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := spans[k].start, spans[k].end
			if a < s.start {
				a = s.start
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		reach = s.start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// wallShares returns, per span, the factor that turns its self time into
// its share of the operation's wall time: concurrent siblings split the
// time they overlap equally, and a span inherits its parent's factor.
// With these factors the self times of one operation add up to the wall
// time its root spans cover.
func wallShares(spans []span) []float64 {
	type event struct {
		at    time.Duration
		delta int
		span  int
	}
	groups := map[int][]event{}
	for i, s := range spans {
		groups[s.parent] = append(groups[s.parent], event{s.start, 1, i}, event{s.end, -1, i})
	}
	attributed := make([]time.Duration, len(spans))
	for _, evs := range groups {
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].at != evs[b].at {
				return evs[a].at < evs[b].at
			}
			return evs[a].delta < evs[b].delta
		})
		active := map[int]bool{}
		for k, ev := range evs {
			if k > 0 && len(active) > 0 {
				seg := (ev.at - evs[k-1].at) / time.Duration(len(active))
				for i := range active {
					attributed[i] += seg
				}
			}
			if ev.delta > 0 {
				active[ev.span] = true
			} else {
				delete(active, ev.span)
			}
		}
	}
	factor := make([]float64, len(spans))
	for i, s := range spans {
		factor[i] = 1
		if d := s.end - s.start; d > 0 {
			factor[i] = float64(attributed[i]) / float64(d)
		}
		if s.parent >= 0 {
			factor[i] *= factor[s.parent]
		}
	}
	return factor
}

// layerSelf sums one operation's self times by layer, each scaled by its
// span's wall share.
func layerSelf(t *spanTree) map[string]time.Duration {
	out := map[string]time.Duration{}
	share := wallShares(t.spans)
	for i, d := range selfTimes(t.spans) {
		out[t.spans[i].layer] += time.Duration(float64(d) * share[i])
	}
	return out
}

// layerStats collects the traced run's samples and results.
type layerStats struct {
	samples map[string][]float64 // per metric, one sample per call or operation
	self    map[string][]float64 // per layer, one self time per operation, ms
	ops     int
	values  map[string]metric // metrics computed whole
}

func newLayerStats() *layerStats {
	return &layerStats{samples: map[string][]float64{}, self: map[string][]float64{}, values: map[string]metric{}}
}

func (s *layerStats) add(name string, v float64) { s.samples[name] = append(s.samples[name], v) }

func (s *layerStats) set(name string, v float64, unit string) { s.values[name] = metric{v, unit} }

// merge adds other's samples and self times to s.
func (s *layerStats) merge(other *layerStats) {
	for k, v := range other.samples {
		s.samples[k] = append(s.samples[k], v...)
	}
	for k, v := range other.self {
		s.self[k] = append(s.self[k], v...)
	}
	s.ops += other.ops
}

// op folds one operation's span tree into the per-layer self times.
func (s *layerStats) op(t *spanTree) {
	s.ops++
	for layer, d := range layerSelf(t) {
		s.self[layer] = append(s.self[layer], ms(d))
	}
}

// perLayerMetrics lists every per-layer metric with its unit. Every traced
// run reports all of them (see probeMissing).
var perLayerMetrics = []struct{ name, unit string }{
	{"http.self_us.write", "us"},
	{"http.self_us.read", "us"},
	{"serve.self_us.write", "us"},
	{"serve.self_us.read", "us"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.work_ms", "ms"},
	{"serve.rejected", "count"},
	{"seq.cleanse_us", "us"},
	{"core.select_us", "us"},
	{"core.route_share.ctw", "share"},
	{"core.route_share.dnax", "share"},
	{"core.route_share.gencompress", "share"},
	{"core.route_share.gzip", "share"},
	{"match.index_us", "us"},
	{"match.index_alloc_kb", "KiB"},
	{"compress.gencompress.compress_us", "us"},
	{"compress.gencompress.decompress_us", "us"},
	{"compress.gencompress.alloc_b_per_base", "B/base"},
	{"compress.dnax.compress_mb_s", "Mbase/s"},
	{"compress.dnax.decompress_mb_s", "Mbase/s"},
	{"compress.dnax.alloc_b_per_base", "B/base"},
	{"compress.ctw.grid_s", "s"},
	{"compress.dnax.grid_s", "s"},
	{"compress.gencompress.grid_s", "s"},
	{"compress.gzip.grid_s", "s"},
	{"compress.frame.seal_us", "us"},
	{"compress.frame.verify_us", "us"},
	{"compress.block.seal_us", "us"},
	{"compress.block.slice_us", "us"},
	{"compress.block.compress_mb_s", "Mbase/s"},
	{"compress.block.decompress_mb_s", "Mbase/s"},
	{"cloud.fleet.put_us", "us"},
	{"cloud.fleet.get_us", "us"},
	{"cloud.fleet.attempts_per_op", "count"},
	{"cloud.exchange.self_ms", "ms"},
	{"experiment.idle_share", "share"},
	{"dtree.train_ms", "ms"},
	{"trace_overhead_pct", "%"},
	{"unexplained_ms", "ms"},
}

// finish reports every per-layer metric: medians of the collected samples,
// the whole-run values, trace overhead (traced against untraced p50) and
// the part of the untraced p50 the per-layer self-time medians leave
// unexplained.
func (s *layerStats) finish(untracedP50, tracedP50 float64) map[string]metric {
	out := map[string]metric{}
	for _, m := range perLayerMetrics {
		out[m.name] = metric{0, m.unit}
		if !s.has(m.name) && m.name != "trace_overhead_pct" && m.name != "unexplained_ms" {
			fmt.Fprintf(os.Stderr, "per-layer metric %s was not measured; reporting 0\n", m.name)
		}
	}
	for name, v := range s.samples {
		m, ok := out[name]
		if !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
		m.Value = median(v)
		out[name] = m
	}
	for name, v := range s.values {
		if _, ok := out[name]; !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
		out[name] = v
	}
	explained := 0.0
	layers := make([]string, 0, len(s.self))
	for layer := range s.self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		v := s.self[layer]
		// A layer absent from some operations counts 0 there.
		for len(v) < s.ops {
			v = append(v, 0)
		}
		med := median(v)
		explained += med
		fmt.Fprintf(os.Stderr, "self %-24s median %10.4f ms over %d ops\n", layer, med, s.ops)
	}
	out["trace_overhead_pct"] = metric{(tracedP50/untracedP50 - 1) * 100, "%"}
	out["unexplained_ms"] = metric{untracedP50 - explained, "ms"}
	return out
}

// allocated reads the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
