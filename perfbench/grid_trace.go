package main

import (
	"context"
	"fmt"
	"time"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/dtree"
	"github.com/srl-nuces/ctxdna/internal/experiment"
	"github.com/srl-nuces/ctxdna/internal/match"
	"github.com/srl-nuces/ctxdna/internal/obs"
)

// tracedBuild runs one build with the grid, split and induction calls as
// spans, then replays every (file, codec) cell serially with
// compress.CompressObserved, as the pool's tasks do, and places the cell
// times in cfg.jobs lanes under the grid span the way the pool spreads
// them. Pool time no lane covers is the experiment layer's self time.
func (e *gridEnv) tracedBuild(stats *layerStats) (time.Duration, error) {
	tr := newTree()
	t0 := time.Now()
	g, err := experiment.RunParallel(context.Background(), e.files, e.contexts, gridCodecs, experiment.DefaultNoise(), e.cfg.jobs)
	t1 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("grid: %w", err)
	}
	gridID := tr.add(-1, "experiment", t0, t1)
	train, test := g.Split()
	t2 := time.Now()
	tree, _, err := experiment.TrainEval(train, test, "cart", core.TimeOnlyWeights(), dtree.Config{})
	t3 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("induction: %w", err)
	}
	if err := e.check(g, tree); err != nil {
		return 0, err
	}
	// The model routes as the grid labels: each codec's share of the
	// time-only labels is the share of contexts it will be picked for.
	labels := g.LabelCounts(core.TimeOnlyWeights())
	total := 0
	for _, n := range labels {
		total += n
	}
	for _, codec := range gridCodecs {
		stats.set("core.route_share."+codec, float64(labels[codec])/float64(total), "share")
	}
	tr.add(-1, "experiment", t1, t2)
	tr.add(-1, "dtree", t2, t3)
	stats.add("dtree.train_ms", ms(t3.Sub(t2)))

	lanes := make([]time.Time, e.cfg.jobs)
	for i := range lanes {
		lanes[i] = t0
	}
	perCodec := map[string]time.Duration{}
	var tasks time.Duration
	reg := obs.NewRegistry()
	for _, f := range e.files {
		for _, codec := range gridCodecs {
			d := timed(func() { _, err = compress.CompressObserved(reg, nil, codec, f.Data) })
			if err != nil {
				return 0, fmt.Errorf("replay %s on %s: %w", codec, f.Name, err)
			}
			perCodec[codec] += d
			tasks += d
			next := 0
			for i := range lanes {
				if lanes[i].Before(lanes[next]) {
					next = i
				}
			}
			tr.add(gridID, "compress."+codec, lanes[next], lanes[next].Add(d))
			lanes[next] = lanes[next].Add(d)
		}
	}
	for codec, d := range perCodec {
		stats.set("compress."+codec+".grid_s", d.Seconds(), "s")
	}
	stats.set("experiment.idle_share", 1-tasks.Seconds()/(float64(e.cfg.jobs)*t1.Sub(t0).Seconds()), "share")
	stats.op(tr)
	return t3.Sub(t0), nil
}

// traceGrid is grid-train's traced run: untraced builds for a quarter of
// the time (at least one), one traced build with its serial cell replay,
// then gencompress's encode/decode split and index builds per corpus file,
// allocation probes, and the probes of the layers the workload does not
// reach.
func traceGrid(cfg config) (result, error) {
	e, err := setupGrid(cfg)
	if err != nil {
		return result{}, err
	}
	base, _ := e.loop(cfg.seconds / 4)
	stats := newLayerStats()
	traced := phase{attempted: 1}
	took, err := e.tracedBuild(stats)
	if err != nil {
		return result{}, err
	}
	traced.all = append(traced.all, ms(took))

	c, err := compress.New("gencompress")
	if err != nil {
		return result{}, err
	}
	inputs := make([][]byte, len(e.files))
	for i, f := range e.files {
		inputs[i] = f.Data
		var payload []byte
		d := timed(func() { payload, _, err = c.Compress(f.Data) })
		if err != nil {
			return result{}, fmt.Errorf("gencompress %s: %w", f.Name, err)
		}
		stats.add("compress.gencompress.compress_us", us(d))
		stats.add("compress.gencompress.decompress_us", us(timed(func() { c.Decompress(payload) })))
		stats.add("match.index_us", us(timed(func() { match.NewHashMatcher(f.Data) })))
	}
	allocProbes(pieces(inputs, 8, 64<<10, nil), stats)
	attempted, failed, err := probeMissing(cfg, inputs, stats)
	if err != nil {
		return result{}, err
	}

	all := base
	all.attempted += traced.attempted + attempted
	all.failed += failed
	return verdict(all, stats.finish(median(base.all), median(traced.all))), nil
}
