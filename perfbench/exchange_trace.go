package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/match"
)

// spanStore records every store call a traced exchange makes as a
// cloud.fleet span under the exchange's span. The exchange's transfer
// pool calls it from several goroutines at once.
type spanStore struct {
	cloud.Store
	mu          sync.Mutex
	tree        *spanTree
	parent      int
	puts, gets  []float64 // us
	ops         int
	firstDelete time.Time
}

func (s *spanStore) record(op string, t0 time.Time) {
	t1 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tree.add(s.parent, "cloud.fleet", t0, t1)
	s.ops++
	switch op {
	case "put":
		s.puts = append(s.puts, us(t1.Sub(t0)))
	case "get":
		s.gets = append(s.gets, us(t1.Sub(t0)))
	case "delete":
		if s.firstDelete.IsZero() || t0.Before(s.firstDelete) {
			s.firstDelete = t0
		}
	}
}

func (s *spanStore) Put(container, blob string, data []byte) error {
	defer s.record("put", time.Now())
	return s.Store.Put(container, blob, data)
}

func (s *spanStore) Get(container, blob string) ([]byte, error) {
	defer s.record("get", time.Now())
	return s.Store.Get(container, blob)
}

func (s *spanStore) Delete(container, blob string) error {
	defer s.record("delete", time.Now())
	return s.Store.Delete(container, blob)
}

func (s *spanStore) CreateContainer(name string) error {
	defer s.record("create", time.Now())
	return s.Store.CreateContainer(name)
}

// tracedExchange runs one exchange with its store calls recorded, then
// replays the block seal and block decode it made on the same input and
// places them where they ran: the seal before the first upload, the
// decode just before the first clean-up delete. The per-block codec and
// index-build figures come from a one-goroutine pass over the blocks.
func (e *exchangeEnv) tracedExchange(k int, stats *layerStats) (time.Duration, int, error) {
	u := &e.units[k]
	tr := newTree()
	st := &spanStore{Store: e.fleet, tree: tr}
	t0 := time.Now()
	root := tr.add(-1, "cloud.exchange", t0, t0)
	st.parent = root
	_, err := e.exchange(context.Background(), st, k)
	took := time.Since(t0)
	tr.spans[root].end = tr.spans[root].start + took
	if err != nil {
		return took, 0, err
	}
	bases := float64(len(u.symbols))

	opts := compress.BlockOptions{BlockSize: exchangeBlockSize, Jobs: e.cfg.jobs}
	var container []byte
	dSeal := timed(func() { container, _, err = compress.BlockCompress(u.codec, u.symbols, opts) })
	if err != nil {
		return took, 0, fmt.Errorf("replay block seal: %w", err)
	}
	dDec := timed(func() { _, _, err = compress.SafeDecompressAny(u.codec, container, compress.Limits{}) })
	if err != nil {
		return took, 0, fmt.Errorf("replay block decode: %w", err)
	}
	tr.nest(root, "compress.block", dSeal)
	tr.add(root, "compress.block", st.firstDelete.Add(-dDec), st.firstDelete)
	stats.add("compress.block.compress_mb_s", bases/1e6/dSeal.Seconds())
	stats.add("compress.block.decompress_mb_s", bases/1e6/dDec.Seconds())

	c, err := compress.New(u.codec)
	if err != nil {
		return took, 0, err
	}
	var dComp, dDecomp time.Duration
	for off := 0; off < len(u.symbols); off += exchangeBlockSize {
		block := u.symbols[off:min(off+exchangeBlockSize, len(u.symbols))]
		var payload []byte
		dComp += timed(func() { payload, _, err = c.Compress(block) })
		if err != nil {
			return took, 0, fmt.Errorf("replay %s block: %w", u.codec, err)
		}
		dDecomp += timed(func() { c.Decompress(payload) })
		stats.add("match.index_us", us(timed(func() { match.NewHashMatcher(block) })))
	}
	if u.codec == "dnax" {
		stats.add("compress.dnax.compress_mb_s", bases/1e6/dComp.Seconds())
		stats.add("compress.dnax.decompress_mb_s", bases/1e6/dDecomp.Seconds())
	}

	stats.op(tr)
	stats.add("cloud.exchange.self_ms", ms(selfTimes(tr.spans)[root]))
	for _, v := range st.puts {
		stats.add("cloud.fleet.put_us", v)
	}
	for _, v := range st.gets {
		stats.add("cloud.fleet.get_us", v)
	}
	return took, st.ops, nil
}

// traceExchange is exchange-bulk's traced run: a third of the time
// untraced, a third traced, then allocation probes and the probes of the
// layers the workload does not reach, on the plan's sequences.
func traceExchange(cfg config) (result, error) {
	e, err := setupExchange(cfg)
	if err != nil {
		return result{}, err
	}
	base, _ := e.loop(cfg.seconds / 3)

	stats := newLayerStats()
	var traced phase
	ops0, storeOps := fleetShardOps(e.fleet), 0
	deadline := time.Now().Add(cfg.seconds / 3)
	for i := 0; time.Now().Before(deadline); i++ {
		traced.attempted++
		took, ops, err := e.tracedExchange(i%len(e.units), stats)
		if err != nil {
			traced.failed++
			fmt.Fprintf(os.Stderr, "traced exchange %d: %v\n", i, err)
			continue
		}
		traced.all = append(traced.all, ms(took))
		storeOps += ops
	}
	stats.set("cloud.fleet.attempts_per_op", float64(fleetShardOps(e.fleet)-ops0)/float64(storeOps), "count")
	for codec, share := range routeShares(e.units) {
		stats.set("core.route_share."+codec, share, "share")
	}

	inputs := symbolsOf(e.units)
	allocProbes(pieces(inputs, 8, 64<<10, nil), stats)
	attempted, failed, err := probeMissing(cfg, inputs, stats)
	if err != nil {
		return result{}, err
	}

	all := base
	all.attempted += traced.attempted + attempted
	all.failed += traced.failed + failed
	return verdict(all, stats.finish(median(base.all), median(traced.all))), nil
}
