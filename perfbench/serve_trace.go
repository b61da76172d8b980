package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/match"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/serve"
)

// traceRecorderSize keeps every request of a traced serve-small run in the
// daemon's flight recorder, which is where queue wait and work time are
// read from.
const traceRecorderSize = 1 << 15

// selectBatch is how many SelectCodec calls one core.select_us sample
// averages: a single call is well under a microsecond.
const selectBatch = 64

// serveTracer replays, for one traced caller, every request's library
// calls on a fleet of the benchmark's own (so the daemon's store is left
// as the requests made it).
type serveTracer struct {
	e        *serveEnv
	replay   *cloud.Fleet
	stats    *layerStats
	fleetOps int
	tree     *spanTree
}

const replayContainer = "replay"

// replayOrigin is the X-Dnacomp-Origin the in-process replays carry; the
// daemon records such requests with this origin instead of "organic".
const replayOrigin = "loadgen"

// request sends one request over loopback and the same request straight to
// the in-process handler, and nests the two: http is the loopback call,
// serve the in-process one under it. The in-process replay is tagged with
// replayOrigin so the flight-recorder figures can leave it out.
func (t *serveTracer) request(c *serveCaller, method, path string, body []byte) (status int, codec string, out []byte, serveID int, err error) {
	status, codec, out, d, err := t.e.request(method, path, body)
	if err != nil || status != http.StatusOK {
		return status, codec, out, -1, err
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("X-Dnacomp-Origin", replayOrigin)
	rec := httptest.NewRecorder()
	dIn := timed(func() { t.e.handler.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), out) {
		c.attempted++
		c.fail("%s %s in-process: HTTP %d, %d bytes, loopback gave %d bytes", method, path, rec.Code, rec.Body.Len(), len(out))
	}
	httpID := t.tree.nest(-1, "http", d)
	return status, codec, out, t.tree.nest(httpID, "serve", dIn), nil
}

// selfSample records the http and serve self times of the request whose
// serve span is serveID.
func (t *serveTracer) selfSample(serveID int, kind string) {
	self := selfTimes(t.tree.spans)
	t.stats.add("http.self_us."+kind, us(self[t.tree.spans[serveID].parent]))
	t.stats.add("serve.self_us."+kind, us(self[serveID]))
}

// route replays the work every /compress request does before its codec
// runs: cleansing the body and asking the model for a codec.
func (t *serveTracer) route(serveID int, u *unit) {
	d := timed(func() { serve.Cleanse(u.body) })
	t.tree.nest(serveID, "seq", d)
	t.stats.add("seq.cleanse_us", us(d))
	d = timed(func() {
		for i := 0; i < selectBatch; i++ {
			t.e.eng.SelectCodec(u.ctx)
		}
	}) / selectBatch
	t.tree.nest(serveID, "core", d)
	t.stats.add("core.select_us", us(d))
}

// unit is doUnit with every request traced. It returns the summed
// loopback latency of the unit's requests.
func (t *serveTracer) unit(c *serveCaller, u *unit, slot int) time.Duration {
	t.tree = newTree()
	defer t.stats.op(t.tree)
	codecImpl, err := compress.New(u.codec)
	if err != nil {
		c.attempted++
		c.fail("codec %s: %v", u.codec, err)
		return 0
	}

	// POST /compress: cleanse, route, codec (index build under it), seal.
	status, codec, frame, sid, err := t.request(c, http.MethodPost, compressPath(u), u.body)
	if !c.check(u, "compress", status, codec, err, true) {
		return 0
	}
	t.route(sid, u)
	var payload []byte
	d := timed(func() { payload, _, err = codecImpl.Compress(u.symbols) })
	cid := t.tree.nest(sid, "compress."+u.codec, d)
	if u.codec == "gencompress" {
		t.stats.add("compress.gencompress.compress_us", us(d))
	}
	d = timed(func() { match.NewHashMatcher(u.symbols) })
	t.tree.nest(cid, "match", d)
	t.stats.add("match.index_us", us(d))
	d = timed(func() { compress.Seal(u.codec, u.symbols, payload) })
	t.tree.nest(sid, "compress.frame", d)
	t.stats.add("compress.frame.seal_us", us(d))
	t.selfSample(sid, "write")

	// POST /decompress: frame verification around the codec's decode.
	status, _, restored, sid, err := t.request(c, http.MethodPost, "/decompress", frame)
	if c.check(u, "decompress", status, "", err, false) {
		if !bytes.Equal(restored, u.body) {
			c.fail("decompress: %d bases restored, want %d", len(restored), len(u.body))
		}
		dSafe := timed(func() { compress.SafeDecompress(u.codec, frame, compress.Limits{}) })
		dDec := timed(func() { codecImpl.Decompress(payload) })
		fid := t.tree.nest(sid, "compress.frame", dSafe)
		t.tree.nest(fid, "compress."+u.codec, dDec)
		t.stats.add("compress.frame.verify_us", us(dSafe-dDec))
		if u.codec == "gencompress" {
			t.stats.add("compress.gencompress.decompress_us", us(dDec))
		}
		t.selfSample(sid, "read")
	}
	if !u.ranged {
		return t.loopback()
	}

	// POST /compress?block_size&name: route, block seal, fleet put.
	name := "n" + strconv.Itoa(slot)
	status, codec, container, sid, err := t.request(c, http.MethodPost,
		fmt.Sprintf("%s&block_size=%d&name=%s", compressPath(u), serveBlockSize, name), u.body)
	if !c.check(u, "compress block", status, codec, err, true) {
		return t.loopback()
	}
	t.route(sid, u)
	d = timed(func() { compress.BlockCompress(u.codec, u.symbols, compress.BlockOptions{BlockSize: serveBlockSize}) })
	t.tree.nest(sid, "compress.block", d)
	t.stats.add("compress.block.seal_us", us(d))
	d = timed(func() { err = t.replay.Put(replayContainer, name, container) })
	t.fleetOps++
	if err != nil {
		c.fail("replay put: %v", err)
	}
	t.tree.nest(sid, "cloud.fleet", d)
	t.stats.add("cloud.fleet.put_us", us(d))
	t.selfSample(sid, "write")

	// GET /decompress?name&off&len: fleet get, block open and slice.
	status, _, window, sid, err := t.request(c, http.MethodGet,
		fmt.Sprintf("/decompress?name=%s&off=%d&len=%d", name, u.off, u.n), nil)
	if !c.check(u, "range", status, "", err, false) {
		return t.loopback()
	}
	if !bytes.Equal(window, u.body[u.off:u.off+u.n]) {
		c.fail("range [%d,+%d): wrong bases", u.off, u.n)
	}
	d = timed(func() { _, err = t.replay.Get(replayContainer, name) })
	t.fleetOps++
	if err != nil {
		c.fail("replay get: %v", err)
	}
	t.tree.nest(sid, "cloud.fleet", d)
	t.stats.add("cloud.fleet.get_us", us(d))
	d = timed(func() {
		if r, err := compress.OpenBlocks(container, compress.Limits{}); err == nil {
			r.Slice(u.off, u.n)
		}
	})
	t.tree.nest(sid, "compress.block", d)
	t.stats.add("compress.block.slice_us", us(d))
	t.selfSample(sid, "read")
	return t.loopback()
}

// loopback sums the unit's http spans: the latency its caller saw.
func (t *serveTracer) loopback() time.Duration {
	var total time.Duration
	for _, s := range t.tree.spans {
		if s.layer == "http" {
			total += s.end - s.start
		}
	}
	return total
}

// tracedLoop is loop with every unit traced; it returns the traced unit
// latencies.
func (e *serveEnv) tracedLoop(d time.Duration, replay *cloud.Fleet) (phase, []*serveTracer) {
	callers := make([]*serveCaller, e.cfg.jobs)
	tracers := make([]*serveTracer, e.cfg.jobs)
	slots := serveNames / e.cfg.jobs
	var next atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := range callers {
		c := &serveCaller{id: i}
		t := &serveTracer{e: e, replay: replay, stats: newLayerStats()}
		callers[i], tracers[i] = c, t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				u := &e.units[int(next.Add(1)-1)%len(e.units)]
				slot := c.id*slots + c.ranged%slots
				if u.ranged {
					c.ranged++
				}
				c.unitMS = append(c.unitMS, ms(t.unit(c, u, slot)))
			}
		}()
	}
	wg.Wait()
	var p phase
	for _, c := range callers {
		p.all = append(p.all, c.unitMS...)
		p.attempted += c.attempted
		p.failed += c.failed
		if c.firstErr != "" {
			fmt.Fprintf(os.Stderr, "traced caller %d: %d failed, first: %s\n", c.id, c.failed, c.firstErr)
		}
	}
	return p, tracers
}

// traceServe is serve-small's traced run: a third of the time untraced,
// a third traced, then allocation probes and the probes of the layers the
// workload does not reach, on the plan's inputs.
func traceServe(cfg config) (result, error) {
	e, err := setupServe(cfg, traceRecorderSize)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	replay, err := newFleet(cfg.seed, obs.NewRegistry())
	if err != nil {
		return result{}, err
	}
	if err := replay.CreateContainer(replayContainer); err != nil {
		return result{}, err
	}
	base, _ := e.loop(cfg.seconds / 3)
	seq0 := e.srv.Recorder().Total()
	ops0 := fleetShardOps(replay)
	traced, tracers := e.tracedLoop(cfg.seconds/3, replay)

	stats := newLayerStats()
	fleetOps := 0
	for _, t := range tracers {
		stats.merge(t.stats)
		fleetOps += t.fleetOps
	}
	stats.set("cloud.fleet.attempts_per_op", float64(fleetShardOps(replay)-ops0)/float64(fleetOps), "count")
	for codec, share := range routeShares(e.units) {
		stats.set("core.route_share."+codec, share, "share")
	}
	stats.recorderStats(e.srv, seq0)
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

// recorderStats reads queue wait and work time (p50) and the rejected
// count from the daemon's flight recorder: only the loopback requests of
// the traced phase, the records after sequence number seq0 that are not
// in-process replays.
func (s *layerStats) recorderStats(srv *serve.Server, seq0 uint64) {
	var queue, work []float64
	rejected := 0
	for _, r := range srv.Recorder().Snapshot() {
		if r.Seq <= seq0 || r.Origin == replayOrigin {
			continue
		}
		queue = append(queue, r.QueueWaitMS)
		work = append(work, r.WorkMS)
		if r.Outcome == "rejected" {
			rejected++
		}
	}
	s.set("serve.queue_wait_ms", median(queue), "ms")
	s.set("serve.work_ms", median(work), "ms")
	s.set("serve.rejected", float64(rejected), "count")
}

// fleetShardOps is the total of operations the fleet's shards have
// served, every replica of a quorum operation counted.
func fleetShardOps(f *cloud.Fleet) uint64 {
	var n uint64
	for _, s := range f.Report().Shards {
		n += s.Ops
	}
	return n
}
