package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/serve"
)

// serveEnv is serve-small's set-up: the daemon on a loopback listener,
// backed by a fault-free four-shard fleet, and the request plan.
type serveEnv struct {
	cfg     config
	eng     *core.InferenceEngine
	srv     *serve.Server
	hs      *http.Server
	handler http.Handler
	serving sync.WaitGroup
	base    string
	client  *http.Client
	units   []unit
}

// newFleet is the store both serve-small and exchange-bulk use: four
// heterogeneous shards, no injected faults, three replicas per blob.
func newFleet(seed int64, reg *obs.Registry) (*cloud.Fleet, error) {
	return cloud.NewFleet(cloud.FleetConfig{
		Shards:      cloud.DefaultShardSpecs(4, 0, uint64(seed)),
		Replication: 3,
		Seed:        uint64(seed),
		Registry:    reg,
	})
}

// setupServe starts the daemon with its default configuration, the
// pinned model and the fleet store. recorder sizes the flight recorder
// (0: the default).
func setupServe(cfg config, recorder int) (*serveEnv, error) {
	eng, err := serve.LoadModel(cfg.model)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	fleet, err := newFleet(cfg.seed, reg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Engine: eng, Registry: reg, FleetStore: fleet, RecorderSize: recorder})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{
		cfg:     cfg,
		eng:     eng,
		srv:     srv,
		handler: srv.Handler(),
		base:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: cfg.jobs, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
	}
	e.hs = &http.Server{Handler: e.handler, ReadHeaderTimeout: 10 * time.Second}
	e.serving.Add(1)
	//lint:ignore goroutinebound Serve returns when close shuts the server down, and close waits on serving for it
	go func() {
		defer e.serving.Done()
		e.hs.Serve(ln)
	}()
	e.units = planServe(cfg.seed, eng.SelectCodec)
	return e, nil
}

func (e *serveEnv) close() {
	e.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	e.serving.Wait()
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// serveCaller is one closed-loop caller's tally.
type serveCaller struct {
	id                int
	ranged            int       // ranged units done, picks the next name slot
	unitMS            []float64 // whole-unit latency, ms
	write, read       []float64
	attempted, failed int
	bases             int64
	firstErr          string
	wire, wireBases   []int // per pool unit: response bytes and bases, set once
	seen              []bool
}

func (c *serveCaller) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// check books one response to a request about u: it is attempted, and
// it fails unless it is a 200 carrying, when wantCodec, the pinned
// model's codec.
func (c *serveCaller) check(u *unit, op string, status int, codec string, err error, wantCodec bool) bool {
	c.attempted++
	switch {
	case err != nil:
		c.fail("%s: %v", op, err)
	case status != http.StatusOK:
		c.fail("%s: HTTP %d", op, status)
	case wantCodec && codec != u.codec:
		c.fail("%s: codec %q, pinned model picks %q", op, codec, u.codec)
	default:
		return true
	}
	return false
}

// request issues one request and returns the status, the X-Dnacomp-Codec
// header, the body and the latency.
func (e *serveEnv) request(method, path string, body []byte) (int, string, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, 0, err
	}
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, "", nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	return resp.StatusCode, resp.Header.Get("X-Dnacomp-Codec"), out, d, err
}

func compressPath(u *unit) string {
	return fmt.Sprintf("/compress?ram_mb=%g&cpu_mhz=%g&bw_mbps=%g", u.ctx.RAMMB, u.ctx.CPUMHz, u.ctx.BandwidthMbps)
}

// doUnit runs one plan unit: POST /compress (tree-routed), POST
// /decompress of the returned frame, and for ranged units POST
// /compress?block_size&name plus GET /decompress?name&off&len. Every
// response is checked: status 200, the pinned model's codec, restored
// bytes equal to the input. It returns the CXA1 frame and CXB1 container
// sizes.
func (e *serveEnv) doUnit(c *serveCaller, u *unit, slot int) (frame, container int) {
	status, codec, out, d, err := e.request(http.MethodPost, compressPath(u), u.body)
	c.write = append(c.write, ms(d))
	if !c.check(u, "compress", status, codec, err, true) {
		return 0, 0
	}
	c.bases += int64(len(u.symbols))
	frame = len(out)
	status, _, restored, d, err := e.request(http.MethodPost, "/decompress", out)
	c.read = append(c.read, ms(d))
	if c.check(u, "decompress", status, "", err, false) && !bytes.Equal(restored, u.body) {
		c.fail("decompress: %d bases restored, want %d", len(restored), len(u.body))
	}
	if !u.ranged {
		return frame, 0
	}
	name := "n" + strconv.Itoa(slot)
	status, codec, out, d, err = e.request(http.MethodPost,
		fmt.Sprintf("%s&block_size=%d&name=%s", compressPath(u), serveBlockSize, name), u.body)
	c.write = append(c.write, ms(d))
	if !c.check(u, "compress block", status, codec, err, true) {
		return frame, 0
	}
	c.bases += int64(len(u.symbols))
	container = len(out)
	status, _, window, d, err := e.request(http.MethodGet,
		fmt.Sprintf("/decompress?name=%s&off=%d&len=%d", name, u.off, u.n), nil)
	c.read = append(c.read, ms(d))
	if c.check(u, "range", status, "", err, false) && !bytes.Equal(window, u.body[u.off:u.off+u.n]) {
		c.fail("range [%d,+%d): wrong bases", u.off, u.n)
	}
	return frame, container
}

// loop runs the closed loop: cfg.jobs callers, each sending its next unit
// as soon as the previous one is answered, until the deadline.
func (e *serveEnv) loop(d time.Duration) (phase, []*serveCaller) {
	callers := make([]*serveCaller, e.cfg.jobs)
	slots := serveNames / e.cfg.jobs
	var next atomic.Int64
	var wg sync.WaitGroup
	m := startMeter()
	deadline := m.start.Add(d)
	for i := range callers {
		c := &serveCaller{id: i, wire: make([]int, len(e.units)), wireBases: make([]int, len(e.units)), seen: make([]bool, len(e.units))}
		callers[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1)-1) % len(e.units)
				u := &e.units[k]
				slot := c.id*slots + c.ranged%slots
				if u.ranged {
					c.ranged++
				}
				t0 := time.Now()
				frame, container := e.doUnit(c, u, slot)
				c.unitMS = append(c.unitMS, ms(time.Since(t0)))
				if !c.seen[k] && frame > 0 && (!u.ranged || container > 0) {
					c.seen[k] = true
					c.wire[k] = frame + container
					c.wireBases[k] = len(u.symbols)
					if u.ranged {
						c.wireBases[k] *= 2
					}
				}
			}
		}()
	}
	wg.Wait()
	var p phase
	m.end(&p)
	for _, c := range callers {
		p.all = append(p.all, c.unitMS...)
		p.write = append(p.write, c.write...)
		p.read = append(p.read, c.read...)
		p.attempted += c.attempted
		p.failed += c.failed
		p.bases += c.bases
		if c.firstErr != "" {
			fmt.Fprintf(os.Stderr, "caller %d: %d failed, first: %s\n", c.id, c.failed, c.firstErr)
		}
	}
	return p, callers
}

// poolBitsPerBase is wire bytes x 8 / bases over every pool unit that ran,
// each counted once: a deterministic figure once the whole pool has run.
func poolBitsPerBase(callers []*serveCaller, n int) (float64, int) {
	var wire, bases, covered int
	for k := 0; k < n; k++ {
		for _, c := range callers {
			if c.seen[k] {
				wire += c.wire[k]
				bases += c.wireBases[k]
				covered++
				break
			}
		}
	}
	return float64(wire) * 8 / float64(bases), covered
}

func runServe(cfg config) (result, error) {
	if cfg.trace {
		return traceServe(cfg)
	}
	build := func() (*serveEnv, error) { return setupServe(cfg, 0) }
	e, times, err := measureSetup(build)
	if err != nil {
		return result{}, err
	}
	p, callers := e.loop(cfg.seconds)
	setupS, err := setupSeconds(e, times, build)
	if err != nil {
		return result{}, err
	}
	bpb, covered := poolBitsPerBase(callers, len(e.units))
	if covered < len(e.units) {
		fmt.Fprintf(os.Stderr, "bits_per_base covers %d of %d pool units\n", covered, len(e.units))
	}
	return verdict(p, endToEnd(p, setupS, 99, bpb)), nil
}
