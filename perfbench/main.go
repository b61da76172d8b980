// Command perfbench is the repository's benchmark: three workloads that
// drive the context-aware codec selection system the way its users do — a
// caller of the dnacompd HTTP daemon (serve-small), a sender exchanging
// whole genomes through the replicated store (exchange-bulk), and the
// researcher or cold-started daemon building the measurement grid and
// decision tree (grid-train). See README.md in this directory.
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones of the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	// The codecs the pinned model and the grid route to, plus the rest of
	// the registry the daemon serves.
	_ "github.com/srl-nuces/ctxdna/internal/compress/biocompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/ctw"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnacompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnapack"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnax"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gencompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gzipx"
	_ "github.com/srl-nuces/ctxdna/internal/compress/twobit"
	_ "github.com/srl-nuces/ctxdna/internal/compress/xm"
)

// A run builds its set-up at least setupMin times and for at least
// setupWindow before the timed phase, and again after it; setup_s is the
// median of all the builds. The last build before the timed phase is the
// one measured. A set-up takes tens of milliseconds, where host noise
// moves single timings by a third; many builds on both sides of the timed
// phase keep the median steady.
const (
	setupMin    = 5
	setupWindow = time.Second
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	model    string // pinned model JSON
	jobs     int    // every thread count: nproc
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (result, error){
	"serve-small":   runServe,
	"exchange-bulk": runExchange,
	"grid-train":    runGrid,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-small, exchange-bulk or grid-train")
	flag.Int64Var(&cfg.seed, "seed", 2015, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.model, "model", "perfbench/model.json", "pinned decision-tree model")
	flag.Parse()
	fn, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload serve-small|exchange-bulk|grid-train --seed N --seconds S --trace 0|1\n")
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.jobs = runtime.NumCPU()
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "%-40s %14.4f %s\n", name, m.Value, m.Unit)
		// A figure with no samples behind it (every operation of its kind
		// failed) is NaN or infinite, which JSON cannot carry: report 0
		// and mark the run incorrect, so the accounting line still prints.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			res.Metrics[name] = m
			res.Correct = false
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// closer is a built set-up that can be torn down.
type closer interface{ close() }

// measureSetup builds the set-up repeatedly (see setupMin), tears down all
// but the last build, and returns it with the build times in seconds.
func measureSetup[T closer](build func() (T, error)) (T, []float64, error) {
	var env T
	var times []float64
	start := time.Now()
	for len(times) < setupMin || time.Since(start) < setupWindow {
		if len(times) > 0 {
			env.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = build(); err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return env, times, nil
}

// setupSeconds closes the measured set-up, builds and closes it as many
// times again, and returns the median of all build times.
func setupSeconds[T closer](env T, times []float64, build func() (T, error)) (float64, error) {
	env.close()
	before := len(times)
	for i := 0; i < before; i++ {
		runtime.GC()
		t0 := time.Now()
		env, err := build()
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		env.close()
	}
	return median(times), nil
}

// phase is what one timed phase measured.
type phase struct {
	elapsed   time.Duration
	all       []float64 // per-operation latency, ms
	write     []float64 // write-side operations, ms
	read      []float64 // read-side operations, ms
	bases     int64     // input bases processed
	allocated uint64    // heap bytes allocated during the phase
	peakHeap  float64   // p99 of the sampled live+unswept heap, bytes
	attempted int
	failed    int
}

// meter brackets a timed phase: allocation and peak-heap accounting.
type meter struct {
	start   time.Time
	alloc0  uint64
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // heap samples, owned by the sampler until wg is done
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{stop: make(chan struct{})}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0 = ms.TotalAlloc
	m.wg.Add(1)
	//lint:ignore goroutinebound the sampler runs until end closes stop, and end waits on wg for it to exit
	go func() {
		defer m.wg.Done()
		m.sampleHeap()
	}()
	m.start = time.Now()
	return m
}

// sampleHeap polls the heap-object bytes every 2 ms until stopped.
func (m *meter) sampleHeap() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		m.samples = append(m.samples, float64(s[0].Value.Uint64()))
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

// end closes the phase and fills its time and memory figures into p.
func (m *meter) end(p *phase) {
	p.elapsed = time.Since(m.start)
	close(m.stop)
	m.wg.Wait()
	// The heap peaks just before each collection; the 99th percentile of
	// the samples reads that peak without hanging on the single largest.
	p.peakHeap = quantile(m.samples, 99)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocated = ms.TotalAlloc - m.alloc0
}

// endToEnd turns a timed phase into the end-to-end metrics. tailMax caps
// the tail percentile; bitsPerBase is the workload's deterministic
// compression figure.
func endToEnd(p phase, setupS, tailMax, bitsPerBase float64) map[string]metric {
	pct := tailPercentile(len(p.all), tailMax)
	fmt.Fprintf(os.Stderr, "tail_ms is p%g of %d operations\n", pct, len(p.all))
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"throughput_mb_s":  {float64(p.bases) / 1e6 / p.elapsed.Seconds(), "Mbase/s"},
		"p50_ms":           {median(p.all), "ms"},
		"tail_ms":          {quantile(p.all, pct), "ms"},
		"write_p50_ms":     {median(p.write), "ms"},
		"read_p50_ms":      {median(p.read), "ms"},
		"bits_per_base":    {bitsPerBase, "bit/base"},
		"alloc_b_per_base": {float64(p.allocated) / float64(p.bases), "B/base"},
		"peak_heap_mb":     {p.peakHeap / (1 << 20), "MiB"},
	}
}

// verdict fills the accounting fields of a result from a phase.
func verdict(p phase, m map[string]metric) result {
	return result{
		Correct:   p.failed == 0 && p.attempted > 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   m,
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
