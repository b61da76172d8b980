package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/serve"
)

// exchangeEnv is exchange-bulk's set-up: the fleet and the plan.
type exchangeEnv struct {
	cfg   config
	fleet *cloud.Fleet
	units []unit
}

func setupExchange(cfg config) (*exchangeEnv, error) {
	eng, err := serve.LoadModel(cfg.model)
	if err != nil {
		return nil, err
	}
	fleet, err := newFleet(cfg.seed, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	e := &exchangeEnv{cfg: cfg, fleet: fleet, units: planExchange(cfg.seed, eng.SelectCodec)}
	return e, nil
}

func (e *exchangeEnv) close() {}

// phaseStore passes store calls through and notes when an exchange moves
// from uploading to downloading and from downloading to clean-up, which
// splits an exchange into its write and read halves.
type phaseStore struct {
	cloud.Store
	firstGet, firstDelete atomic.Int64 // UnixNano, 0 until seen
}

func (s *phaseStore) Get(container, blob string) ([]byte, error) {
	s.firstGet.CompareAndSwap(0, time.Now().UnixNano())
	return s.Store.Get(container, blob)
}

func (s *phaseStore) Delete(container, blob string) error {
	s.firstDelete.CompareAndSwap(0, time.Now().UnixNano())
	return s.Store.Delete(container, blob)
}

// exchange runs one bulk exchange of pool unit k through store.
func (e *exchangeEnv) exchange(ctx context.Context, store cloud.Store, k int) (cloud.BlockExchangeReport, error) {
	u := &e.units[k]
	client := cloud.VM{Name: "client", RAMMB: int(u.ctx.RAMMB), CPUMHz: int(u.ctx.CPUMHz), BandwidthMbps: u.ctx.BandwidthMbps}
	return cloud.ExchangeBlocks(ctx, client, store, u.codec, u.symbols, cloud.BlockExchangeOptions{
		ExchangeOptions: cloud.ExchangeOptions{Container: "bulk", Blob: fmt.Sprintf("seq%02d", k), Cleanup: true},
		Block:           compress.BlockOptions{BlockSize: exchangeBlockSize, Jobs: e.cfg.jobs},
	})
}

// loop runs exchanges back to back, cycling the pool, until the deadline.
// It returns the phase and each pool unit's container size (0 if the unit
// never ran).
func (e *exchangeEnv) loop(d time.Duration) (phase, []int) {
	var p phase
	wire := make([]int, len(e.units))
	m := startMeter()
	deadline := m.start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(e.units)
		u := &e.units[k]
		st := &phaseStore{Store: e.fleet}
		t0 := time.Now()
		rep, err := e.exchange(context.Background(), st, k)
		t1 := time.Now()
		p.attempted++
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "exchange %d (%d bases): %v\n", k, len(u.symbols), err)
			continue
		}
		p.bases += int64(len(u.symbols))
		p.all = append(p.all, ms(t1.Sub(t0)))
		get, del := st.firstGet.Load(), st.firstDelete.Load()
		p.write = append(p.write, ms(time.Duration(get-t0.UnixNano())))
		p.read = append(p.read, ms(time.Duration(del-get)))
		wire[k] = rep.ContainerBytes
	}
	m.end(&p)
	return p, wire
}

// exchangeBitsPerBase is container bytes x 8 / bases over the pool units
// that ran.
func exchangeBitsPerBase(units []unit, wire []int) (float64, int) {
	var bytes, bases, covered int
	for k, w := range wire {
		if w > 0 {
			bytes += w
			bases += len(units[k].symbols)
			covered++
		}
	}
	return float64(bytes) * 8 / float64(bases), covered
}

func runExchange(cfg config) (result, error) {
	if cfg.trace {
		return traceExchange(cfg)
	}
	build := func() (*exchangeEnv, error) { return setupExchange(cfg) }
	e, times, err := measureSetup(build)
	if err != nil {
		return result{}, err
	}
	p, wire := e.loop(cfg.seconds)
	setupS, err := setupSeconds(e, times, build)
	if err != nil {
		return result{}, err
	}
	bpb, covered := exchangeBitsPerBase(e.units, wire)
	if covered < len(e.units) {
		fmt.Fprintf(os.Stderr, "bits_per_base covers %d of %d pool units\n", covered, len(e.units))
	}
	return verdict(p, endToEnd(p, setupS, 90, bpb)), nil
}
