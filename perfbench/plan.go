package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/seq"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// declaredContexts are serve.LoadOptions' default context spread: the
// RAM / CPU / bandwidth a caller declares with each request.
var declaredContexts = []core.Context{
	{RAMMB: 768, CPUMHz: 1000, BandwidthMbps: 2},
	{RAMMB: 2048, CPUMHz: 2100, BandwidthMbps: 5},
	{RAMMB: 3584, CPUMHz: 2400, BandwidthMbps: 10},
	{RAMMB: 7168, CPUMHz: 3000, BandwidthMbps: 20},
}

const (
	// servePool is how many distinct serve-small units the plan holds; the
	// timed phase cycles through them. It is small enough that every unit
	// runs within the first seconds, so per-pool figures (bits per base,
	// route shares) are the same in every run of a seed.
	servePool = 256
	// serveRangeEvery: one serve-small unit in 4 also stores a CXB1
	// container by name and reads a range of it back.
	serveRangeEvery = 4
	// serveBlockSize is the block size of the stored containers.
	serveBlockSize = 1024
	// serveNames bounds the named-container pool the ranged units
	// overwrite (the daemon's default MaxStored).
	serveNames = 256

	// exchangePool is how many distinct sequences exchange-bulk cycles.
	exchangePool = 12
	// exchangeBlockSize is the block size of every bulk exchange.
	exchangeBlockSize = 64 << 10
)

// gridSpec is the compact training corpus of grid-train: the spec
// serve.TrainDefaultEngine trains the daemon's fallback model on, with the
// run's seed.
func gridSpec(seed int64) synth.CorpusSpec {
	return synth.CorpusSpec{NumFiles: 32, MinSize: 2 << 10, MaxSize: 256 << 10, Seed: seed}
}

// gridCodecs are the paper's four compared codecs, the grid's columns.
var gridCodecs = []string{"ctw", "dnax", "gencompress", "gzip"}

// unit is one planned operation on a sequence: the bases a caller sends,
// the context it declares, and the codec the pinned model must pick.
type unit struct {
	symbols []byte // symbol codes 0..3
	body    []byte // the same bases as ASCII text, as a caller posts them
	rank    int    // position in the length order, 0 = shortest
	kind    int    // synth.ExperimentCorpus repeat kind, 0..3
	ctx     core.Context
	codec   string
	// Range read of a stored container (serve-small ranged units only).
	ranged bool
	off, n int
}

// corpusUnits draws n sequences with log-spaced lengths in [minBases,
// maxBases] from synth.ExperimentCorpus (so the four repeat kinds rotate),
// gives each a declared context and the pinned model's codec choice, and
// shuffles them. Lengths, kinds and contexts are the same for every seed;
// the seed changes the bases and the order, so runs with different seeds
// measure the same mix of work.
func corpusUnits(seed int64, n, minBases, maxBases int, sel func(core.Context) string) []unit {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: n, MinSize: minBases, MaxSize: maxBases, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	units := make([]unit, n)
	for i, fi := range order {
		f := files[fi]
		// Every run of 16 consecutive lengths pairs each repeat kind with
		// each context once.
		ctx := declaredContexts[(fi+fi/4)%len(declaredContexts)]
		ctx.FileSizeKB = float64(len(f.Data)) / 1024
		units[i] = unit{symbols: f.Data, body: seq.Decode(f.Data), rank: fi, kind: fi % 4, ctx: ctx, codec: sel(ctx)}
	}
	return units
}

// planServe is serve-small's request plan: servePool sequences of 1-8 KB.
// One in serveRangeEvery, chosen by length band so that every band has
// its share, also has a range read of at most 2 KB.
func planServe(seed int64, sel func(core.Context) string) []unit {
	units := corpusUnits(seed, servePool, 1<<10, 8<<10, sel)
	rng := rand.New(rand.NewSource(seed ^ 0x72616e6765 /* "range" */))
	for i := range units {
		u := &units[i]
		if (u.rank/16)%serveRangeEvery != 0 {
			continue
		}
		u.ranged = true
		u.off = rng.Intn(len(u.symbols))
		rest := len(u.symbols) - u.off
		if rest > 2048 {
			rest = 2048
		}
		u.n = 1 + rng.Intn(rest)
	}
	return units
}

// planExchange is exchange-bulk's plan: exchangePool sequences of
// 512 KiB - 2 MiB.
func planExchange(seed int64, sel func(core.Context) string) []unit {
	return corpusUnits(seed, exchangePool, 512<<10, 2<<20, sel)
}

// planDigest hashes everything a plan makes a caller send, so tests can
// compare plans byte for byte.
func planDigest(units []unit) string {
	h := sha256.New()
	var b [8]byte
	for _, u := range units {
		binary.LittleEndian.PutUint64(b[:], uint64(len(u.body)))
		h.Write(b[:])
		h.Write(u.body)
		fmt.Fprintf(h, "|%d|%g|%g|%g|%g|%s|%t|%d|%d|", u.kind, u.ctx.FileSizeKB, u.ctx.RAMMB, u.ctx.CPUMHz,
			u.ctx.BandwidthMbps, u.codec, u.ranged, u.off, u.n)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// symbolsOf lists the units' sequences.
func symbolsOf(units []unit) [][]byte {
	out := make([][]byte, len(units))
	for i, u := range units {
		out[i] = u.symbols
	}
	return out
}

// routeShares is the exact share of units the pinned model sends to each
// grid codec.
func routeShares(units []unit) map[string]float64 {
	counts := map[string]int{}
	for _, u := range units {
		counts[u.codec]++
	}
	shares := map[string]float64{}
	for _, c := range gridCodecs {
		shares[c] = float64(counts[c]) / float64(len(units))
	}
	return shares
}
