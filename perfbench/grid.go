package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/dtree"
	"github.com/srl-nuces/ctxdna/internal/experiment"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// pinnedSeed is the seed the pinned model was trained at: at this seed
// grid-train must induce exactly the pinned tree.
const pinnedSeed = 2015

// gridEnv is grid-train's set-up: the compact training corpus, the
// paper's 32 contexts and the pinned model's bytes.
type gridEnv struct {
	cfg      config
	files    []synth.File
	contexts []cloud.VM
	pinned   []byte
	bases    int64 // corpus bases x codecs: the input of one build
}

func setupGrid(cfg config) (*gridEnv, error) {
	pinned, err := os.ReadFile(cfg.model)
	if err != nil {
		return nil, err
	}
	e := &gridEnv{cfg: cfg, files: synth.ExperimentCorpus(gridSpec(cfg.seed)), contexts: cloud.Grid(), pinned: pinned}
	for _, f := range e.files {
		e.bases += int64(len(f.Data)) * int64(len(gridCodecs))
	}
	return e, nil
}

func (e *gridEnv) close() {}

// inductions is how many times each build re-runs the split and CART
// induction. One induction takes a few milliseconds, too short to time
// steadily once per build; the first of them belongs to the build's
// operation, all of them to read_p50_ms.
const inductions = 32

// build is one grid-train operation: the measurement grid over every
// (file, codec) cell with the experiment pool — each cell's round trip is
// verified inside — then the 75/25 split and CART induction on time-only
// labels, repeated inductions times. It returns the grid time and each
// induction's time.
func (e *gridEnv) build() (*experiment.Grid, *dtree.Tree, time.Duration, []time.Duration, error) {
	t0 := time.Now()
	g, err := experiment.RunParallel(context.Background(), e.files, e.contexts, gridCodecs, experiment.DefaultNoise(), e.cfg.jobs)
	gridT := time.Since(t0)
	if err != nil {
		return nil, nil, 0, nil, fmt.Errorf("grid: %w", err)
	}
	var tree *dtree.Tree
	trainT := make([]time.Duration, inductions)
	for i := range trainT {
		t1 := time.Now()
		train, test := g.Split()
		t, _, err := experiment.TrainEval(train, test, "cart", core.TimeOnlyWeights(), dtree.Config{})
		trainT[i] = time.Since(t1)
		if err != nil {
			return nil, nil, 0, nil, fmt.Errorf("induction: %w", err)
		}
		if tree == nil {
			tree = t
		}
	}
	return g, tree, gridT, trainT, nil
}

// check verifies a build's output: every cell of every file present, and
// at the pinned seed the induced tree equal to the pinned model byte for
// byte (serve.SaveModel's encoding). A probe grid has no pinned bytes.
func (e *gridEnv) check(g *experiment.Grid, tree *dtree.Tree) error {
	if len(g.Files) != len(e.files) {
		return fmt.Errorf("grid has %d files, want %d", len(g.Files), len(e.files))
	}
	for _, f := range g.Files {
		if len(f.Runs) != len(gridCodecs) {
			return fmt.Errorf("file %s has %d codec runs, want %d", f.Name, len(f.Runs), len(gridCodecs))
		}
	}
	if e.cfg.seed != pinnedSeed || e.pinned == nil {
		return nil
	}
	enc, err := json.MarshalIndent(tree, "", " ")
	if err != nil {
		return err
	}
	if !bytes.Equal(enc, e.pinned) {
		return fmt.Errorf("induced tree differs from the pinned model at seed %d", pinnedSeed)
	}
	return nil
}

// gridBitsPerBase is payload bytes x 8 / bases over every grid cell.
func gridBitsPerBase(g *experiment.Grid) float64 {
	var bytes, bases int
	for _, f := range g.Files {
		for _, r := range f.Runs {
			bytes += r.CompressedSize
			bases += f.Bases
		}
	}
	return float64(bytes) * 8 / float64(bases)
}

// loop runs builds back to back until the deadline; a build started
// before the deadline runs to completion.
func (e *gridEnv) loop(d time.Duration) (phase, float64) {
	var p phase
	bpb := 0.0
	m := startMeter()
	deadline := m.start.Add(d)
	for time.Now().Before(deadline) {
		p.attempted++
		g, tree, gridT, trainT, err := e.build()
		if err == nil {
			err = e.check(g, tree)
		}
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "build %d: %v\n", p.attempted, err)
			continue
		}
		p.bases += e.bases
		p.write = append(p.write, ms(gridT))
		for _, t := range trainT {
			p.read = append(p.read, ms(t))
		}
		p.all = append(p.all, ms(gridT+trainT[0]))
		bpb = gridBitsPerBase(g)
	}
	m.end(&p)
	return p, bpb
}

func runGrid(cfg config) (result, error) {
	if cfg.trace {
		return traceGrid(cfg)
	}
	build := func() (*gridEnv, error) { return setupGrid(cfg) }
	e, times, err := measureSetup(build)
	if err != nil {
		return result{}, err
	}
	p, bpb := e.loop(cfg.seconds)
	setupS, err := setupSeconds(e, times, build)
	if err != nil {
		return result{}, err
	}
	return verdict(p, endToEnd(p, setupS, 50, bpb)), nil
}
