package main

import (
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/serve"
)

func TestPlansAreSeeded(t *testing.T) {
	eng, err := serve.LoadModel("model.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, plan := range map[string]func(int64) []unit{
		"serve-small":   func(s int64) []unit { return planServe(s, eng.SelectCodec) },
		"exchange-bulk": func(s int64) []unit { return planExchange(s, eng.SelectCodec) },
	} {
		a, b, c := planDigest(plan(7)), planDigest(plan(7)), planDigest(plan(8))
		if a != b {
			t.Errorf("%s: seed 7 gave two different plans", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", name)
		}
	}
}

func TestServePlanShape(t *testing.T) {
	eng, err := serve.LoadModel("model.json")
	if err != nil {
		t.Fatal(err)
	}
	units := planServe(3, eng.SelectCodec)
	kinds := map[int]bool{}
	ranged := 0
	for i, u := range units {
		if len(u.symbols) < 1<<10 || len(u.symbols) > 8<<10 {
			t.Fatalf("unit %d: %d bases, want 1-8 KB", i, len(u.symbols))
		}
		if u.codec != eng.SelectCodec(u.ctx) {
			t.Fatalf("unit %d: planned codec %s, model picks %s", i, u.codec, eng.SelectCodec(u.ctx))
		}
		if u.ranged {
			ranged++
			if u.n < 1 || u.off+u.n > len(u.symbols) {
				t.Fatalf("unit %d: range [%d,+%d) outside %d bases", i, u.off, u.n, len(u.symbols))
			}
		}
		kinds[u.kind] = true
	}
	if len(kinds) != 4 || ranged != servePool/serveRangeEvery {
		t.Fatalf("%d repeat kinds and %d ranged units, want 4 and %d", len(kinds), ranged, servePool/serveRangeEvery)
	}
}

func TestTailPercentileFromSampleCount(t *testing.T) {
	for _, tc := range []struct {
		n        int
		max, pct float64
	}{
		{100000, 99, 99},
		{1000, 99, 99},
		{999, 99, 95},
		{200, 99, 95},
		{199, 99, 90},
		{100, 90, 90},
		{100000, 90, 90},
		{40, 99, 75},
		{39, 99, 50},
		{4, 99, 50},
		{100000, 50, 50},
		{20000, 99.9, 99.9},
	} {
		if got := tailPercentile(tc.n, tc.max); got != tc.pct {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", tc.n, tc.max, got, tc.pct)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if q := quantile(v, 50); q != 3 {
		t.Errorf("median = %g, want 3", q)
	}
	if q := quantile(v, 75); q != 4 {
		t.Errorf("p75 = %g, want 4", q)
	}
	if q := quantile([]float64{1, 2}, 50); q != 1.5 {
		t.Errorf("median of 1, 2 = %g, want 1.5", q)
	}
	if v[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func sp(layer string, start, end, parent int) span {
	return span{layer: layer, start: time.Duration(start), end: time.Duration(end), parent: parent}
}

func TestSelfTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []span
		want  []time.Duration
	}{
		{"leaf", []span{sp("a", 0, 10, -1)}, []time.Duration{10}},
		{"sequential children", []span{sp("a", 0, 10, -1), sp("b", 1, 3, 0), sp("c", 5, 9, 0)}, []time.Duration{4, 2, 4}},
		{"overlapping children count once", []span{sp("a", 0, 10, -1), sp("b", 1, 4, 0), sp("c", 2, 5, 0)}, []time.Duration{6, 3, 3}},
		{"child past its parent is clipped", []span{sp("a", 0, 10, -1), sp("b", 8, 15, 0)}, []time.Duration{8, 7}},
		{"grandchildren do not reach the root", []span{sp("a", 0, 10, -1), sp("b", 0, 6, 0), sp("c", 0, 6, 1)}, []time.Duration{4, 0, 6}},
		{"roots are independent", []span{sp("a", 0, 5, -1), sp("b", 5, 9, -1), sp("c", 5, 7, 1)}, []time.Duration{5, 2, 2}},
	} {
		got := selfTimes(tc.spans)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: self of span %d = %d, want %d", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

func TestNestPlacesReplaysInOrder(t *testing.T) {
	tr := &spanTree{cursor: map[int]time.Duration{}}
	a := tr.nest(-1, "http", 10)
	b := tr.nest(a, "serve", 8)
	tr.nest(b, "seq", 2)
	tr.nest(b, "codec", 5)
	tr.nest(-1, "http", 4)
	want := []span{sp("http", 0, 10, -1), sp("serve", 0, 8, 0), sp("seq", 0, 2, 1), sp("codec", 2, 7, 1), sp("http", 10, 14, -1)}
	for i, s := range tr.spans {
		if s != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
	self := layerSelf(tr)
	if self["http"] != 6 || self["serve"] != 1 || self["seq"] != 2 || self["codec"] != 5 {
		t.Errorf("layer self times %v, want http 6, serve 1, seq 2, codec 5", self)
	}
}

func TestConcurrentChildrenShareWallTime(t *testing.T) {
	// Two pool lanes run side by side under a 10-unit parent, the second
	// only for its first half; 2 units of the parent are idle.
	spans := []span{sp("pool", 0, 10, -1), sp("task", 0, 8, 0), sp("task", 0, 4, 0)}
	share := wallShares(spans)
	if share[0] != 1 || share[1] != 0.75 || share[2] != 0.5 {
		t.Errorf("wall shares %v, want [1 0.75 0.5]", share)
	}
	self := layerSelf(&spanTree{spans: spans})
	if self["pool"] != 2 || self["task"] != 8 {
		t.Errorf("layer self times %v, want pool 2, task 8", self)
	}
}

func TestPiecesCutLongestInputsFirst(t *testing.T) {
	inputs := [][]byte{make([]byte, 100), make([]byte, 5000), make([]byte, 3)}
	units := pieces(inputs, 7, 2048, nil)
	wantLen := []int{2048, 100, 3, 2048, 100, 3, 904}
	for i, u := range units {
		if len(u.symbols) != wantLen[i] {
			t.Errorf("piece %d: %d bases, want %d", i, len(u.symbols), wantLen[i])
		}
		if u.codec != "dnax" {
			t.Errorf("piece %d: codec %q, want dnax without a selector", i, u.codec)
		}
		if u.ranged && (u.n < 1 || u.off+u.n > len(u.symbols)) {
			t.Errorf("piece %d: range [%d,+%d) outside %d bases", i, u.off, u.n, len(u.symbols))
		}
	}
	if len(inputs[0]) != 100 {
		t.Error("pieces reordered its caller's inputs")
	}
}
