package rfgraph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// scanBase builds a small trained-graph stand-in with two records and
// three MACs.
func scanBase(t *testing.T) *Graph {
	t.Helper()
	g := New(nil)
	recs := []dataset.Record{
		{ID: "r0", Readings: []dataset.Reading{{MAC: "m0", RSS: -50}, {MAC: "m1", RSS: -60}}},
		{ID: "r1", Readings: []dataset.Reading{{MAC: "m1", RSS: -55}, {MAC: "m2", RSS: -65}}},
	}
	if _, err := g.AddRecords(recs); err != nil {
		t.Fatalf("AddRecords: %v", err)
	}
	return g
}

// TestScanEdgesMatchAddRecord: a scan's edges are the ones AddRecord
// gives the same record, in order, less the MACs the graph has never
// seen, and collecting them writes nothing.
func TestScanEdgesMatchAddRecord(t *testing.T) {
	scan := dataset.Record{ID: "scan", Readings: []dataset.Reading{
		{MAC: "m2", RSS: -70},
		{MAC: "unknown", RSS: -30},
		{MAC: "m0", RSS: -40},
		{MAC: "m2", RSS: -52},
		{MAC: "other", RSS: -61},
		{MAC: "m1", RSS: -66},
	}}
	g := scanBase(t)
	before := struct{ nodes, edges int }{g.NumNodes(), g.NumEdges()}
	got, err := g.ScanEdges(nil, &scan, nil)
	if err != nil {
		t.Fatalf("ScanEdges: %v", err)
	}
	if g.NumNodes() != before.nodes || g.NumEdges() != before.edges || g.NumMACs() != 3 {
		t.Errorf("ScanEdges mutated the graph: %d/%d -> %d/%d",
			before.nodes, before.edges, g.NumNodes(), g.NumEdges())
	}
	grown := scanBase(t)
	id, err := grown.AddRecord(&scan)
	if err != nil {
		t.Fatalf("AddRecord: %v", err)
	}
	var want []Halfedge
	for _, he := range grown.Neighbors(id) {
		if _, known := g.MACNode(grown.Name(he.To)); known {
			want = append(want, he)
		}
	}
	if len(want) != 3 || len(got) != len(want) {
		t.Fatalf("edges = %+v, want AddRecord's known-MAC edges %+v", got, want)
	}
	for e := range want {
		if got[e] != want[e] {
			t.Errorf("edge %d = %+v, want %+v", e, got[e], want[e])
		}
	}
	// Weights follow the graph's weight function (RSS + 120).
	if m0, _ := g.MACNode("m0"); got[1] != (Halfedge{To: m0, Weight: -40.0 + 120}) {
		t.Errorf("edge to m0 = %+v, want weight 80", got[1])
	}
}

func TestScanEdgesDedupStrongestRSS(t *testing.T) {
	g := scanBase(t)
	scan := dataset.Record{ID: "scan", Readings: []dataset.Reading{
		{MAC: "m0", RSS: -80},
		{MAC: "m0", RSS: -50}, // stronger; must win like AddRecord
	}}
	edges, err := g.ScanEdges(nil, &scan, nil)
	if err != nil {
		t.Fatalf("ScanEdges: %v", err)
	}
	if len(edges) != 1 {
		t.Fatalf("edges = %d, want 1 after dedup", len(edges))
	}
	if w := edges[0].Weight; w != -50.0+120 {
		t.Errorf("dedup kept weight %v, want strongest (70)", w)
	}
}

func TestScanEdgesErrors(t *testing.T) {
	g := scanBase(t)
	empty := dataset.Record{ID: "empty"}
	if _, err := g.ScanEdges(nil, &empty, nil); !errors.Is(err, ErrEmptyRecord) {
		t.Errorf("empty scan error = %v, want ErrEmptyRecord", err)
	}
	bad := dataset.Record{ID: "bad", Readings: []dataset.Reading{{MAC: "m0", RSS: -500}}}
	if _, err := g.ScanEdges(nil, &bad, nil); !errors.Is(err, ErrBadWeight) {
		t.Errorf("bad weight error = %v, want ErrBadWeight", err)
	}
	// A bad weight on an unknown MAC must reject too, so a scan classify
	// accepts is exactly a record AddRecord accepts.
	badUnknown := dataset.Record{ID: "bad2", Readings: []dataset.Reading{
		{MAC: "m0", RSS: -50},
		{MAC: "never-seen", RSS: -500},
	}}
	if _, err := g.ScanEdges(nil, &badUnknown, nil); !errors.Is(err, ErrBadWeight) {
		t.Errorf("bad weight on unknown MAC = %v, want ErrBadWeight", err)
	}
	alien := dataset.Record{ID: "alien", Readings: []dataset.Reading{{MAC: "nope", RSS: -50}}}
	edges, err := g.ScanEdges(nil, &alien, nil)
	if err != nil {
		t.Fatalf("ScanEdges(alien): %v", err)
	}
	if len(edges) != 0 {
		t.Errorf("alien edges = %+v, want none", edges)
	}
}

// TestScanEdgesReusedScratch: reused (pooled) edge and dedup scratch must
// give what fresh scratch gives for every scan, including after an error
// left the scratch mid-use, and one scratch serves graphs of any size.
func TestScanEdgesReusedScratch(t *testing.T) {
	g := scanBase(t)
	scans := []dataset.Record{
		{ID: "s0", Readings: []dataset.Reading{{MAC: "m0", RSS: -52}, {MAC: "m2", RSS: -70}}},
		{ID: "s1", Readings: []dataset.Reading{{MAC: "m1", RSS: -45}}},
		{ID: "s2", Readings: []dataset.Reading{{MAC: "m0", RSS: -58}, {MAC: "m0", RSS: -49}, {MAC: "unknown", RSS: -60}}},
	}
	var reused []Halfedge
	var sc ScanScratch
	for round := 0; round < 2; round++ {
		for i := range scans {
			var err error
			reused, err = g.ScanEdges(reused, &scans[i], &sc)
			if err != nil {
				t.Fatalf("ScanEdges(%s) reused: %v", scans[i].ID, err)
			}
			fresh, err := g.ScanEdges(nil, &scans[i], nil)
			if err != nil {
				t.Fatalf("ScanEdges(%s): %v", scans[i].ID, err)
			}
			if len(reused) != len(fresh) {
				t.Fatalf("scan %s: %d edges vs %d", scans[i].ID, len(reused), len(fresh))
			}
			for e := range fresh {
				if reused[e] != fresh[e] {
					t.Fatalf("scan %s: edge %d differs: %+v vs %+v", scans[i].ID, e, reused[e], fresh[e])
				}
			}
		}
		// An error mid-stream must not poison later calls.
		bad := dataset.Record{ID: "bad", Readings: []dataset.Reading{{MAC: "m1", RSS: -20}, {MAC: "m2", RSS: -300}}}
		if _, err := g.ScanEdges(reused, &bad, &sc); err == nil {
			t.Fatal("ScanEdges with a bad weight should fail")
		}
	}
	// The same scratch, carrying stale slots, on random graphs larger and
	// smaller than the last, against the map-based reference.
	rng := rand.New(rand.NewSource(3))
	for _, macs := range []int{60, 5, 30} {
		g := randomScanGraph(t, rng, nil, macs)
		for i := 0; i < 200; i++ {
			scan := randomScan(rng, i, macs)
			want, wantErr := refScanEdges(g, &scan)
			var err error
			reused, err = g.ScanEdges(reused, &scan, &sc)
			if diff := sameScanEdges(reused, err, want, wantErr); diff != "" {
				t.Fatalf("%d MACs, scan %+v: %s", macs, scan, diff)
			}
		}
	}
}

// refScanEdges is the map-based ScanEdges that ScanEdges replaced, kept
// as the reference its single-lookup rewrite must match: a strongest-RSS
// map over every reading, a validation pass over every reading, then one
// edge per known MAC in first-occurrence order.
func refScanEdges(g *Graph, rec *dataset.Record) ([]Halfedge, error) {
	if len(rec.Readings) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrEmptyRecord, rec.ID)
	}
	best := make(map[string]float64, len(rec.Readings))
	for _, rd := range rec.Readings {
		if cur, ok := best[rd.MAC]; !ok || rd.RSS > cur {
			best[rd.MAC] = rd.RSS
		}
	}
	for _, rd := range rec.Readings {
		if w := g.weightFn(best[rd.MAC]); w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: f(%v) = %v for MAC %q", ErrBadWeight, best[rd.MAC], w, rd.MAC)
		}
	}
	var out []Halfedge
	for _, rd := range rec.Readings {
		rss, ok := best[rd.MAC]
		if !ok {
			continue
		}
		delete(best, rd.MAC)
		if mid, ok := g.MACNode(rd.MAC); ok {
			out = append(out, Halfedge{To: mid, Weight: g.weightFn(rss)})
		}
	}
	return out, nil
}

// randomScanGraph builds a graph over MACs m0..m<macs-1> from random
// records and retires a few MACs, so scans can name known, retired and
// never-seen MACs.
func randomScanGraph(t *testing.T, rng *rand.Rand, weightFn WeightFunc, macs int) *Graph {
	t.Helper()
	g := New(weightFn)
	for r := 0; r < 3*macs; r++ {
		rec := dataset.Record{ID: fmt.Sprintf("r%d", r)}
		for k := 1 + rng.Intn(6); k > 0; k-- {
			rec.Readings = append(rec.Readings, dataset.Reading{MAC: fmt.Sprintf("m%d", rng.Intn(macs)), RSS: -30 - 60*rng.Float64()})
		}
		if _, err := g.AddRecord(&rec); err != nil {
			t.Fatalf("AddRecord: %v", err)
		}
	}
	for k := 0; k < macs/8; k++ {
		_ = g.RemoveMAC(fmt.Sprintf("m%d", rng.Intn(macs)))
	}
	return g
}

// randomScan draws a scan over MACs the graph knows, MACs it retired,
// and MACs it never saw (x*), with duplicate readings, a rare RSS whose
// weight is unusable under f(RSS) = RSS + 120, and a rare NaN.
func randomScan(rng *rand.Rand, id, macs int) dataset.Record {
	scan := dataset.Record{ID: fmt.Sprintf("s%d", id)}
	for k := rng.Intn(12); k > 0; k-- {
		mac := fmt.Sprintf("m%d", rng.Intn(macs+macs/2))
		if rng.Intn(5) == 0 {
			mac = fmt.Sprintf("x%d", rng.Intn(4))
		}
		rss := -20 - 95*rng.Float64()
		switch rng.Intn(40) {
		case 0:
			rss = -121 - 400*rng.Float64()
		case 1:
			rss = math.NaN()
		}
		scan.Readings = append(scan.Readings, dataset.Reading{MAC: mac, RSS: rss})
		if rng.Intn(4) == 0 { // repeat an earlier reading's MAC
			prev := scan.Readings[rng.Intn(len(scan.Readings))]
			scan.Readings = append(scan.Readings, dataset.Reading{MAC: prev.MAC, RSS: -20 - 95*rng.Float64()})
		}
	}
	return scan
}

// sameScanEdges reports how got differs from the reference's answer
// for one scan, or "" when the edges and error text are identical.
func sameScanEdges(got []Halfedge, gotErr error, want []Halfedge, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("edges %+v, reference %+v", got, want)
	}
	for e := range want {
		if got[e] != want[e] {
			return fmt.Sprintf("edge %d = %+v, reference %+v", e, got[e], want[e])
		}
	}
	return ""
}

// TestScanEdgesMatchesMapReference: over random graphs and scans —
// duplicates, never-seen and retired MACs, unusable weights on known
// and unknown MACs, NaN readings — ScanEdges returns exactly the
// reference's edges and error text, under the paper's offset weight and
// under a weight that is not monotone in RSS.
func TestScanEdgesMatchesMapReference(t *testing.T) {
	bumpy := func(rss float64) float64 { return math.Abs(math.Sin(rss/7)) * (rss + 120) }
	for _, weightFn := range []WeightFunc{nil, bumpy} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			macs := 4 + rng.Intn(40)
			g := randomScanGraph(t, rng, weightFn, macs)
			var dst []Halfedge
			for i := 0; i < 200; i++ {
				scan := randomScan(rng, i, macs)
				want, wantErr := refScanEdges(g, &scan)
				var err error
				dst, err = g.ScanEdges(dst, &scan, nil)
				if diff := sameScanEdges(dst, err, want, wantErr); diff != "" {
					t.Fatalf("seed %d scan %+v: %s", seed, scan, diff)
				}
			}
		}
	}
}
