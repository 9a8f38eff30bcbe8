package rfgraph

import (
	"errors"
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
// left the scratch mid-use.
func TestScanEdgesReusedScratch(t *testing.T) {
	g := scanBase(t)
	scans := []dataset.Record{
		{ID: "s0", Readings: []dataset.Reading{{MAC: "m0", RSS: -52}, {MAC: "m2", RSS: -70}}},
		{ID: "s1", Readings: []dataset.Reading{{MAC: "m1", RSS: -45}}},
		{ID: "s2", Readings: []dataset.Reading{{MAC: "m0", RSS: -58}, {MAC: "m0", RSS: -49}, {MAC: "unknown", RSS: -60}}},
	}
	var reused []Halfedge
	best := map[string]float64{}
	for round := 0; round < 2; round++ {
		for i := range scans {
			var err error
			reused, err = g.ScanEdges(reused, &scans[i], best)
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
		if _, err := g.ScanEdges(reused, &bad, best); err == nil {
			t.Fatal("ScanEdges with a bad weight should fail")
		}
	}
}
