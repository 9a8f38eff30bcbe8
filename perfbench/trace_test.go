package main

import "testing"

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", [][2]int64{{10, 30}}, 80},
		// The two scatter hops of a fleet read overlap in time: the
		// router's self time is what neither covers, not 100-20-30.
		{"overlapping", [][2]int64{{10, 30}, {20, 50}}, 60},
		{"nested", [][2]int64{{10, 60}, {20, 30}}, 50},
		{"disjoint, unsorted", [][2]int64{{70, 90}, {10, 20}}, 70},
		{"clipped to the parent", [][2]int64{{-10, 10}, {95, 120}}, 85},
		{"outside the parent", [][2]int64{{200, 300}}, 100},
	} {
		if got := selfTime(0, 100, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestLinkAndAnalyzeAFleetRead(t *testing.T) {
	// One traced fleet read: the client span, the router's handler, two
	// scatter hops and the lifecycle call inside each.
	spans := []span{
		{Trace: "pb-1", ID: 1, Name: spanClient, Start: 0, End: 1000},
		{Trace: "pb-1", ID: 2, Name: spanRouter, Start: 100, End: 900},
		{Trace: "pb-1", ID: 3, Name: spanNode, Start: 200, End: 500},
		{Trace: "pb-1", ID: 4, Name: spanNode, Start: 300, End: 700},
		{Trace: "pb-1", ID: 5, Parent: 3, Name: spanLCRead, Start: 250, End: 450},
		{Trace: "pb-1", ID: 6, Parent: 4, Name: spanLCRead, Start: 350, End: 650},
		// A failed request's spans are left out.
		{Trace: "pb-2", ID: 7, Name: spanClient, Start: 0, End: 5},
	}
	byTrace := link(spans)
	for _, s := range byTrace["pb-1"] {
		want := map[uint64]uint64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 4}[s.ID]
		if s.Parent != want {
			t.Errorf("span %d (%s): parent %d, want %d", s.ID, s.Name, s.Parent, want)
		}
	}
	st := analyze(byTrace, map[string]opKind{"pb-1": opRead})
	const ms = 1e-6
	check := func(name string, got []float64, want float64) {
		t.Helper()
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want [%v]", name, got, want)
		}
	}
	check("transport", st.transport, 200*ms)
	check("router self", st.routerSelf, 300*ms) // 800 minus the hops' union [200,700)
	if want := []float64{100 * ms, 100 * ms}; len(st.nodeSelf) != 2 || st.nodeSelf[0] != want[0] || st.nodeSelf[1] != want[1] {
		t.Errorf("node self = %v, want %v", st.nodeSelf, want) // each hop minus its lifecycle call
	}
	check("hops", st.hops, 2)
	check("slowest hop", st.slowestHop, 400*ms)
	if len(st.lcRead) != 2 {
		t.Errorf("lifecycle reads = %v, want both hops' calls", st.lcRead)
	}
}
