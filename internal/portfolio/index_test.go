package portfolio

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/simulate"
)

// linearAttribute is the reference attribution: every building in
// sorted-name order, each scored against a fresh set of the scan's
// MACs.
func linearAttribute(sets map[string][]string, id string, readings []dataset.Reading, minOverlap float64) (Match, error) {
	if len(readings) == 0 {
		return Match{}, fmt.Errorf("%w: empty scan %q", ErrUnattributable, id)
	}
	var best, second Match
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		macs := make(map[string]bool)
		for _, mac := range sets[name] {
			macs[mac] = true
		}
		hit := 0
		seen := make(map[string]bool)
		for _, rd := range readings {
			if seen[rd.MAC] {
				continue
			}
			seen[rd.MAC] = true
			if macs[rd.MAC] {
				hit++
			}
		}
		overlap := float64(hit) / float64(len(seen))
		if overlap > best.Overlap {
			second = best
			best = Match{Building: name, Overlap: overlap}
		} else if overlap > second.Overlap {
			second = Match{Building: name, Overlap: overlap}
		}
	}
	best.RunnerUp = second.Overlap
	if best.Overlap <= 0 || best.Overlap < minOverlap {
		return Match{}, fmt.Errorf("%w: %q (best overlap %.2f)", ErrUnattributable, id, best.Overlap)
	}
	if second.Overlap == best.Overlap {
		return Match{}, fmt.Errorf("%w: %q (%q vs %q at %.2f)", ErrAmbiguousMatch, id, best.Building, second.Building, best.Overlap)
	}
	return best, nil
}

func readings(macs ...string) []dataset.Reading {
	out := make([]dataset.Reading, len(macs))
	for i, mac := range macs {
		out[i] = dataset.Reading{MAC: mac, RSS: -50}
	}
	return out
}

// TestMACIndexTies pins the tie and miss semantics: a tie names the
// first two tied buildings in sorted-name order whatever order they were
// registered in, and a scan no set holds is unattributable.
func TestMACIndexTies(t *testing.T) {
	x := NewMACIndex()
	x.Set("charlie", 0, []string{"c1", "c2", "shared"})
	x.Set("alpha", 0, []string{"a1", "a2", "shared"})
	x.Set("bravo", 0, []string{"b1", "b2", "shared"})
	cases := []struct {
		name     string
		scan     []dataset.Reading
		building string
		err      error
		msg      string
	}{
		{"three-way tie", readings("shared"), "", ErrAmbiguousMatch,
			`portfolio: scan matches multiple buildings equally: "s" ("alpha" vs "bravo" at 1.00)`},
		{"tie below a leader is no tie", readings("a1", "a2", "b1", "c1"), "alpha", nil, ""},
		{"tie at the top of two", readings("b1", "c1", "a9"), "", ErrAmbiguousMatch,
			`portfolio: scan matches multiple buildings equally: "s" ("bravo" vs "charlie" at 0.33)`},
		{"repeated MAC counts once", readings("c1", "c1", "c1", "b1", "b2"), "bravo", nil, ""},
		{"zero overlap", readings("z1", "z2"), "", ErrUnattributable,
			`portfolio: scan matches no registered building: "s" (best overlap 0.00)`},
		{"empty scan", nil, "", ErrUnattributable,
			`portfolio: scan matches no registered building: empty scan "s"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := x.Attribute("s", tc.scan, 0)
			if !errors.Is(err, tc.err) || (err != nil && err.Error() != tc.msg) {
				t.Fatalf("Attribute = %+v, %v; want %v: %s", m, err, tc.err, tc.msg)
			}
			if m.Building != tc.building {
				t.Fatalf("Attribute picked %q, want %q", m.Building, tc.building)
			}
		})
	}
}

// randomSets draws overlapping MAC sets over a small universe, so random
// scans hit ties, partial overlaps and unknown MACs often.
func randomSets(rng *rand.Rand, buildings, universe int) map[string][]string {
	sets := make(map[string][]string)
	for b := 0; b < buildings; b++ {
		var macs []string
		for m := 0; m < universe; m++ {
			if rng.Intn(4) == 0 {
				macs = append(macs, fmt.Sprintf("m%02d", m))
			}
		}
		sets[fmt.Sprintf("b%d", (b*7)%buildings)] = macs
	}
	return sets
}

func randomScan(rng *rand.Rand, universe int) []dataset.Reading {
	var macs []string
	for n := 1 + rng.Intn(6); n > 0; n-- {
		macs = append(macs, fmt.Sprintf("m%02d", rng.Intn(universe+5))) // some unknown, some repeated
	}
	return readings(macs...)
}

// TestMACIndexMatchesLinearScan checks Attribute against the per-building
// scan it replaced on random portfolios: same building, overlaps and
// error text.
func TestMACIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		sets := randomSets(rng, 1+rng.Intn(8), 20)
		x := NewMACIndex()
		for name, macs := range sets {
			x.Set(name, 0, macs)
		}
		for q := 0; q < 20; q++ {
			scan := randomScan(rng, 20)
			min := []float64{0, 0.5}[rng.Intn(2)]
			want, wantErr := linearAttribute(sets, "q", scan, min)
			got, err := x.Attribute("q", scan, min)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || got != want {
				t.Fatalf("sets %v scan %v: got %+v, %v; want %+v, %v", sets, scan, got, err, want, wantErr)
			}
		}
	}
}

// TestMACIndexRouteMatchesScatter checks Route against asking every
// group's own Attribute and relaying the best answer: the highest overlap
// among strict winners, the lowest group on equal overlap, else the
// lowest group's tie.
func TestMACIndexRouteMatchesScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		const groups = 3
		sets := randomSets(rng, 1+rng.Intn(9), 20)
		x := NewMACIndex()
		perGroup := make([]map[string][]string, groups)
		for g := range perGroup {
			perGroup[g] = make(map[string][]string)
		}
		for name, macs := range sets {
			g := rng.Intn(groups)
			x.Set(name, g, macs)
			perGroup[g][name] = macs
		}
		for q := 0; q < 20; q++ {
			scan := randomScan(rng, 20)
			want, tie := -1, -1
			var bestOverlap float64
			for g := range perGroup {
				m, err := linearAttribute(perGroup[g], "q", scan, 0)
				switch {
				case err == nil:
					if want < 0 || m.Overlap > bestOverlap {
						want, bestOverlap = g, m.Overlap
					}
				case errors.Is(err, ErrAmbiguousMatch) && tie < 0:
					tie = g
				}
			}
			if want < 0 {
				want = tie
			}
			if got, ok := x.Route(scan); got != want || ok != (want >= 0) {
				t.Fatalf("sets %v scan %v: Route = %d, %v; want %d", perGroup, scan, got, ok, want)
			}
		}
	}
}

// TestAttributeAllocationFree holds attribution on a 24-building
// portfolio to zero allocations once its scratch pool is warm.
func TestAttributeAllocationFree(t *testing.T) {
	params := simulate.MicrosoftLike(24, 8, 5)
	params.FloorsMin, params.FloorsMax = 2, 2
	corpus, err := simulate.Generate(params)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	cfg := core.Config{Embed: embed.DefaultConfig()}
	cfg.Embed.SamplesPerEdge = 10
	p := New(cfg)
	var bs []BuildingCorpus
	var scans []dataset.Record
	for i := range corpus.Buildings {
		b := &corpus.Buildings[i]
		train, test, err := dataset.Split(b, 0.8, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		dataset.SelectLabels(train, 2, rand.New(rand.NewSource(int64(i))))
		bs = append(bs, BuildingCorpus{Name: b.Name, Train: train})
		scans = append(scans, test[0])
	}
	if err := p.AddBuildings(context.Background(), bs, 0); err != nil {
		t.Fatalf("AddBuildings: %v", err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Attribute(&scans[i%len(scans)], 0); err != nil {
			t.Fatalf("Attribute: %v", err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Attribute allocates %v times per call on %d buildings, want 0", allocs, len(bs))
	}
}

// TestMACVersionMovesOnlyOnChange checks when a node's index version
// moves: on every change to a MAC set and never otherwise.
func TestMACVersionMovesOnlyOnChange(t *testing.T) {
	p, tests := fleet(t, 2, 13)
	name := p.Buildings()[0]
	ctx := context.Background()
	version := func() uint64 { v, _ := p.MACSets(0); return v }
	step := func(what string, moved bool, op func()) {
		t.Helper()
		before := version()
		op()
		if after := version(); (after != before) != moved {
			t.Errorf("%s: version %d -> %d, want moved=%v", what, before, after, moved)
		}
	}
	v, sets := p.MACSets(0)
	if len(sets) != 2 || len(sets[name]) == 0 {
		t.Fatalf("MACSets(0) = %d buildings, want both with their MACs", len(sets))
	}
	if again, none := p.MACSets(v); again != v || none != nil {
		t.Errorf("MACSets(current) = %d, %d sets; want %d, none", again, len(none), v)
	}

	known := dataset.Record{ID: "known", Readings: readings(sets[name][:3]...)}
	step("absorbing known MACs", false, func() {
		if _, err := p.AbsorbBuilding(ctx, name, &known); err != nil {
			t.Fatal(err)
		}
	})
	step("absorbing a new MAC", true, func() {
		rec := tests[name][1]
		rec.Readings = append(append([]dataset.Reading(nil), rec.Readings...), dataset.Reading{MAC: "new-ap", RSS: -50})
		if _, err := p.AbsorbBuilding(ctx, name, &rec); err != nil {
			t.Fatal(err)
		}
	})
	step("classifying", false, func() {
		if _, err := p.Classify(ctx, &tests[name][2]); err != nil {
			t.Fatal(err)
		}
	})
	sys, err := p.System(name)
	if err != nil {
		t.Fatal(err)
	}
	other, err := p.System(p.Buildings()[1])
	if err != nil {
		t.Fatal(err)
	}
	step("swapping in a model with the same MACs", false, func() {
		if err := p.ReplaceSystem(name, sys); err != nil {
			t.Fatal(err)
		}
	})
	step("retiring a MAC", true, func() {
		if _, err := p.RemoveMAC(ctx, "new-ap"); err != nil {
			t.Fatal(err)
		}
	})
	step("retiring an unknown MAC", false, func() { _, _ = p.RemoveMAC(ctx, "never-seen") })
	step("swapping in a model with other MACs", true, func() {
		if err := p.ReplaceSystem(name, other); err != nil {
			t.Fatal(err)
		}
	})
	step("adopting another portfolio", true, func() { p.Adopt(New(core.Config{})) })
}
