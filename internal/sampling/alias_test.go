package sampling

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewAliasErrors(t *testing.T) {
	tests := []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"all zero", []float64{0, 0, 0}},
		{"negative", []float64{1, -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewAlias(tt.weights); err == nil {
				t.Errorf("NewAlias(%v) expected error", tt.weights)
			}
		})
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a, err := NewAlias([]float64{2.5})
	if err != nil {
		t.Fatalf("NewAlias: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if got := a.Draw(rng); got != 0 {
			t.Fatalf("Draw = %d, want 0", got)
		}
	}
}

func TestAliasEmpiricalDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatalf("NewAlias: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	const draws = 200000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Draw(rng)]++
	}
	total := 1.0 + 2 + 3 + 4
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("outcome %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a, err := NewAlias([]float64{0, 1, 0, 1})
	if err != nil {
		t.Fatalf("NewAlias: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50000; i++ {
		got := a.Draw(rng)
		if got == 0 || got == 2 {
			t.Fatalf("drew zero-weight outcome %d", got)
		}
	}
}

// Property: for any valid weight vector, draws always land in range and the
// table construction never loses outcomes with positive weight.
func TestAliasDrawInRangeProperty(t *testing.T) {
	f := func(raw [6]uint8) bool {
		weights := make([]float64, len(raw))
		var total float64
		for i, v := range raw {
			weights[i] = float64(v)
			total += float64(v)
		}
		if total == 0 {
			return true // construction legitimately fails; tested above
		}
		a, err := NewAlias(weights)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 200; i++ {
			d := a.Draw(rng)
			if d < 0 || d >= len(weights) || weights[d] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeederDeterminism(t *testing.T) {
	a := NewSeeder(99)
	b := NewSeeder(99)
	for i := 0; i < 10; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("seeders diverged at step %d: %d != %d", i, av, bv)
		}
	}
	c := NewSeeder(100)
	if a2, c2 := NewSeeder(99).Next(), c.Next(); a2 == c2 {
		t.Error("different root seeds produced identical first child seed")
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	got := SampleWithoutReplacement(rng, 10, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
	all := SampleWithoutReplacement(rng, 3, 10)
	if len(all) != 3 {
		t.Fatalf("k>n should clamp: len = %d, want 3", len(all))
	}
}

// TestDrawFastDistribution checks that the Fast-RNG draw path reproduces
// the weight distribution like Draw does.
func TestDrawFastDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatalf("NewAlias: %v", err)
	}
	rng := NewFast(42)
	const n = 200000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[a.DrawFast(rng)]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		want := w / total
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("outcome %d frequency %v, want %v +/- 0.01", i, got, want)
		}
	}
}

// TestFastDeterminism pins that Fast streams are reproducible per seed
// (predictions depend on this for save/load round trips).
func TestFastDeterminism(t *testing.T) {
	a, b := NewFast(7), NewFast(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed Fast streams diverge")
		}
	}
	if NewFast(7).Uint64() == NewFast(8).Uint64() {
		t.Error("different seeds produced identical first outputs")
	}
	f := NewFast(9)
	for i := 0; i < 1000; i++ {
		if v := f.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := f.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %v", v)
		}
	}
}

// TestAliasBuilderReuse: tables rebuilt into reused storage must draw
// identically to freshly allocated ones, across shrinking and growing
// weight sets.
func TestAliasBuilderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b AliasBuilder
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(40)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() * 10
		}
		weights[rng.Intn(n)] = 0 // zero entries are legal as long as one is positive
		weights[rng.Intn(n)] = 7
		fresh, err := NewAlias(weights)
		if err != nil {
			t.Fatalf("NewAlias: %v", err)
		}
		reused, err := b.Rebuild(weights)
		if err != nil {
			t.Fatalf("Rebuild: %v", err)
		}
		if fresh.Len() != reused.Len() {
			t.Fatalf("round %d: len %d vs %d", round, reused.Len(), fresh.Len())
		}
		fa, fb := NewFast(int64(round)), NewFast(int64(round))
		for i := 0; i < 500; i++ {
			if x, y := fresh.DrawFast(fa), reused.DrawFast(fb); x != y {
				t.Fatalf("round %d draw %d: fresh %d vs reused %d", round, i, x, y)
			}
		}
		ra, rb := rand.New(rand.NewSource(int64(round))), rand.New(rand.NewSource(int64(round)))
		for i := 0; i < 200; i++ {
			if x, y := fresh.Draw(ra), reused.Draw(rb); x != y {
				t.Fatalf("round %d math/rand draw %d: fresh %d vs reused %d", round, i, x, y)
			}
		}
	}
	if _, err := b.Rebuild(nil); err == nil {
		t.Fatal("Rebuild(nil) should fail")
	}
	if _, err := b.Rebuild([]float64{0, 0}); err == nil {
		t.Fatal("Rebuild(all-zero) should fail")
	}
	if _, err := b.Rebuild([]float64{1, -2}); err == nil {
		t.Fatal("Rebuild(negative) should fail")
	}
}

// TestDrawFastThresholdBoundary: the integer-threshold coin flip must
// agree with the real-valued comparison it replaced on degenerate
// distributions (prob exactly 0 and 1 slots).
func TestDrawFastThresholdBoundary(t *testing.T) {
	a, err := NewAlias([]float64{1, 0, 3})
	if err != nil {
		t.Fatalf("NewAlias: %v", err)
	}
	counts := make([]int, 3)
	rng := NewFast(9)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[a.DrawFast(rng)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight outcome drawn %d times", counts[1])
	}
	got := float64(counts[0]) / draws
	if got < 0.22 || got > 0.28 {
		t.Errorf("outcome 0 frequency %.4f, want ~0.25", got)
	}
}

// TestNewAliasRetainsOnlyItsColumns: a table from NewAlias keeps its
// three columns (prob, alias and thresh: 20 bytes per outcome) and not
// the builder's scaled column and work stacks, which every fit's edge
// table and every served model's negative sampler would otherwise carry.
func TestNewAliasRetainsOnlyItsColumns(t *testing.T) {
	const tables, outcomes = 200, 1000
	weights := make([]float64, outcomes)
	for i := range weights {
		weights[i] = float64(i%7 + 1)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	keep := make([]*Alias, tables)
	before := heap()
	for i := range keep {
		a, err := NewAlias(weights)
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = a
	}
	after := heap()
	runtime.KeepAlive(keep)
	perOutcome := (float64(after) - float64(before)) / (tables * outcomes)
	if perOutcome > 24 {
		t.Fatalf("%.1f bytes per outcome stay reachable, want at most 24 (20 for the columns, plus size-class rounding)", perOutcome)
	}
}
