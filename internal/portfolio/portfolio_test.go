package portfolio

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/simulate"
)

// fleet builds a trained portfolio over n small buildings and returns the
// held-out test records per building.
func fleet(t *testing.T, n int, seed int64) (*Portfolio, map[string][]dataset.Record) {
	t.Helper()
	params := simulate.MicrosoftLike(n, 40, seed)
	params.FloorsMin, params.FloorsMax = 3, 5
	corpus, err := simulate.Generate(params)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 40
	p := New(cfg)
	tests := make(map[string][]dataset.Record)
	for i := range corpus.Buildings {
		b := &corpus.Buildings[i]
		rng := rand.New(rand.NewSource(seed + int64(i)))
		train, test, err := dataset.Split(b, 0.7, rng)
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		dataset.SelectLabels(train, 4, rng)
		if err := p.AddBuildingCtx(context.Background(), b.Name, train); err != nil {
			t.Fatalf("AddBuilding(%s): %v", b.Name, err)
		}
		tests[b.Name] = test
	}
	return p, tests
}

func TestEmptyPortfolio(t *testing.T) {
	p := New(core.Config{})
	rec := dataset.Record{ID: "x", Readings: []dataset.Reading{{MAC: "m", RSS: -50}}}
	if _, err := p.Attribute(&rec, 0); !errors.Is(err, ErrNoBuildings) {
		t.Errorf("Attribute on empty = %v, want ErrNoBuildings", err)
	}
	if _, err := p.System("nope"); !errors.Is(err, ErrUnknownBuilding) {
		t.Errorf("System = %v, want ErrUnknownBuilding", err)
	}
	if len(p.Buildings()) != 0 {
		t.Error("empty portfolio has buildings")
	}
}

func TestDuplicateBuilding(t *testing.T) {
	p, _ := fleet(t, 1, 1)
	name := p.Buildings()[0]
	if err := p.AddBuildingCtx(context.Background(), name, nil); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate = %v, want ErrDuplicateName", err)
	}
}

// TestReservedBuildingNames: registration refuses names the HTTP surface
// cannot address as one route segment.
func TestReservedBuildingNames(t *testing.T) {
	p := New(core.Config{})
	for _, name := range []string{"", "a/b", ".", ".."} {
		if err := p.AddBuildingCtx(context.Background(), name, nil); !errors.Is(err, ErrReservedName) {
			t.Errorf("AddBuilding(%q) = %v, want ErrReservedName", name, err)
		}
	}
	// Names that percent-encode into a route segment stay legal — real
	// corpora contain spaces ("North Tower"); only un-encodable names are
	// rejected. Route-like words such as "batch" are ordinary names.
	for _, name := range []string{"North Tower", "tab\tname", "ünïcode", "batch"} {
		if err := p.AddBuildingCtx(context.Background(), name, nil); errors.Is(err, ErrReservedName) {
			t.Errorf("AddBuilding(%q) rejected as reserved; only validation, not training, should fail", name)
		}
	}
	if len(p.Buildings()) != 0 {
		t.Errorf("invalid registrations persisted: %v", p.Buildings())
	}
}

func TestAttribution(t *testing.T) {
	p, tests := fleet(t, 3, 2)
	correct, total := 0, 0
	for name, pool := range tests {
		for i := range pool {
			m, err := p.Attribute(&pool[i], 0)
			if err != nil {
				t.Fatalf("Attribute: %v", err)
			}
			total++
			if m.Building == name {
				correct++
			}
			if m.Overlap <= m.RunnerUp {
				t.Errorf("winner overlap %v not above runner-up %v", m.Overlap, m.RunnerUp)
			}
		}
	}
	// BSSIDs are globally unique, so attribution should be essentially
	// perfect.
	if correct != total {
		t.Errorf("attribution %d/%d, want perfect", correct, total)
	}
}

func TestAttributionRejectsAlienScan(t *testing.T) {
	p, _ := fleet(t, 2, 3)
	alien := dataset.Record{ID: "alien", Readings: []dataset.Reading{
		{MAC: "ff:ff:ff:00:00:01", RSS: -50},
	}}
	if _, err := p.Attribute(&alien, 0); !errors.Is(err, ErrUnattributable) {
		t.Errorf("alien = %v, want ErrUnattributable", err)
	}
	empty := dataset.Record{ID: "empty"}
	if _, err := p.Attribute(&empty, 0); !errors.Is(err, ErrUnattributable) {
		t.Errorf("empty = %v, want ErrUnattributable", err)
	}
}

func TestMinOverlapThreshold(t *testing.T) {
	p, tests := fleet(t, 2, 4)
	var rec dataset.Record
	for _, pool := range tests {
		rec = pool[0]
		break
	}
	// A scan diluted with unknown MACs falls below a strict threshold.
	diluted := rec
	diluted.Readings = append([]dataset.Reading(nil), rec.Readings...)
	for i := 0; i < len(rec.Readings)*4; i++ {
		diluted.Readings = append(diluted.Readings, dataset.Reading{
			MAC: fmt.Sprintf("un:kn:ow:n0:%02x:%02x", i/256, i%256), RSS: -70,
		})
	}
	if _, err := p.Attribute(&diluted, 0.5); !errors.Is(err, ErrUnattributable) {
		t.Errorf("diluted scan = %v, want ErrUnattributable at 0.5 threshold", err)
	}
	if _, err := p.Attribute(&diluted, 0.05); err != nil {
		t.Errorf("diluted scan at low threshold: %v", err)
	}
}

func TestEndToEndPredict(t *testing.T) {
	p, tests := fleet(t, 3, 5)
	ctx := context.Background()
	correctFloor, total := 0, 0
	for name, pool := range tests {
		for i := range pool[:10] {
			routed, err := p.ClassifyRouted(ctx, &pool[i])
			if err != nil {
				t.Fatalf("ClassifyRouted: %v", err)
			}
			if routed.Building != name {
				t.Errorf("routed to %q, want %q", routed.Building, name)
			}
			total++
			if routed.Result.Floor == pool[i].Floor {
				correctFloor++
			}
		}
	}
	if acc := float64(correctFloor) / float64(total); acc < 0.7 {
		t.Errorf("portfolio floor accuracy %v, want >= 0.7", acc)
	}
}

func TestConcurrentPredict(t *testing.T) {
	p, tests := fleet(t, 2, 6)
	var pool []dataset.Record
	for _, recs := range tests {
		pool = append(pool, recs...)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += 8 {
				if _, err := p.Classify(ctx, &pool[i]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent predict: %v", err)
	}
}

func TestPredictBatchPortfolio(t *testing.T) {
	p, tests := fleet(t, 2, 7)
	var recs []dataset.Record
	want := map[string]string{}
	for name, pool := range tests {
		for _, rec := range pool[:5] {
			recs = append(recs, rec)
			want[rec.ID] = name
		}
	}
	// An unattributable scan must fail only its own slot.
	recs = append(recs, dataset.Record{ID: "alien", Readings: []dataset.Reading{
		{MAC: "no-such-ap", RSS: -40},
	}})
	ctx := context.Background()
	routed, errs := p.ClassifyRoutedBatch(ctx, recs)
	if len(routed) != len(recs) || len(errs) != len(recs) {
		t.Fatalf("batch sizes %d/%d, want %d", len(routed), len(errs), len(recs))
	}
	for i := range recs {
		if building, ok := want[recs[i].ID]; ok {
			if errs[i] != nil {
				t.Errorf("scan %q: %v", recs[i].ID, errs[i])
				continue
			}
			if routed[i].Building != building {
				t.Errorf("scan %q routed to %q, want %q", recs[i].ID, routed[i].Building, building)
			}
		} else if !errors.Is(errs[i], ErrUnattributable) {
			t.Errorf("alien scan error = %v, want ErrUnattributable", errs[i])
		}
	}
	// Batch agrees with sequential ClassifyRouted (same deterministic
	// pipeline is not guaranteed per-call because prediction seeds advance
	// globally, but routing and success/failure must match).
	for i := range recs[:3] {
		one, err := p.ClassifyRouted(ctx, &recs[i])
		if err != nil {
			t.Fatalf("sequential ClassifyRouted: %v", err)
		}
		if one.Building != routed[i].Building {
			t.Errorf("scan %q: batch building %q vs sequential %q", recs[i].ID, routed[i].Building, one.Building)
		}
	}
}

func TestClassifyRouted(t *testing.T) {
	p, tests := fleet(t, 2, 8)
	ctx := context.Background()
	for name, pool := range tests {
		routed, err := p.ClassifyRouted(ctx, &pool[0], core.WithTopK(-1))
		if err != nil {
			t.Fatalf("ClassifyRouted: %v", err)
		}
		if routed.Building != name {
			t.Errorf("routed to %q, want %q", routed.Building, name)
		}
		if routed.Result.Confidence <= 0 || routed.Result.Confidence > 1 {
			t.Errorf("confidence %v outside (0,1]", routed.Result.Confidence)
		}
		if len(routed.Result.Candidates) < 2 {
			t.Errorf("candidates = %d, want every distinct floor", len(routed.Result.Candidates))
		}
	}
	// The interface entry point agrees on the floor-level result shape.
	var c core.Classifier = p
	for _, pool := range tests {
		res, err := c.Classify(ctx, &pool[1])
		if err != nil {
			t.Fatalf("Classify via interface: %v", err)
		}
		if res.Confidence <= 0 {
			t.Errorf("confidence %v, want > 0", res.Confidence)
		}
		break
	}
}

// TestClassifyRoutedMatchesOwner: attribution only picks the building, so
// a fleet classification equals the owning System's own classification
// of the scan, in either order.
func TestClassifyRoutedMatchesOwner(t *testing.T) {
	p, tests := fleet(t, 2, 8)
	ctx := context.Background()
	for name, pool := range tests {
		sys, err := p.System(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pool[:10] {
			routed, err := p.ClassifyRouted(ctx, &pool[i], core.WithTopK(-1))
			if err != nil {
				t.Fatalf("ClassifyRouted(%s): %v", pool[i].ID, err)
			}
			if routed.Building != name {
				t.Fatalf("%s routed to %q, want %q", pool[i].ID, routed.Building, name)
			}
			own, err := sys.Classify(ctx, &pool[i], core.WithTopK(-1))
			if err != nil {
				t.Fatalf("Classify(%s): %v", pool[i].ID, err)
			}
			if !reflect.DeepEqual(routed.Result, own) {
				t.Fatalf("scan %s: fleet gave %+v, owning building %+v", pool[i].ID, routed.Result, own)
			}
		}
	}
}

func TestClassifyBatchCancelledPortfolio(t *testing.T) {
	p, tests := fleet(t, 2, 9)
	var recs []dataset.Record
	for _, pool := range tests {
		for i := 0; i < 30; i++ {
			recs = append(recs, pool...)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := p.ClassifyBatch(ctx, recs)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("item %d error = %v, want context.Canceled", i, err)
		}
	}
}

// TestAbsorbUpdatesAttribution verifies that absorbing a scan through the
// portfolio registers its new MACs with the attribution index: a later
// scan seeing only the new APs still routes to the right building.
func TestAbsorbUpdatesAttribution(t *testing.T) {
	p, tests := fleet(t, 2, 10)
	ctx := context.Background()
	var name string
	var pool []dataset.Record
	for n, recs := range tests {
		name, pool = n, recs
		break
	}
	scan := pool[0]
	scan.Readings = append(append([]dataset.Reading(nil), scan.Readings...),
		dataset.Reading{MAC: "new-ap-01", RSS: -50},
		dataset.Reading{MAC: "new-ap-02", RSS: -55},
	)
	routed, err := p.ClassifyRouted(ctx, &scan, core.WithAbsorb())
	if err != nil {
		t.Fatalf("absorbing ClassifyRouted: %v", err)
	}
	if routed.Building != name {
		t.Fatalf("absorbed into %q, want %q", routed.Building, name)
	}
	// A scan composed of the new APs plus one known MAC must attribute to
	// the same building with full overlap.
	probe := dataset.Record{ID: "probe", Readings: []dataset.Reading{
		{MAC: "new-ap-01", RSS: -52},
		{MAC: "new-ap-02", RSS: -57},
		{MAC: pool[0].Readings[0].MAC, RSS: pool[0].Readings[0].RSS},
	}}
	m, err := p.Attribute(&probe, 0)
	if err != nil {
		t.Fatalf("Attribute after absorb: %v", err)
	}
	if m.Building != name {
		t.Errorf("probe attributed to %q, want %q", m.Building, name)
	}
	if m.Overlap != 1 {
		t.Errorf("probe overlap %v, want 1 (new APs registered)", m.Overlap)
	}
}

func TestRemoveMACFleetWide(t *testing.T) {
	p, tests := fleet(t, 2, 11)
	var mac string
	for _, pool := range tests {
		mac = pool[0].Readings[0].MAC
		break
	}
	// BSSIDs are globally unique in the simulation, so exactly one
	// building knows this MAC.
	n, err := p.RemoveMAC(mac)
	if err != nil {
		t.Fatalf("RemoveMAC: %v", err)
	}
	if n != 1 {
		t.Errorf("affected %d buildings, want 1", n)
	}
	if _, err := p.RemoveMAC(mac); !errors.Is(err, ErrUnknownMAC) {
		t.Errorf("second RemoveMAC = %v, want ErrUnknownMAC", err)
	}
	if _, err := p.RemoveMAC("never-seen"); !errors.Is(err, ErrUnknownMAC) {
		t.Errorf("RemoveMAC(unknown) = %v, want ErrUnknownMAC", err)
	}
}

func TestPortfolioStats(t *testing.T) {
	p, _ := fleet(t, 3, 12)
	stats := p.Stats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d buildings, want 3", len(stats))
	}
	for i, s := range stats {
		if s.Records == 0 || s.MACs == 0 || s.Edges == 0 {
			t.Errorf("building %q has empty stats: %+v", s.Building, s.GraphStats)
		}
		if i > 0 && stats[i-1].Building >= s.Building {
			t.Errorf("stats not sorted by name at %d", i)
		}
	}
}

// TestClassifyDuringHotSwapAndAbsorb hammers pooled classifications while
// one goroutine absorbs scans and another hot-swaps a freshly refit
// System in via ReplaceSystem. Under -race this proves the classify
// workspace pool and the per-System floor-index/negative-sampler caches
// never leak state across the swap: in-flight requests finish on the
// snapshot they started on, later ones see the replacement.
func TestClassifyDuringHotSwapAndAbsorb(t *testing.T) {
	p, tests := fleet(t, 2, 31)
	names := p.Buildings()
	target := names[0]
	pool := tests[target]
	ctx := context.Background()

	// Refit a replacement System up front so the swap itself is quick.
	old, err := p.System(target)
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	replacement := core.New(old.Config())
	if err := replacement.AddTraining(old.CorpusRecords()); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := replacement.FitCtx(ctx); err != nil {
		t.Fatalf("Fit: %v", err)
	}

	const readers = 6
	var wg sync.WaitGroup
	errCh := make(chan error, readers+2)
	swapped := make(chan struct{})
	wg.Add(1)
	go func() { // absorber
		defer wg.Done()
		for i := 0; i < 15; i++ {
			rec := pool[i%len(pool)]
			rec.ID = fmt.Sprintf("%s-hotswap-absorb-%d", rec.ID, i)
			if _, err := p.AbsorbBuilding(ctx, target, &rec); err != nil {
				errCh <- fmt.Errorf("absorb %d: %w", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // swapper
		defer wg.Done()
		defer close(swapped)
		if err := p.ReplaceSystem(target, replacement); err != nil {
			errCh <- fmt.Errorf("ReplaceSystem: %w", err)
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				rec := pool[(w*30+i)%len(pool)]
				if _, err := p.ClassifyRouted(ctx, &rec, core.WithTopK(2)); err != nil {
					errCh <- fmt.Errorf("reader %d iter %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	<-swapped
	// Post-swap the fleet must still classify and route to the target.
	routed, err := p.ClassifyRouted(ctx, &pool[0])
	if err != nil {
		t.Fatalf("post-swap ClassifyRouted: %v", err)
	}
	if routed.Building != target {
		t.Errorf("post-swap routed to %q, want %q", routed.Building, target)
	}
	sys, err := p.System(target)
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	if sys != replacement {
		t.Error("replacement System not installed")
	}
}

// corpora builds n buildings' training corpora without registering them.
func corpora(t *testing.T, n int, seed int64) []BuildingCorpus {
	t.Helper()
	params := simulate.MicrosoftLike(n, 40, seed)
	params.FloorsMin, params.FloorsMax = 3, 4
	corpus, err := simulate.Generate(params)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	out := make([]BuildingCorpus, 0, n)
	for i := range corpus.Buildings {
		b := &corpus.Buildings[i]
		rng := rand.New(rand.NewSource(seed + int64(i)))
		train, _, err := dataset.Split(b, 0.7, rng)
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		dataset.SelectLabels(train, 4, rng)
		out = append(out, BuildingCorpus{Name: b.Name, Train: train})
	}
	return out
}

// TestAddBuildingsParallel registers a fleet through the bulk path and
// asserts every building is trained and routable, matching sequential
// registration of the same corpora.
func TestAddBuildingsParallel(t *testing.T) {
	cs := corpora(t, 4, 77)
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 40

	bulk := New(cfg)
	if err := bulk.AddBuildings(context.Background(), cs, 4); err != nil {
		t.Fatalf("AddBuildings: %v", err)
	}
	if got := bulk.Buildings(); len(got) != 4 {
		t.Fatalf("buildings = %v, want 4", got)
	}
	for _, c := range cs {
		sys, err := bulk.System(c.Name)
		if err != nil {
			t.Fatalf("System(%s): %v", c.Name, err)
		}
		if !sys.Trained() {
			t.Errorf("building %s not trained", c.Name)
		}
		// Each building's own training scans must route back to it.
		routed, err := bulk.ClassifyRouted(context.Background(), &c.Train[0])
		if err != nil {
			t.Fatalf("ClassifyRouted(%s): %v", c.Name, err)
		}
		if routed.Building != c.Name {
			t.Errorf("scan from %s routed to %s", c.Name, routed.Building)
		}
	}
}

// TestAddBuildingsMatchesSerialFits: a building fitted beside others by
// AddBuildings is the building AddBuildingCtx fits alone — the same
// embedding bits and the same seeded classifications — even under the
// StrategyFast setting production configurations still carry. CI runs it
// under -race at -cpu 1,4.
func TestAddBuildingsMatchesSerialFits(t *testing.T) {
	cs := corpora(t, 4, 81)
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 40
	cfg.Embed.Strategy = embed.StrategyFast
	ctx := context.Background()
	bulk := New(cfg)
	if err := bulk.AddBuildings(ctx, cs, 0); err != nil {
		t.Fatalf("AddBuildings: %v", err)
	}
	for _, c := range cs {
		alone := New(cfg)
		if err := alone.AddBuildingCtx(ctx, c.Name, c.Train); err != nil {
			t.Fatalf("AddBuildingCtx(%s): %v", c.Name, err)
		}
		got, err := bulk.System(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := alone.System(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < want.TrainingRecords(); i++ {
			we, err := want.TrainingEmbedding(i)
			if err != nil {
				t.Fatal(err)
			}
			ge, err := got.TrainingEmbedding(i)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(we, ge) {
				t.Fatalf("%s: training record %d embeds to %v beside other fits, %v alone", c.Name, i, ge, we)
			}
		}
		for i := range c.Train[:20] {
			wr, err := want.Classify(ctx, &c.Train[i])
			if err != nil {
				t.Fatal(err)
			}
			gr, err := got.Classify(ctx, &c.Train[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wr, gr) {
				t.Fatalf("%s: scan %s classifies to %+v beside other fits, %+v alone", c.Name, c.Train[i].ID, gr, wr)
			}
		}
	}
}

// TestAddBuildingsValidatesBeforeFitting: duplicate names (against the
// portfolio or within the batch) must fail before any training runs.
func TestAddBuildingsValidatesBeforeFitting(t *testing.T) {
	cs := corpora(t, 2, 78)
	p := New(core.Config{})
	if err := p.AddBuildings(context.Background(), []BuildingCorpus{cs[0], cs[0]}, 2); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("in-batch duplicate = %v, want ErrDuplicateName", err)
	}
	if got := p.Buildings(); len(got) != 0 {
		t.Errorf("failed batch registered buildings: %v", got)
	}
	// A failed batch must release its reservations so a retry works.
	if err := p.AddBuildings(context.Background(), cs, 2); err != nil {
		t.Fatalf("retry after failed batch: %v", err)
	}
	if err := p.AddBuildings(context.Background(), cs[:1], 1); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("existing-name duplicate = %v, want ErrDuplicateName", err)
	}
	if err := p.AddBuildings(context.Background(), []BuildingCorpus{{Name: "a/b"}}, 1); !errors.Is(err, ErrReservedName) {
		t.Errorf("reserved name = %v, want ErrReservedName", err)
	}
}

// TestAddBuildingsCancelled: a cancelled context aborts the batch; no
// half-trained buildings are published and reservations are released.
func TestAddBuildingsCancelled(t *testing.T) {
	cs := corpora(t, 3, 79)
	p := New(core.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.AddBuildings(ctx, cs, 2)
	if err == nil {
		t.Fatal("cancelled AddBuildings succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if got := p.Buildings(); len(got) != 0 {
		t.Errorf("cancelled batch published buildings: %v", got)
	}
	if err := p.AddBuildings(context.Background(), cs, 0); err != nil {
		t.Fatalf("retry after cancelled batch: %v", err)
	}
}

// TestAddBuildingsDivergedFit: a learning rate that drives E-LINE to NaN
// fails each fit with embed.ErrDiverged, passed on through core's FitCtx
// and AddBuildings, instead of panicking on a fit worker and taking the
// process down; no building is published.
func TestAddBuildingsDivergedFit(t *testing.T) {
	cfg := core.Config{Embed: embed.DefaultConfig()}
	cfg.Embed.LearningRate = 1
	p := New(cfg)
	err := p.AddBuildings(context.Background(), corpora(t, 2, 81), 2)
	if !errors.Is(err, embed.ErrDiverged) {
		t.Fatalf("batch error = %v, want wrapped embed.ErrDiverged", err)
	}
	if got := p.Buildings(); len(got) != 0 {
		t.Errorf("buildings = %v, want none published", got)
	}
}

// TestAddBuildingPartialBatchFailure: one bad corpus (no records) fails
// its own building but the siblings still publish.
func TestAddBuildingsPartialFailure(t *testing.T) {
	cs := corpora(t, 2, 80)
	cs = append(cs, BuildingCorpus{Name: "empty-building"})
	p := New(core.Config{})
	err := p.AddBuildings(context.Background(), cs, 2)
	if !errors.Is(err, core.ErrNoTraining) {
		t.Fatalf("batch error = %v, want wrapped ErrNoTraining", err)
	}
	got := p.Buildings()
	if len(got) != 2 {
		t.Fatalf("buildings = %v, want the 2 healthy ones", got)
	}
	for _, name := range got {
		if name == "empty-building" {
			t.Error("failed building was published")
		}
	}
}
