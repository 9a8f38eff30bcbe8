// Package portfolio manages GRAFICS systems for a fleet of buildings — the
// deployment shape of the paper's Microsoft/Kaggle corpus (204 buildings).
// A scan from an unknown location is first attributed to a building by MAC
// overlap against the buildings' MAC sets, held in one inverted index
// (BSSIDs are globally unique, so overlap is a near-perfect building
// fingerprint), then routed to that building's floor-identification
// System.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/par"
)

// Errors returned by the portfolio.
var (
	ErrNoBuildings     = errors.New("portfolio: no buildings registered")
	ErrUnknownBuilding = errors.New("portfolio: unknown building")
	ErrDuplicateName   = errors.New("portfolio: building already registered")
	ErrReservedName    = errors.New("portfolio: building name is reserved")
	ErrUnattributable  = errors.New("portfolio: scan matches no registered building")
	ErrAmbiguousMatch  = errors.New("portfolio: scan matches multiple buildings equally")
	ErrUnknownMAC      = errors.New("portfolio: no building knows that MAC")
)

// validateName rejects names the HTTP surface cannot address as one
// route segment: the empty name, "." and "..", and names containing a
// path separator. Anything else — spaces included — reaches the routes
// percent-encoded.
func validateName(name string) error {
	// "." and ".." are path-cleaned away by the mux before routing, so a
	// building by either name could never be reached.
	if name == "" || name == "." || name == ".." || strings.Contains(name, "/") {
		return fmt.Errorf("%w: %q is not addressable as a route segment", ErrReservedName, name)
	}
	return nil
}

// Match is the result of building attribution for one scan.
type Match struct {
	// Building is the matched building name.
	Building string
	// Overlap is the fraction of the scan's MACs known to that building.
	Overlap float64
	// RunnerUp is the second-best overlap, for ambiguity diagnostics.
	RunnerUp float64
}

// Portfolio routes scans to per-building GRAFICS systems. It is safe for
// concurrent use.
type Portfolio struct {
	mu sync.RWMutex

	cfg core.Config // immutable after New

	// grafics:guardedby mu
	systems map[string]*core.System
	// macs is the attribution index over every published building, all
	// in group 0.
	//
	// grafics:guardedby mu
	macs *MACIndex
	// pending reserves names whose System is still fitting outside the
	// lock, so concurrent registrations of the same name race cleanly and
	// classifications never see a half-built building.
	//
	// grafics:guardedby mu
	pending map[string]struct{}
}

// New returns an empty portfolio; cfg configures every building's System.
func New(cfg core.Config) *Portfolio {
	return &Portfolio{
		cfg:     cfg,
		systems: make(map[string]*core.System),
		macs:    NewMACIndex(),
		pending: make(map[string]struct{}),
	}
}

// AddBuildingCtx registers a building's training records (already labeled
// per the usual budget) and trains its System, with cancellation threaded
// into the fit. Names that cannot be addressed as a route segment (the
// empty name, "." and "..", or names containing a path separator) are
// rejected with ErrReservedName. The expensive offline training runs
// without holding the portfolio lock, so classifications against
// already-registered buildings — and other registrations — proceed while
// a new building fits; the name is reserved up front so a duplicate
// registration fails fast rather than after minutes of training.
func (p *Portfolio) AddBuildingCtx(ctx context.Context, name string, train []dataset.Record) error {
	if err := p.reserve(name); err != nil {
		return err
	}
	sys, err := p.fitBuilding(ctx, name, train)
	if err != nil {
		p.unreserve(name)
		return err
	}
	p.publish(name, sys)
	return nil
}

// reserve claims a building name for an in-flight registration.
func (p *Portfolio) reserve(name string) error {
	if err := validateName(name); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.systems[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	if _, dup := p.pending[name]; dup {
		return fmt.Errorf("%w: %q (registration in progress)", ErrDuplicateName, name)
	}
	p.pending[name] = struct{}{}
	return nil
}

// unreserve releases a claimed name after a failed fit.
func (p *Portfolio) unreserve(name string) {
	p.mu.Lock()
	delete(p.pending, name)
	p.mu.Unlock()
}

// fitBuilding trains one building's System, lock-free.
func (p *Portfolio) fitBuilding(ctx context.Context, name string, train []dataset.Record) (*core.System, error) {
	sys := core.New(p.cfg)
	if err := sys.AddTraining(train); err != nil {
		return nil, fmt.Errorf("portfolio: building %q: %w", name, err)
	}
	if err := sys.FitCtx(ctx); err != nil {
		return nil, fmt.Errorf("portfolio: building %q: %w", name, err)
	}
	return sys, nil
}

// publish installs a fitted building and its attribution MAC set — its
// graph's MACs, every MAC of its training scans — clearing the pending
// reservation.
func (p *Portfolio) publish(name string, sys *core.System) {
	macs := sys.MACs()
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.pending, name)
	p.systems[name] = sys
	p.macs.Set(name, 0, macs)
}

// BuildingCorpus names one building's training corpus for bulk
// registration.
type BuildingCorpus struct {
	Name  string
	Train []dataset.Record
}

// AddBuildings registers and fits many buildings concurrently over a
// bounded worker pool (workers <= 0 means GOMAXPROCS) — the fleet
// bring-up path, where per-building fits are independent and sequential
// training leaves all but one core idle. Each fit trains on its worker's
// goroutine, so workers bounds both the cores bring-up takes and the
// fits it holds in memory at once. All names are validated and
// reserved before any fit starts, so a doomed batch (duplicate or
// reserved name) fails before burning training time. Buildings whose fit
// succeeds are published even when sibling fits fail; the returned error
// joins every per-building failure (nil when all succeeded). Once ctx is
// cancelled, unstarted fits are skipped and in-flight ones abort.
func (p *Portfolio) AddBuildings(ctx context.Context, buildings []BuildingCorpus, workers int) error {
	reserved := make([]string, 0, len(buildings))
	for _, b := range buildings {
		// reserve also rejects a name appearing twice in this batch: the
		// first occurrence is already pending.
		if err := p.reserve(b.Name); err != nil {
			for _, name := range reserved {
				p.unreserve(name)
			}
			return err
		}
		reserved = append(reserved, b.Name)
	}
	errs := make([]error, len(buildings))
	par.ForEachCtxFillBounded(ctx, len(buildings), workers, func(i int) {
		b := buildings[i]
		sys, err := p.fitBuilding(ctx, b.Name, b.Train)
		if err != nil {
			p.unreserve(b.Name)
			errs[i] = err
			return
		}
		p.publish(b.Name, sys)
	}, func(i int, err error) {
		p.unreserve(buildings[i].Name)
		errs[i] = fmt.Errorf("portfolio: building %q: %w", buildings[i].Name, err)
	})
	return errors.Join(errs...)
}

// Buildings returns the sorted registered building names.
func (p *Portfolio) Buildings() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.systems))
	for name := range p.systems {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// System returns the trained System for a building.
func (p *Portfolio) System(name string) (*core.System, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	sys, ok := p.systems[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBuilding, name)
	}
	return sys, nil
}

// ReplaceSystem atomically swaps in a new System for a registered
// building — the hot-swap behind background refits. Classifications in
// flight on the old System finish against it; every classification that
// attributes after the swap routes to the new one. The building's MAC set
// is reset to the new system's graph so routing and model can never
// disagree; the index version moves only if the set changed.
func (p *Portfolio) ReplaceSystem(name string, sys *core.System) error {
	if !sys.Trained() {
		return fmt.Errorf("portfolio: replacement for %q: %w", name, core.ErrNotTrained)
	}
	macs := sys.MACs()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.systems[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBuilding, name)
	}
	p.systems[name] = sys
	p.macs.Set(name, 0, macs)
	return nil
}

// Adopt atomically replaces p's entire fleet — systems and attribution
// index — with other's. Classifications in flight finish against the old
// fleet; every later attribution sees the new one. This is the
// replication re-bootstrap path: a follower whose upstream truncated its
// WAL loads the fresh snapshot into a throwaway portfolio and adopts it,
// keeping the *Portfolio identity its HTTP handler and router hold
// stable. The adopted index takes the next version after p's. The donor
// must be discarded after Adopt (its index is taken over, not copied).
func (p *Portfolio) Adopt(other *Portfolio) {
	other.mu.RLock()
	systems := maps.Clone(other.systems)
	macs := other.macs
	other.mu.RUnlock()
	p.mu.Lock()
	macs.version = p.macs.version + 1
	p.systems = systems
	p.macs = macs
	p.mu.Unlock()
}

// AbsorbBuilding classifies a scan directly against a named building with
// WithAbsorb forced, keeping the attribution MAC index in step — the
// warm-restart path, where the write-ahead log already knows which
// building each journaled scan belongs to and re-attribution by overlap
// could misroute a scan whose building has since grown.
func (p *Portfolio) AbsorbBuilding(ctx context.Context, name string, rec *dataset.Record, opts ...core.Option) (core.Result, error) {
	sys, err := p.System(name)
	if err != nil {
		return core.Result{}, err
	}
	res, err := sys.Classify(ctx, rec, append(append([]core.Option(nil), opts...), core.WithAbsorb())...)
	if err != nil {
		return core.Result{}, fmt.Errorf("portfolio: building %q: %w", name, err)
	}
	p.registerMACs(name, rec)
	return res, nil
}

// Attribute determines which building a scan was taken in by MAC overlap.
// It requires a strict winner with at least minOverlap (use 0 for any
// positive overlap); see MACIndex.Attribute.
//
//grafics:hotpath
func (p *Portfolio) Attribute(rec *dataset.Record, minOverlap float64) (Match, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.systems) == 0 {
		return Match{}, ErrNoBuildings
	}
	return p.macs.Attribute(rec.ID, rec.Readings, minOverlap)
}

// MACSets returns the attribution index's version and, unless since is
// that version, every building's MAC set. A fleet router polls it to keep
// its own index in step without re-fetching unchanged sets.
func (p *Portfolio) MACSets(since uint64) (uint64, map[string][]string) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	v := p.macs.Version()
	if v == since {
		return v, nil
	}
	return v, p.macs.Sets()
}

// Routed is a fleet classification: the attributed building plus the
// floor-level Result from that building's System.
type Routed struct {
	// Building is the attributed building name.
	Building string
	// Match carries the attribution diagnostics (overlap, runner-up).
	Match Match
	// Result is the floor classification within that building.
	Result core.Result
}

var _ core.Classifier = (*Portfolio)(nil)

// Classify implements core.Classifier: the scan is attributed to a
// building by MAC overlap and classified by that building's System. The
// attribution itself is available via ClassifyRouted; options are passed
// through to the building's Classify (WithAbsorb grows that building's
// graph and registers any new MACs with the attribution index).
func (p *Portfolio) Classify(ctx context.Context, rec *dataset.Record, opts ...core.Option) (core.Result, error) {
	routed, err := p.ClassifyRouted(ctx, rec, opts...)
	return routed.Result, err
}

// ClassifyRouted is Classify keeping the building attribution: which
// building won, at what MAC overlap, and the floor Result within it.
func (p *Portfolio) ClassifyRouted(ctx context.Context, rec *dataset.Record, opts ...core.Option) (Routed, error) {
	if err := ctx.Err(); err != nil {
		return Routed{}, err
	}
	match, err := p.Attribute(rec, 0)
	if err != nil {
		return Routed{}, err
	}
	sys, err := p.System(match.Building)
	if err != nil {
		return Routed{}, err
	}
	req := core.NewRequest(rec, opts...)
	res, err := sys.Do(ctx, req)
	if err != nil {
		return Routed{}, fmt.Errorf("portfolio: building %q: %w", match.Building, err)
	}
	if req.Absorb() {
		// The absorbed scan's MACs (including newly installed APs) now
		// belong to the building's graph; keep the attribution index in
		// step so future scans seeing those APs route correctly.
		p.registerMACs(match.Building, rec)
	}
	return Routed{Building: match.Building, Match: match, Result: res}, nil
}

// registerMACs adds a scan's MACs to a building's attribution set. Only
// MACs the building's graph actually holds are indexed: between the
// absorb and this call a concurrent RemoveMAC may have retired one, and
// indexing it anyway would leave the attribution set claiming a phantom
// AP. RemoveMAC mutates graph and index under the same p.mu, so checking
// the graph here closes that window.
func (p *Portfolio) registerMACs(building string, rec *dataset.Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sys, ok := p.systems[building]
	if !ok {
		return
	}
	for _, rd := range rec.Readings {
		if sys.HasMAC(rd.MAC) {
			p.macs.Add(building, rd.MAC)
		}
	}
}

// ClassifyBatch implements core.Classifier: attribution and floor
// inference for many scans over a GOMAXPROCS-sized worker pool, both
// under shared read locks, so the batch scales with cores. Once ctx is
// done, workers stop claiming records and every unstarted record fails
// with ctx.Err(), so a cancelled batch returns promptly.
func (p *Portfolio) ClassifyBatch(ctx context.Context, records []dataset.Record, opts ...core.Option) ([]core.Result, []error) {
	routed, errs := p.ClassifyRoutedBatch(ctx, records, opts...)
	results := make([]core.Result, len(records))
	for i := range routed {
		results[i] = routed[i].Result
	}
	return results, errs
}

// ClassifyRoutedBatch is ClassifyBatch keeping per-record building
// attributions.
func (p *Portfolio) ClassifyRoutedBatch(ctx context.Context, records []dataset.Record, opts ...core.Option) ([]Routed, []error) {
	routed := make([]Routed, len(records))
	errs := make([]error, len(records))
	par.ForEachCtxFill(ctx, len(records), func(i int) {
		routed[i], errs[i] = p.ClassifyRouted(ctx, &records[i], opts...)
	}, func(i int, err error) {
		errs[i] = err
	})
	return routed, errs
}

// RemoveMAC retires an access point fleet-wide (AP churn): every building
// whose MAC set knows the address drops it from both its graph and the
// attribution index. It returns how many buildings were affected;
// ErrUnknownMAC means none were.
func (p *Portfolio) RemoveMAC(mac string) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	affected := 0
	for _, name := range p.macs.Remove(mac) {
		// A graph that no longer holds the MAC (index drift) just means
		// there is nothing left to remove there; the index entry is gone
		// already, so keep going rather than abort the fleet-wide removal.
		if err := p.systems[name].RemoveMAC(mac); err == nil {
			affected++
		}
	}
	if affected == 0 {
		return 0, fmt.Errorf("%w: %q", ErrUnknownMAC, mac)
	}
	return affected, nil
}

// BuildingStats pairs a building name with its graph statistics.
type BuildingStats struct {
	Building string
	core.GraphStats
}

// Stats returns per-building graph statistics, sorted by building name.
func (p *Portfolio) Stats() []BuildingStats {
	p.mu.RLock()
	names := make([]string, 0, len(p.systems))
	systems := make([]*core.System, 0, len(p.systems))
	for name := range p.systems {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		systems = append(systems, p.systems[name])
	}
	p.mu.RUnlock()
	out := make([]BuildingStats, len(names))
	for i, name := range names {
		out[i] = BuildingStats{Building: name, GraphStats: systems[i].Stats()}
	}
	return out
}
