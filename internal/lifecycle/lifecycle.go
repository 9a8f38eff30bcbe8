// Package lifecycle manages the durability and freshness of a crowd-grown
// GRAFICS portfolio — the deployment mode of the paper where every
// classified scan can be absorbed to enrich the graph. It closes two gaps
// that a bare portfolio leaves open in production:
//
// Durability. Absorbed scans live only in process memory; a restart
// discards the crowd corpus. The Manager journals every absorb to an
// append-only write-ahead log (internal/wal) before acknowledging it, and
// periodically captures the whole fleet in a portfolio snapshot (manifest
// plus per-building gobs under a state directory). OpenCtx restores the
// snapshot and replays the WAL tail, so a SIGKILL loses at most the
// absorb that was mid-append.
//
// Freshness. Absorbed scans are embedded against the frozen model and
// never re-trained, so the E-LINE model drifts away from the graph it
// serves. The Manager tracks per-building staleness — absorbed-since-fit
// count, overlay/anchor record ratio, and model age — and when a Policy
// threshold trips it re-Fits the building in a background goroutine on a
// copy of the accumulated corpus, then atomically hot-swaps the new
// core.System into the portfolio while classifications continue against
// the old one. After a successful swap it snapshots the fleet and
// truncates the WAL, bounding the log by the refit cadence.
//
// All writes (absorbs) must flow through the Manager for the journal to
// be complete; reads may use the Manager or the portfolio directly.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/wal"
)

// Policy sets the staleness thresholds that trigger a background refit.
// A zero value for any threshold disables that trigger; the zero Policy
// never refits on its own (ForceRefit still works).
type Policy struct {
	// RefitAfterAbsorbs refits a building once it has absorbed this many
	// scans since its last fit.
	RefitAfterAbsorbs int `json:"refit_after_absorbs,omitempty"`
	// MaxOverlayRatio refits once absorbed-since-fit records exceed this
	// fraction of the records the model was fitted on — the share of the
	// graph the frozen embedding has never trained on.
	MaxOverlayRatio float64 `json:"max_overlay_ratio,omitempty"`
	// MaxModelAge refits a building whose last fit is older than this.
	MaxModelAge time.Duration `json:"max_model_age,omitempty"`
	// CheckInterval is how often the age trigger is evaluated (count and
	// ratio triggers are evaluated on every absorb). 0 means a minute.
	CheckInterval time.Duration `json:"check_interval,omitempty"`
}

// enabled reports whether any automatic trigger is configured.
func (p Policy) enabled() bool {
	return p.RefitAfterAbsorbs > 0 || p.MaxOverlayRatio > 0 || p.MaxModelAge > 0
}

// Options configures a Manager.
type Options struct {
	// StateDir is where snapshots (manifest + per-building gobs) and the
	// WAL (a wal/ subdirectory) live. Empty disables durability: no
	// journal, no snapshots — the Manager still refits per Policy.
	StateDir string
	// WAL tunes the write-ahead log; Dir is derived from StateDir and
	// ignored if set.
	WAL wal.Options
	// Policy sets the refit triggers.
	Policy Policy
	// Logf receives operational log lines (refit started/finished,
	// snapshot written, replay progress). Nil discards them.
	Logf func(format string, args ...any)
	// Now overrides the clock, for tests. Nil means time.Now.
	Now func() time.Time
	// DegradedThreshold is how many consecutive journal failures flip
	// the manager into degraded read-only mode (absorbs refused with
	// ErrDegraded, reads unaffected). 0 means defaultDegradedThreshold.
	DegradedThreshold int
	// DegradedProbe is how often a degraded manager admits one absorb
	// to probe the journal for recovery, and the Retry-After hint for
	// the ones it sheds. 0 means defaultDegradedProbe.
	DegradedProbe time.Duration
}

func (o Options) degradedThreshold() int {
	if o.DegradedThreshold > 0 {
		return o.DegradedThreshold
	}
	return defaultDegradedThreshold
}

func (o Options) degradedProbe() time.Duration {
	if o.DegradedProbe > 0 {
		return o.DegradedProbe
	}
	return defaultDegradedProbe
}

// walSubdir is the WAL directory under StateDir.
const walSubdir = "wal"

// buildingState is the Manager's per-building refit bookkeeping.
// Staleness itself (absorbed-since-fit, record counts) is read from the
// live core.System, which is authoritative by construction: a refit
// starts a fresh absorb ledger and a snapshot restore repopulates it.
type buildingState struct {
	lastFit       time.Time
	refitting     bool
	refitStarted  time.Time // when the in-flight refit began; zero when idle
	refits        int
	lastRefitErr  string
	lastRefitAt   time.Time // when the last refit attempt finished
	lastRefitTime time.Duration
}

// Manager wraps a portfolio with the durable model lifecycle. It
// classifies one scan per call; absorbing classifications and MAC
// retirements are journaled, and absorbs count toward the refit policy.
// Safe for concurrent use.
type Manager struct {
	p        *portfolio.Portfolio
	log      *wal.Log // nil when StateDir is empty
	stateDir string
	policy   Policy
	logf     func(string, ...any)
	now      func() time.Time

	// mu coordinates writers: absorbs (journal + graph write) hold it
	// shared; snapshotting, WAL truncation, and the hot-swap's drain
	// phase hold it exclusively. Read-only classifications never touch
	// it, so they continue through snapshots and swaps.
	mu sync.RWMutex

	// stmu guards st, the snapshot counters, and closing. The refitting
	// flag and wg.Add live under it so startRefit cannot race Close's
	// wg.Wait (the WaitGroup-reuse misuse the sync docs forbid).
	stmu sync.Mutex
	// grafics:guardedby stmu
	st map[string]*buildingState
	// grafics:guardedby stmu
	snapshots int
	// grafics:guardedby stmu
	lastSnapshot time.Time
	// grafics:guardedby stmu
	replayed int // WAL records replayed at OpenCtx
	// grafics:guardedby stmu
	closing bool

	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once

	// refitCtx is cancelled by Close before it waits on wg, so an
	// in-flight background re-fit (embedding SGD plus agglomeration, the
	// long pole of shutdown) aborts within milliseconds instead of
	// training a model nobody will serve. The old model keeps serving.
	refitCtx    context.Context
	refitCancel context.CancelFunc

	// Degraded read-only mode: consecutive journal failures trip the
	// manager into refusing absorbs (ErrDegraded) while reads continue;
	// a periodic probe absorb clears it once the journal recovers.
	degThreshold int
	degProbe     time.Duration
	degMu        sync.Mutex
	// grafics:guardedby degMu
	degraded bool
	// grafics:guardedby degMu
	degFails int
	// grafics:guardedby degMu
	degProbeAt time.Time
}

// OpenCtx restores (or cold-starts) a managed portfolio. With a
// StateDir, it loads the portfolio snapshot if one exists (cold start
// otherwise), replays the WAL tail — every absorb acknowledged after the
// last snapshot — into the restored models, and opens the journal for
// new absorbs. cfg configures buildings registered after the restore.
//
// Cancellation is threaded through the boot sequence: WAL-tail replay
// re-runs every absorb acknowledged since the last snapshot through the
// full inference pipeline, which on a large fleet is the slow half of a
// restart, so a cancelled ctx (deploy rollback, SIGTERM during boot)
// aborts the restore promptly with ctx.Err() instead of finishing a boot
// nobody wants. ctx governs only the open itself, not the returned
// Manager's lifetime — background refits are cancelled by Close, not by
// ctx.
func OpenCtx(ctx context.Context, cfg core.Config, opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	logf := opts.Logf
	p := portfolio.New(cfg)
	replayed := 0
	if opts.StateDir != "" {
		restored, err := portfolio.LoadPortfolio(opts.StateDir, cfg)
		switch {
		case err == nil:
			p = restored
			logf("lifecycle: restored %d buildings from %s", len(p.Buildings()), opts.StateDir)
		case errors.Is(err, portfolio.ErrNoManifest):
			logf("lifecycle: no snapshot in %s, cold start", opts.StateDir)
		default:
			return nil, err
		}
		// Replay before opening: the journal's torn tail, if any, is the
		// crash point, and Open would add a fresh segment after it.
		skipped := 0
		n, err := wal.Replay(walPath(opts.StateDir), func(r wal.Record) error {
			if err := ctx.Err(); err != nil {
				// Abort the boot: a half-replayed portfolio must not open.
				return err
			}
			if aerr := ApplyRecord(ctx, p, r); aerr != nil {
				// A record for a building the snapshot doesn't know (or a
				// scan the restored model rejects) cannot be replayed;
				// dropping it beats refusing to boot the whole fleet.
				skipped++
				logf("lifecycle: replay: skipping %s: %v", describeRecord(&r), aerr)
			} else {
				replayed++
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lifecycle: wal replay: %w", err)
		}
		if n > 0 {
			logf("lifecycle: replayed %d/%d journaled absorbs", replayed, n)
		}
		replayedTotal.Add(int64(replayed))
	}

	m, err := newManager(p, opts, replayed)
	if err != nil {
		return nil, err
	}
	// Fold a non-trivial replay into a fresh snapshot right away:
	// otherwise a crash-looping process re-replays (and re-grows) the WAL
	// on every boot, unbounded, since nothing else truncates it until a
	// graceful shutdown or a refit. Failure is non-fatal — the WAL still
	// holds the records.
	if m.stateDir != "" && replayed > 0 {
		if err := m.Snapshot(); err != nil {
			logf("lifecycle: post-replay snapshot failed: %v", err)
		}
	}
	// A fleet restored with a deep WAL may already be past a threshold;
	// catch up instead of waiting for the next absorb.
	for _, name := range p.Buildings() {
		m.maybeRefit(name)
	}
	return m, nil
}

// Manage wraps an already-populated portfolio in a Manager without any
// restore: no snapshot load, no WAL replay — the portfolio is taken as
// the current truth. This is the replication promotion path: a follower
// that has applied the shipped log up to the primary's death already
// holds the freshest state in memory, and wrapping it (rather than
// re-opening from disk) turns it into a primary without a restart. With
// a StateDir, Manage opens a fresh journal and immediately snapshots the
// adopted fleet, so the new primary's durability contract starts at the
// moment of promotion; any stale WAL content under StateDir from an
// earlier incarnation is superseded by that snapshot.
func Manage(p *portfolio.Portfolio, opts Options) (*Manager, error) {
	m, err := newManager(p, opts, 0)
	if err != nil {
		return nil, err
	}
	if m.stateDir != "" {
		if err := m.Snapshot(); err != nil {
			m.Close()
			return nil, fmt.Errorf("lifecycle: adoption snapshot: %w", err)
		}
	}
	return m, nil
}

// withDefaults fills in the zero Logf, Now and Policy.CheckInterval.
func (o Options) withDefaults() Options {
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Policy.CheckInterval <= 0 {
		o.Policy.CheckInterval = time.Minute
	}
	return o
}

// newManager builds the Manager over p, which OpenCtx has restored and
// Manage adopts: it opens the journal under opts.StateDir (none without
// one) and starts the age loop.
func newManager(p *portfolio.Portfolio, opts Options, replayed int) (*Manager, error) {
	opts = opts.withDefaults()
	var jrnl *wal.Log
	if opts.StateDir != "" {
		walOpts := opts.WAL
		walOpts.Dir = walPath(opts.StateDir)
		var err error
		if jrnl, err = wal.Open(walOpts); err != nil {
			return nil, err
		}
	}
	// grafics:ctxok manager-lifetime root: refits outlive the open ctx and are cancelled by Close
	refitCtx, refitCancel := context.WithCancel(context.Background())
	m := &Manager{
		p:            p,
		log:          jrnl,
		stateDir:     opts.StateDir,
		policy:       opts.Policy,
		logf:         opts.Logf,
		now:          opts.Now,
		st:           make(map[string]*buildingState),
		replayed:     replayed,
		stop:         make(chan struct{}),
		refitCtx:     refitCtx,
		refitCancel:  refitCancel,
		degThreshold: opts.degradedThreshold(),
		degProbe:     opts.degradedProbe(),
	}
	if m.policy.MaxModelAge > 0 {
		m.wg.Add(1)
		go m.ageLoop()
	}
	return m, nil
}

// WALPosition reports the journal's replication coordinates: its epoch
// (changes on every truncation) and the current append position. ok is
// false when the manager runs without durability (no WAL to replicate).
func (m *Manager) WALPosition() (epoch string, pos wal.Position, ok bool) {
	if m.log == nil {
		return "", wal.Position{}, false
	}
	return m.log.Epoch(), m.log.Position(), true
}

// CaptureSnapshot writes a consistent point-in-time snapshot of the
// fleet into dir — not the manager's state directory; the journal is NOT
// truncated — and returns the WAL epoch and append position the snapshot
// corresponds to. It holds the exclusive writer lock, so no absorb is
// mid-journal while the portfolio is saved: every record at or past the
// returned position is exactly the set of writes the snapshot does not
// contain. This is the replication bootstrap source — a follower restores
// the captured snapshot and tails the WAL from the returned position.
func (m *Manager) CaptureSnapshot(dir string) (epoch string, pos wal.Position, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.p.Save(dir); err != nil {
		return "", wal.Position{}, err
	}
	if m.log != nil {
		epoch = m.log.Epoch()
		pos = m.log.Position()
	}
	return epoch, pos, nil
}

// walPath returns the WAL directory under a state dir.
func walPath(stateDir string) string { return filepath.Join(stateDir, walSubdir) }

// WALDir exposes the WAL directory under a state dir — where a
// replication source finds the raw segment files to ship.
func WALDir(stateDir string) string { return walPath(stateDir) }

// ApplyRecord applies one journaled record to a portfolio: an absorb is
// routed to its attributed building (no re-attribution — the journal
// already knows the owner), a retirement is re-run fleet-wide. This is
// the single replay path shared by boot-time WAL recovery and by
// replication followers applying a shipped log, so the two can never
// drift in how they interpret a record. ErrUnknownMAC on a retirement is
// not an error: no restored building holds the AP anymore (e.g. retired
// again after a re-absorb), which is already the desired end state.
func ApplyRecord(ctx context.Context, p *portfolio.Portfolio, r wal.Record) error {
	if r.RetireMAC != "" {
		if _, err := p.RemoveMAC(ctx, r.RetireMAC); err != nil && !errors.Is(err, portfolio.ErrUnknownMAC) {
			return err
		}
		return nil
	}
	_, err := p.AbsorbBuilding(ctx, r.Building, &r.Scan)
	return err
}

// describeRecord names a record for log lines.
func describeRecord(r *wal.Record) string {
	if r.RetireMAC != "" {
		return fmt.Sprintf("retirement of %q", r.RetireMAC)
	}
	return fmt.Sprintf("absorb %q for %q", r.Scan.ID, r.Building)
}

// Portfolio returns the managed portfolio, for registration
// (AddBuilding) and read paths that want to skip the Manager.
func (m *Manager) Portfolio() *portfolio.Portfolio { return m.p }

// state returns (creating if needed) the bookkeeping for a building. The
// caller must not hold stmu.
func (m *Manager) state(name string) *buildingState {
	m.stmu.Lock()
	defer m.stmu.Unlock()
	bs, ok := m.st[name]
	if !ok {
		bs = &buildingState{lastFit: m.now()}
		m.st[name] = bs
	}
	return bs
}

// Classify classifies one scan. Read-only classifications pass straight
// through to the portfolio; absorbing ones are journaled to the WAL
// before the call returns and counted toward the refit policy.
func (m *Manager) Classify(ctx context.Context, rec *dataset.Record, opts ...core.Option) (core.Result, error) {
	routed, err := m.ClassifyRouted(ctx, rec, opts...)
	return routed.Result, err
}

// ClassifyRouted is Classify keeping the building attribution.
func (m *Manager) ClassifyRouted(ctx context.Context, rec *dataset.Record, opts ...core.Option) (portfolio.Routed, error) {
	if !core.NewRequest(rec, opts...).Absorb() {
		return m.p.ClassifyRouted(ctx, rec, opts...)
	}
	if err := m.admitAbsorb(); err != nil {
		return portfolio.Routed{}, err
	}
	routed, err := func() (portfolio.Routed, error) {
		m.mu.RLock()
		defer m.mu.RUnlock()
		routed, err := m.p.ClassifyRouted(ctx, rec, opts...)
		if err == nil {
			spanDone := obs.StartSpan(ctx, "journal")
			err = m.journal(wal.Record{Building: routed.Building, Scan: *rec})
			spanDone()
		}
		return routed, err
	}()
	if err == nil {
		m.maybeRefit(routed.Building)
	}
	return routed, err
}

// RemoveMAC retires an access point fleet-wide, journaled so the
// retirement survives a crash exactly like an absorb does (snapshot
// restores and refits re-apply it from the per-building retirement sets;
// the WAL covers the window since the last snapshot).
func (m *Manager) RemoveMAC(ctx context.Context, mac string) (int, error) {
	if err := m.admitAbsorb(); err != nil {
		return 0, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, err := m.p.RemoveMAC(ctx, mac)
	if err == nil {
		err = m.journal(wal.Record{RetireMAC: mac})
	}
	return n, err
}

// journal appends one write to the WAL. The caller holds m.mu (shared),
// which orders the append strictly before any snapshot's WAL truncation.
// An append failure is returned so the caller fails the request instead
// of acknowledging a write that would not survive a crash: the write did
// land in memory (and the next snapshot would capture it), but the
// durability contract is journal-before-ack, and a client retry after
// the error at worst duplicates a crowd scan.
func (m *Manager) journal(rec wal.Record) error {
	if m.log == nil {
		return nil
	}
	err := m.log.Append(rec)
	m.noteJournal(err)
	if err != nil {
		what := "absorb " + rec.Scan.ID
		if rec.RetireMAC != "" {
			what = "retirement of " + rec.RetireMAC
		}
		m.logf("lifecycle: WAL append failed, %s applied in memory but not durable: %v", what, err)
		return fmt.Errorf("lifecycle: journal: %w", err)
	}
	journaledWritesTotal.Inc()
	return nil
}

// Snapshot captures the whole fleet under the state directory and
// truncates the WAL. It blocks absorbs (exclusive writer lock) for the
// duration, so every journaled absorb is either inside the snapshot or
// appended after the truncation — never lost between the two; read-only
// classifications continue throughout. Snapshot is a no-op without a
// state directory.
func (m *Manager) Snapshot() error {
	if m.stateDir == "" {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}

// snapshotLocked writes the snapshot and truncates the WAL. The caller
// holds m.mu exclusively.
func (m *Manager) snapshotLocked() error {
	if m.stateDir == "" {
		return nil
	}
	start := m.now()
	if err := m.p.Save(m.stateDir); err != nil {
		return err
	}
	// Only a captured journal may be dropped: if Reset fails the WAL just
	// replays extra (now snapshotted) absorbs on the next boot, which
	// re-absorb as duplicates rather than losing data.
	if m.log != nil {
		if err := m.log.Reset(); err != nil {
			m.logf("lifecycle: WAL truncate after snapshot failed: %v", err)
		}
	}
	m.stmu.Lock()
	m.snapshots++
	m.lastSnapshot = m.now()
	m.stmu.Unlock()
	snapshotsTotal.Inc()
	lastSnapshotUnix.SetInt(m.now().Unix())
	m.logf("lifecycle: snapshot of %d buildings written to %s in %v",
		len(m.p.Buildings()), m.stateDir, m.now().Sub(start).Round(time.Millisecond))
	return nil
}

// staleness evaluates the policy for one building. It returns the trigger
// description, or "" if the building is fresh.
func (m *Manager) staleness(name string, bs *buildingState) string {
	sys, err := m.p.System(name)
	if err != nil {
		return ""
	}
	absorbed := sys.AbsorbedRecords()
	if n := m.policy.RefitAfterAbsorbs; n > 0 && absorbed >= n {
		return fmt.Sprintf("absorbed %d >= %d", absorbed, n)
	}
	if r := m.policy.MaxOverlayRatio; r > 0 {
		if train := sys.TrainingRecords(); train > 0 && float64(absorbed)/float64(train) >= r {
			return fmt.Sprintf("overlay ratio %.3f >= %.3f", float64(absorbed)/float64(train), r)
		}
	}
	if a := m.policy.MaxModelAge; a > 0 {
		m.stmu.Lock()
		age := m.now().Sub(bs.lastFit)
		m.stmu.Unlock()
		if age >= a {
			return fmt.Sprintf("model age %v >= %v", age.Round(time.Second), a)
		}
	}
	return ""
}

// maybeRefit starts a background refit of name if the policy says so and
// none is already running.
func (m *Manager) maybeRefit(name string) {
	// Refresh the staleness gauge on every absorb (and every age tick)
	// regardless of policy: lag between crowd growth and the last fit is
	// worth watching even when automatic refits are off.
	if sys, err := m.p.System(name); err == nil {
		absorbedSinceFit.With(name).SetInt(int64(sys.AbsorbedRecords()))
	}
	if !m.policy.enabled() {
		return
	}
	bs := m.state(name)
	why := m.staleness(name, bs)
	if why == "" {
		return
	}
	m.startRefit(name, bs, why)
}

// startRefit flips the refitting flag and launches the background refit
// goroutine; it is a no-op if one is already running or the manager is
// closing. The flag, the closing check, and wg.Add happen under one lock
// so a refit can never be launched after Close's wg.Wait has started.
func (m *Manager) startRefit(name string, bs *buildingState, why string) bool {
	m.stmu.Lock()
	if m.closing || bs.refitting {
		m.stmu.Unlock()
		return false
	}
	bs.refitting = true
	bs.refitStarted = m.now()
	m.wg.Add(1)
	m.stmu.Unlock()
	refitsRunning.Add(1)
	m.logf("lifecycle: refit of %q starting (%s)", name, why)
	go m.refit(name, bs)
	return true
}

// ForceRefit triggers a refit regardless of thresholds. An empty name
// refits every registered building. It returns the buildings whose refit
// was started (already-running ones are skipped).
func (m *Manager) ForceRefit(name string) ([]string, error) {
	names := []string{name}
	if name == "" {
		names = m.p.Buildings()
	} else if _, err := m.p.System(name); err != nil {
		return nil, err
	}
	var started []string
	for _, n := range names {
		if m.startRefit(n, m.state(n), "forced") {
			started = append(started, n)
		}
	}
	return started, nil
}

// refit retrains one building on its accumulated corpus and hot-swaps the
// result in. The expensive Fit runs without any lifecycle lock held:
// classifications and absorbs continue against the old model. The final
// drain-swap-snapshot runs under the exclusive writer lock, so the
// absorbs that raced with training are replayed into the new model before
// it goes live and the post-swap snapshot + WAL truncation observe a
// quiescent journal.
func (m *Manager) refit(name string, bs *buildingState) {
	defer m.wg.Done()
	start := m.now()
	err := m.refitOnce(m.refitCtx, name)

	m.stmu.Lock()
	bs.refitting = false
	bs.refitStarted = time.Time{}
	bs.lastRefitAt = m.now()
	bs.lastRefitTime = m.now().Sub(start)
	if err != nil {
		bs.lastRefitErr = err.Error()
	} else {
		bs.lastRefitErr = ""
		bs.refits++
		bs.lastFit = m.now()
	}
	m.stmu.Unlock()
	refitsRunning.Add(-1)
	refitSeconds.Observe(m.now().Sub(start).Seconds())
	switch {
	case err == nil:
		refitsTotal.With("ok").Inc()
		absorbedSinceFit.With(name).Set(0) // the swapped-in model is fresh
	case errors.Is(err, context.Canceled):
		refitsTotal.With("canceled").Inc()
	default:
		refitsTotal.With("err").Inc()
	}
	if err != nil {
		m.logf("lifecycle: refit of %q failed after %v: %v", name, m.now().Sub(start).Round(time.Millisecond), err)
		return
	}
	m.logf("lifecycle: refit of %q done in %v", name, m.now().Sub(start).Round(time.Millisecond))
}

// refitOnce performs one refit cycle for a building. A cancelled ctx
// (manager shutting down) aborts the expensive training stages promptly;
// the old model keeps serving and nothing is swapped.
func (m *Manager) refitOnce(ctx context.Context, name string) error {
	sys, err := m.p.System(name)
	if err != nil {
		return err
	}
	// Copy the accumulated corpus (training + absorbed records) and
	// derive how many absorbs it covers from that one atomic snapshot —
	// reading the absorb count separately would open a window where a
	// racing absorb lands in neither the corpus nor the drain tail. The
	// training count is immutable once a system is fitted, so the
	// subtraction is exact.
	corpus := sys.CorpusRecords()
	drained := len(corpus) - sys.TrainingRecords()

	next := core.New(sys.Config())
	if err := next.AddTraining(corpus); err != nil {
		return fmt.Errorf("refit %q: %w", name, err)
	}
	// Re-apply AP retirements before training: the corpus records still
	// reference retired MACs, and without this the refit would resurrect
	// them — in the graph, in the embedding, and in the attribution index
	// rebuilt at swap time.
	for _, mac := range sys.RetiredMACs() {
		if err := next.RemoveMAC(mac); err != nil {
			return fmt.Errorf("refit %q: re-apply retirement of %q: %w", name, mac, err)
		}
	}
	if err := next.FitCtx(ctx); err != nil {
		return fmt.Errorf("refit %q: %w", name, err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	// Drain: absorbs that landed while Fit was running exist in the old
	// model and the WAL but not in the new fit; carry them over under
	// their names, with the old model's absorb count, so the swap loses
	// nothing and renames nothing. New absorbs are blocked (m.mu held
	// exclusively), so the tail is final. The drain runs to completion
	// even on a cancelled ctx — it is cheap, and stopping halfway would
	// swap in a model missing acknowledged absorbs.
	if err := next.Carry(sys, drained); err != nil {
		// The corpus is a superset of the old model's, so this is
		// near-impossible; the scans stay journaled for the next boot.
		m.logf("lifecycle: refit %q: could not carry every absorb forward: %v", name, err)
	}
	// Retirements that landed while Fit was running (or that a replayed
	// tail absorb re-introduced out of order) are settled against the old
	// system's final retirement set, which tracks retire-then-reabsorb
	// sequences.
	for _, mac := range sys.RetiredMACs() {
		if next.HasMAC(mac) {
			if err := next.RemoveMAC(mac); err != nil {
				m.logf("lifecycle: refit %q: could not carry retirement of %q forward: %v", name, mac, err)
			}
		}
	}
	if err := m.p.ReplaceSystem(name, next); err != nil {
		return fmt.Errorf("refit %q: %w", name, err)
	}
	hotSwapsTotal.Inc()
	// Persist the new fit. Failure is not fatal to the swap: the model is
	// live, the WAL still holds the absorbs, and the next snapshot
	// retries.
	if m.stateDir != "" {
		if err := m.snapshotLocked(); err != nil {
			m.logf("lifecycle: post-refit snapshot failed: %v", err)
		}
	}
	return nil
}

// ageLoop evaluates the age trigger on a timer.
func (m *Manager) ageLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.policy.CheckInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			for _, name := range m.p.Buildings() {
				m.maybeRefit(name)
			}
		}
	}
}

// Close stops the background triggers, waits for any in-flight refit to
// finish, and closes the journal. It does not snapshot; callers wanting a
// final snapshot (graceful shutdown) call Snapshot first.
func (m *Manager) Close() error {
	m.stmu.Lock()
	m.closing = true
	m.stmu.Unlock()
	m.stopOnce.Do(func() { close(m.stop) })
	// Abort in-flight refits before waiting on them: a half-trained model
	// is discarded, the live one keeps serving until the process exits.
	m.refitCancel()
	m.wg.Wait()
	if m.log == nil {
		return nil
	}
	return m.log.Close()
}

// BuildingStatus is one building's lifecycle state.
type BuildingStatus struct {
	Building string `json:"building"`
	// TrainingRecords is the size of the corpus the live model was fitted
	// on; AbsorbedSinceFit counts crowd scans layered on top of it since.
	TrainingRecords  int     `json:"training_records"`
	AbsorbedSinceFit int     `json:"absorbed_since_fit"`
	OverlayRatio     float64 `json:"overlay_ratio"`
	// LastFit is when the live model was fitted (process start or restore
	// time for models that have not refitted yet).
	LastFit   time.Time `json:"last_fit"`
	Refitting bool      `json:"refitting"`
	// RefitStartedAt is when the in-flight refit began (zero when none),
	// so an operator can spot a refit that has been running too long.
	RefitStartedAt time.Time `json:"refit_started_at"`
	Refits         int       `json:"refits"`
	// LastRefitError is the most recent refit failure, empty after a
	// success.
	LastRefitError string `json:"last_refit_error,omitempty"`
	// LastRefitAt is when the most recent refit attempt (success or
	// failure) finished; LastRefitDuration/LastRefitDurationMS are how
	// long it ran.
	LastRefitAt         time.Time     `json:"last_refit_at"`
	LastRefitDuration   time.Duration `json:"last_refit_duration_ns,omitempty"`
	LastRefitDurationMS float64       `json:"last_refit_duration_ms,omitempty"`
}

// Status is the fleet-wide lifecycle state, served by the admin API.
type Status struct {
	StateDir string `json:"state_dir,omitempty"`
	Policy   Policy `json:"policy"`
	// WALRecords counts absorbs journaled since the last truncation;
	// WALSegments/WALBytes describe the on-disk log.
	WALRecords  int   `json:"wal_records"`
	WALSegments int   `json:"wal_segments"`
	WALBytes    int64 `json:"wal_bytes"`
	// Replayed counts the journaled absorbs recovered at startup.
	Replayed     int              `json:"replayed"`
	Snapshots    int              `json:"snapshots"`
	LastSnapshot time.Time        `json:"last_snapshot"`
	Buildings    []BuildingStatus `json:"buildings"`
}

// Status reports the current lifecycle state of every building.
func (m *Manager) Status() Status {
	st := Status{StateDir: m.stateDir, Policy: m.policy}
	if m.log != nil {
		st.WALRecords = m.log.Appended()
		if ws, err := m.log.Stats(); err == nil {
			st.WALSegments = ws.Segments
			st.WALBytes = ws.Bytes
		}
	}
	for _, name := range m.p.Buildings() {
		sys, err := m.p.System(name)
		if err != nil {
			continue
		}
		bs := m.state(name)
		b := BuildingStatus{
			Building:         name,
			TrainingRecords:  sys.TrainingRecords(),
			AbsorbedSinceFit: sys.AbsorbedRecords(),
		}
		if b.TrainingRecords > 0 {
			b.OverlayRatio = float64(b.AbsorbedSinceFit) / float64(b.TrainingRecords)
		}
		m.stmu.Lock()
		b.LastFit = bs.lastFit
		b.Refitting = bs.refitting
		b.RefitStartedAt = bs.refitStarted
		b.Refits = bs.refits
		b.LastRefitError = bs.lastRefitErr
		b.LastRefitAt = bs.lastRefitAt
		b.LastRefitDuration = bs.lastRefitTime
		b.LastRefitDurationMS = float64(bs.lastRefitTime.Microseconds()) / 1000
		m.stmu.Unlock()
		st.Buildings = append(st.Buildings, b)
	}
	m.stmu.Lock()
	st.Replayed = m.replayed
	st.Snapshots = m.snapshots
	st.LastSnapshot = m.lastSnapshot
	m.stmu.Unlock()
	return st
}

// Refitting reports whether any building currently has a refit running.
func (m *Manager) Refitting() bool {
	m.stmu.Lock()
	defer m.stmu.Unlock()
	for _, bs := range m.st {
		if bs.refitting {
			return true
		}
	}
	return false
}
