package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/portfolio"
	"repro/internal/server"
	"repro/internal/wal"
)

// FollowerOptions configures a read replica.
type FollowerOptions struct {
	// Primary is the upstream node's base URL. Required.
	Primary string
	// StateDir holds the mirrored WAL and snapshot restores. Required —
	// the mirror is what makes promotion lossless.
	StateDir string
	// Config builds the restored portfolio (same knobs as the primary).
	Config core.Config
	// ID identifies this follower in the primary's ack table. Defaults
	// to the state dir base name.
	ID string
	// PollInterval is the tail cadence (default 250ms).
	PollInterval time.Duration
	// LagBound is the applied-vs-source byte gap within which the
	// follower reports Ready (default 1 MiB).
	LagBound int64
	// StaleAfter marks the follower not Ready when no sync has succeeded
	// for this long (default max(10×poll, 2s)).
	StaleAfter time.Duration
	// HTTPTimeout bounds each upstream request.
	HTTPTimeout time.Duration
	// RetryBudget caps the exponential backoff after consecutive sync
	// failures at PollInterval×2^RetryBudget (default
	// defaultRetryBudget). The follower never gives up — a replica that
	// stops tailing is useless — it just polls less aggressively while
	// the upstream is sick.
	RetryBudget int
	// Transport substitutes the HTTP transport used to reach the
	// primary. Nil means http.DefaultTransport; chaos tests inject
	// fault.Transport here.
	Transport http.RoundTripper
	// OpenMirror opens mirror segment files for writing. Nil means
	// os.OpenFile. Chaos tests inject a fault.Disk here to model a slow
	// or failing replica disk.
	OpenMirror func(name string, flag int, perm os.FileMode) (MirrorFile, error)
	Logf       func(string, ...any)
}

// MirrorFile is the slice of *os.File the follower needs to mirror
// shipped WAL bytes: positioned writes plus durability.
type MirrorFile interface {
	io.WriterAt
	Sync() error
	Close() error
}

// Follower mirrors a primary's WAL and applies it to a local portfolio
// through the crash-recovery replay path. The portfolio pointer is
// stable for the life of the follower (handlers capture it once);
// re-bootstraps swap contents via portfolio.Adopt.
type Follower struct {
	opts      FollowerOptions
	p         *portfolio.Portfolio
	mirrorDir string
	logf      func(string, ...any)

	// client is swapped by Follow() when the upstream primary changes.
	client atomic.Pointer[Client]

	mu sync.Mutex
	// grafics:guardedby mu
	st followerState

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// followerState is the mutable replication cursor; copied out under the
// Follower's lock wherever it is read.
type followerState struct {
	bootstrapped bool
	epoch        string       // upstream WAL epoch being mirrored
	base         wal.Position // position the bootstrap snapshot covered
	fetch        wal.Position // raw bytes durably mirrored up to here
	apply        wal.Position // records applied up to here
	source       wal.Position // primary's committed position at last sync
	applied      int          // records applied since bootstrap
	skipped      int          // records the apply path rejected (logged)
	lastSync     time.Time
	lastErr      string
}

// NewFollower builds (but does not start) a follower.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if opts.Primary == "" {
		return nil, fmt.Errorf("fleet: follower requires a primary URL")
	}
	if opts.StateDir == "" {
		return nil, fmt.Errorf("fleet: follower requires a state dir")
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, err
	}
	if opts.ID == "" {
		opts.ID = filepath.Base(opts.StateDir)
	}
	opts.PollInterval = nonZero(opts.PollInterval, defaultPollInterval)
	if opts.LagBound <= 0 {
		opts.LagBound = defaultLagBound
	}
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = 10 * opts.PollInterval
		if opts.StaleAfter < 2*time.Second {
			opts.StaleAfter = 2 * time.Second
		}
	}
	logf := opts.Logf
	if logf == nil {
		logf = nopLogf
	}
	if opts.RetryBudget <= 0 {
		opts.RetryBudget = defaultRetryBudget
	}
	if opts.OpenMirror == nil {
		opts.OpenMirror = func(name string, flag int, perm os.FileMode) (MirrorFile, error) {
			return os.OpenFile(name, flag, perm)
		}
	}
	f := &Follower{
		opts:      opts,
		p:         portfolio.New(opts.Config),
		mirrorDir: filepath.Join(opts.StateDir, "mirror"),
		logf:      logf,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	f.client.Store(NewClientWith(opts.Primary, opts.HTTPTimeout, opts.Transport))
	return f, nil
}

// Portfolio returns the follower's stable portfolio identity.
func (f *Follower) Portfolio() *portfolio.Portfolio { return f.p }

// Primary reports the upstream URL currently being tailed.
func (f *Follower) Primary() string { return f.client.Load().Base() }

// Follow re-points the follower at a new primary. The next sync notices
// the epoch mismatch (a freshly promoted primary always has a new WAL
// epoch) and re-bootstraps; reads keep flowing from the current image in
// the meantime.
func (f *Follower) Follow(primary string) {
	f.client.Store(NewClientWith(primary, f.opts.HTTPTimeout, f.opts.Transport))
	f.mu.Lock()
	f.st.lastErr = ""
	f.mu.Unlock()
}

// Start launches the tail loop; ctx cancellation (or Stop) ends it.
func (f *Follower) Start(ctx context.Context) {
	f.startOnce.Do(func() {
		go f.loop(ctx)
	})
}

// Stop halts tailing and waits for the loop to exit. Safe to call more
// than once; a never-started follower stops immediately.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.startOnce.Do(func() { close(f.done) })
	<-f.done
}

func (f *Follower) loop(ctx context.Context) {
	defer close(f.done)
	fails := 0
	for {
		if err := f.syncOnce(ctx); err != nil && ctx.Err() == nil {
			f.noteError(err)
			fails++
		} else {
			fails = 0
		}
		// Jitter keeps a herd of followers sharing one primary from
		// synchronizing their fetches; backoff keeps a sick upstream from
		// being hammered at full poll rate while it recovers.
		t := time.NewTimer(jitteredBackoff(f.opts.PollInterval, fails, f.opts.RetryBudget))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-f.stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

func (f *Follower) noteError(err error) {
	syncErrorsTotal.Inc()
	f.logf("fleet: follower %s: %v", f.opts.ID, err)
	f.mu.Lock()
	f.st.lastErr = err.Error()
	f.mu.Unlock()
}

// syncOnce performs one bootstrap-if-needed, fetch, mirror, apply cycle.
func (f *Follower) syncOnce(ctx context.Context) error {
	f.mu.Lock()
	st := f.st
	f.mu.Unlock()
	if !st.bootstrapped {
		if err := f.bootstrap(ctx); err != nil {
			return fmt.Errorf("bootstrap from %s: %w", f.Primary(), err)
		}
		f.mu.Lock()
		st = f.st
		f.mu.Unlock()
	}
	client := f.client.Load()
	chunk, err := client.FetchWAL(ctx, st.epoch, st.fetch, Ack{ID: f.opts.ID, Epoch: st.epoch, Pos: st.fetch})
	if errors.Is(err, ErrEpochGone) {
		f.logf("fleet: follower %s: %v; re-bootstrapping", f.opts.ID, err)
		f.mu.Lock()
		f.st.bootstrapped = false
		f.mu.Unlock()
		return nil
	}
	if err != nil {
		return err
	}
	if len(chunk.Data) > 0 {
		if err := f.mirrorAppend(st.fetch, chunk.Data); err != nil {
			return fmt.Errorf("mirror append at %s: %w", st.fetch, err)
		}
		st.fetch.Off += int64(len(chunk.Data))
	}
	if chunk.SegDone {
		st.fetch = wal.Position{Seg: st.fetch.Seg + 1, Off: 0}
	}
	applyPos, n, skipped, err := f.applyFrom(ctx, st.apply)
	if err != nil {
		return fmt.Errorf("apply mirrored records: %w", err)
	}
	f.mu.Lock()
	f.st.fetch = st.fetch
	f.st.apply = applyPos
	f.st.applied += n
	f.st.skipped += skipped
	f.st.source = chunk.Source
	f.st.lastSync = time.Now()
	f.st.lastErr = ""
	f.mu.Unlock()
	appliedRecordsTotal.Add(int64(n))
	replLagBytes.SetInt(lagBetween(applyPos, chunk.Source))
	return nil
}

// bootstrap pulls a snapshot from the primary, restores it into a fresh
// portfolio, and adopts it under the stable pointer. The mirror starts
// over at the snapshot's position for the new epoch.
func (f *Follower) bootstrap(ctx context.Context) error {
	restoreDir, err := os.MkdirTemp(f.opts.StateDir, "bootstrap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(restoreDir)
	client := f.client.Load()
	epoch, pos, err := client.Snapshot(ctx, restoreDir)
	if err != nil {
		return err
	}
	restored, err := portfolio.LoadPortfolio(restoreDir, f.opts.Config)
	if err != nil && !errors.Is(err, portfolio.ErrNoManifest) {
		return fmt.Errorf("load restored snapshot: %w", err)
	}
	if restored == nil {
		restored = portfolio.New(f.opts.Config)
	}
	// Reset the mirror for the new epoch: wipe, then pre-extend the base
	// segment so shipped bytes land at their true offsets. The zero
	// padding below base.Off is never read — replay starts at base.
	if err := os.RemoveAll(f.mirrorDir); err != nil {
		return err
	}
	if err := os.MkdirAll(f.mirrorDir, 0o755); err != nil {
		return err
	}
	if pos.Off > 0 {
		mf, err := os.OpenFile(wal.SegmentPath(f.mirrorDir, pos.Seg), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if err := mf.Truncate(pos.Off); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
	}
	f.p.Adopt(restored)
	f.mu.Lock()
	f.st = followerState{
		bootstrapped: true,
		epoch:        epoch,
		base:         pos,
		fetch:        pos,
		apply:        pos,
		source:       pos,
		lastSync:     time.Now(),
	}
	f.mu.Unlock()
	bootstrapsTotal.Inc()
	f.logf("fleet: follower %s: bootstrapped %d buildings from %s at %s",
		f.opts.ID, len(restored.Buildings()), client.Base(), describePos(epoch, pos))
	return nil
}

// mirrorAppend writes a shipped chunk at its exact offset in the local
// segment file and syncs it — the ack sent on the next fetch promises
// durability.
func (f *Follower) mirrorAppend(at wal.Position, data []byte) error {
	path := wal.SegmentPath(f.mirrorDir, at.Seg)
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	} else if !os.IsNotExist(err) {
		return err
	}
	if size != at.Off {
		return fmt.Errorf("mirror segment %d is %d bytes, expected %d", at.Seg, size, at.Off)
	}
	mf, err := f.opts.OpenMirror(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer mf.Close()
	if _, err := mf.WriteAt(data, at.Off); err != nil {
		return err
	}
	return mf.Sync()
}

// applyFrom replays newly mirrored records into the portfolio. Records
// the apply path rejects (unknown building, retired MAC) are logged and
// skipped, mirroring boot-time recovery.
func (f *Follower) applyFrom(ctx context.Context, from wal.Position) (wal.Position, int, int, error) {
	applied, skipped := 0, 0
	pos, _, err := wal.ReplayFrom(f.mirrorDir, from, func(r wal.Record) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := lifecycle.ApplyRecord(ctx, f.p, r); err != nil {
			skipped++
			f.logf("fleet: follower %s: skip record: %v", f.opts.ID, err)
			return nil
		}
		applied++
		return nil
	})
	if err != nil {
		return from, applied, skipped, err
	}
	return pos, applied, skipped, nil
}

// finalize drains any mirrored-but-unapplied tail and verifies the full
// mirror by re-replaying it from the bootstrap base: the record count
// must match what was applied. Called with the tail loop stopped, on the
// promotion path.
func (f *Follower) finalize(ctx context.Context) (PromoteResult, error) {
	f.mu.Lock()
	st := f.st
	f.mu.Unlock()
	if !st.bootstrapped {
		return PromoteResult{}, fmt.Errorf("fleet: follower %s never bootstrapped", f.opts.ID)
	}
	applyPos, n, skipped, err := f.applyFrom(ctx, st.apply)
	if err != nil {
		return PromoteResult{}, fmt.Errorf("fleet: drain mirror tail: %w", err)
	}
	st.apply = applyPos
	st.applied += n
	st.skipped += skipped
	verified := 0
	if _, _, err := wal.ReplayFrom(f.mirrorDir, st.base, func(wal.Record) error {
		verified++
		return nil
	}); err != nil {
		return PromoteResult{}, fmt.Errorf("fleet: verify mirror: %w", err)
	}
	if verified != st.applied+st.skipped {
		return PromoteResult{}, fmt.Errorf("fleet: mirror verification: %d records mirrored, %d applied+skipped",
			verified, st.applied+st.skipped)
	}
	f.mu.Lock()
	f.st = st
	f.mu.Unlock()
	return PromoteResult{
		FromEpoch: st.epoch,
		Applied:   st.apply,
		Records:   st.applied,
		Skipped:   st.skipped,
		Verified:  verified,
	}, nil
}

// replInfo feeds /v2/healthz, /v2/stats, and /v2/repl/status.
func (f *Follower) replInfo() server.ReplInfo {
	f.mu.Lock()
	st := f.st
	f.mu.Unlock()
	ri := server.ReplInfo{
		Role:           string(RoleFollower),
		Primary:        f.Primary(),
		Epoch:          st.epoch,
		Applied:        st.apply,
		Mirrored:       st.fetch,
		Source:         st.source,
		AppliedRecords: st.applied,
		LagBytes:       lagBetween(st.apply, st.source),
		LagBoundBytes:  f.opts.LagBound,
		Error:          st.lastErr,
	}
	if !st.lastSync.IsZero() {
		ri.LastSync = &st.lastSync
	}
	ri.Ready = st.bootstrapped &&
		ri.LagBytes <= f.opts.LagBound &&
		time.Since(st.lastSync) <= f.opts.StaleAfter
	return ri
}

var _ server.Router = (*Follower)(nil)

// ClassifyRouted serves reads from the local image; absorbs are refused
// — only the primary may journal mutations.
func (f *Follower) ClassifyRouted(ctx context.Context, rec *dataset.Record, opts ...core.Option) (portfolio.Routed, error) {
	if core.NewRequest(rec, opts...).Absorb() {
		return portfolio.Routed{}, fmt.Errorf("%w (primary: %s)", server.ErrReadOnly, f.Primary())
	}
	return f.p.ClassifyRouted(ctx, rec, opts...)
}

func (f *Follower) RemoveMAC(context.Context, string) (int, error) {
	return 0, fmt.Errorf("%w (primary: %s)", server.ErrReadOnly, f.Primary())
}
