package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/portfolio"
	"repro/internal/server"
	"repro/internal/wal"
)

// NodeOptions configures a fleet node in either data-plane role.
type NodeOptions struct {
	// StateDir is required: primaries journal there, followers mirror
	// there, and a promoted follower opens its new journal there.
	StateDir string
	// Lifecycle carries WAL tuning and refit policy for the primary role
	// (including the manager a promoted follower creates).
	Lifecycle lifecycle.Options
	// Primary semi-sync knobs.
	Primary PrimaryOptions
	// Follower replication knobs (Primary URL, poll, lag bound, ...).
	Follower FollowerOptions
	// MaxInflightAbsorbs bounds concurrently admitted absorbing requests
	// on the primary's serving surface (see server.Options). 0 disables
	// admission control.
	MaxInflightAbsorbs int
	Logf               func(string, ...any)
}

// PromoteResult reports what a promotion verified and adopted.
type PromoteResult struct {
	// AlreadyPrimary is set when promote hits a node already serving as
	// primary (idempotent success).
	AlreadyPrimary bool `json:"already_primary,omitempty"`
	// FromEpoch is the upstream epoch the node was mirroring.
	FromEpoch string `json:"from_epoch,omitempty"`
	// Applied is the mirror position applied through.
	Applied wal.Position `json:"applied"`
	// Records/Skipped/Verified report the mirror audit: Verified records
	// re-counted from the shipped WAL must equal Records+Skipped.
	Records  int `json:"records"`
	Skipped  int `json:"skipped,omitempty"`
	Verified int `json:"verified"`
	// NewEpoch is the promoted primary's fresh WAL epoch.
	NewEpoch string `json:"new_epoch,omitempty"`
}

// roleState is the immutable role snapshot a Node serves from; promotion
// swaps the whole struct atomically so in-flight requests finish against
// a coherent view.
type roleState struct {
	role     Role
	primary  *Primary
	follower *Follower
	handler  http.Handler
}

// Node is one fleet member: a stable HTTP surface over a role that can
// change at runtime (follower → primary on promotion). The portfolio
// pointer is stable across the transition, so routing and handlers never
// dangle.
type Node struct {
	p    *portfolio.Portfolio
	opts NodeOptions
	logf func(string, ...any)

	state atomic.Pointer[roleState]
	mux   *http.ServeMux

	// promoteMu single-flights role transitions.
	promoteMu sync.Mutex
}

// NewPrimaryNode wraps an already-open durable manager as a shard
// primary. The node keeps no context: every wait it makes (a semi-sync
// ack, a promotion) runs under the request that asked for it.
func NewPrimaryNode(_ context.Context, m *lifecycle.Manager, opts NodeOptions) (*Node, error) {
	if opts.StateDir == "" {
		return nil, fmt.Errorf("fleet: primary node requires a state dir")
	}
	n := newNode(m.Portfolio(), opts)
	src, err := NewSource(m, opts.StateDir, n.logf)
	if err != nil {
		return nil, err
	}
	pr := NewPrimary(m, src, opts.Primary)
	n.state.Store(&roleState{role: RolePrimary, primary: pr, handler: n.buildRoleHandler(RolePrimary, pr, nil)})
	return n, nil
}

// NewFollowerNode builds a read replica of opts.Follower.Primary. Call
// Start to begin tailing; like NewPrimaryNode, the node keeps no
// context.
func NewFollowerNode(_ context.Context, opts NodeOptions) (*Node, error) {
	fo := opts.Follower
	if fo.StateDir == "" {
		fo.StateDir = opts.StateDir
	}
	if fo.Logf == nil {
		fo.Logf = opts.Logf
	}
	f, err := NewFollower(fo)
	if err != nil {
		return nil, err
	}
	opts.Follower = fo
	n := newNode(f.Portfolio(), opts)
	n.state.Store(&roleState{role: RoleFollower, follower: f, handler: n.buildRoleHandler(RoleFollower, nil, f)})
	return n, nil
}

func newNode(p *portfolio.Portfolio, opts NodeOptions) *Node {
	logf := opts.Logf
	if logf == nil {
		logf = nopLogf
	}
	n := &Node{p: p, opts: opts, logf: logf}
	mux := http.NewServeMux()
	handleMethod(mux, http.MethodGet, "/v2/repl/status", n.handleReplStatus)
	handleMethod(mux, http.MethodGet, "/v2/repl/wal", n.handleReplWAL)
	handleMethod(mux, http.MethodGet, "/v2/repl/snapshot", n.handleReplSnapshot)
	handleMethod(mux, http.MethodPost, "/v2/admin/promote", n.handlePromote)
	handleMethod(mux, http.MethodPost, "/v2/admin/follow", n.handleFollow)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		n.state.Load().handler.ServeHTTP(w, r)
	})
	n.mux = mux
	return n
}

// buildRoleHandler assembles the standard serving surface for a role:
// the whole /v2 API over the role's Router, with replication-aware
// health and stats.
func (n *Node) buildRoleHandler(role Role, pr *Primary, f *Follower) http.Handler {
	opts := server.Options{Repl: func() server.ReplInfo { return n.ReplInfo() }}
	var rt server.Router
	switch role {
	case RolePrimary:
		rt = pr
		opts.Lifecycle = pr.Manager()
		opts.MaxInflightAbsorbs = n.opts.MaxInflightAbsorbs
	default:
		rt = f
	}
	return server.NewHandler(n.p, rt, opts)
}

// ServeHTTP makes the node mountable directly on an http.Server.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

// Role reports the node's current role.
func (n *Node) Role() Role { return n.state.Load().role }

// Manager returns the current lifecycle manager, or nil in follower
// role. The caller owns shutdown ordering (drain, snapshot, close).
func (n *Node) Manager() *lifecycle.Manager {
	if st := n.state.Load(); st.primary != nil {
		return st.primary.Manager()
	}
	return nil
}

// Portfolio returns the node's stable portfolio.
func (n *Node) Portfolio() *portfolio.Portfolio { return n.p }

// Start begins background work for the current role (follower tailing).
func (n *Node) Start(ctx context.Context) {
	if st := n.state.Load(); st.follower != nil {
		st.follower.Start(ctx)
	}
}

// Close stops background work (a follower's tailing). It closes no
// lifecycle manager, neither one passed into NewPrimaryNode nor one
// created by promotion: the caller closes Manager(), as graficsd's
// shutdown does.
func (n *Node) Close() error {
	n.promoteMu.Lock()
	defer n.promoteMu.Unlock()
	st := n.state.Load()
	if st.follower != nil && st.role == RoleFollower {
		st.follower.Stop()
	}
	return nil
}

// ReplInfo summarises replication state for healthz/stats.
func (n *Node) ReplInfo() server.ReplInfo {
	st := n.state.Load()
	if st.primary != nil {
		return st.primary.replInfo()
	}
	return st.follower.replInfo()
}

// Promote turns a follower into a primary: stop tailing, drain and
// verify the mirrored WAL, then open a fresh journal (with an adoption
// snapshot) over the same portfolio. Idempotent on a primary.
func (n *Node) Promote(ctx context.Context) (PromoteResult, error) {
	n.promoteMu.Lock()
	defer n.promoteMu.Unlock()
	st := n.state.Load()
	if st.role == RolePrimary {
		res := PromoteResult{AlreadyPrimary: true}
		if epoch, pos, ok := st.primary.Manager().WALPosition(); ok {
			res.NewEpoch = epoch
			res.Applied = pos
		}
		return res, nil
	}
	f := st.follower
	f.Stop()
	res, err := f.finalize(ctx)
	if err != nil {
		return PromoteResult{}, err
	}
	lopts := n.opts.Lifecycle
	lopts.StateDir = n.opts.StateDir
	if lopts.Logf == nil {
		lopts.Logf = n.logf
	}
	m, err := lifecycle.Manage(n.p, lopts)
	if err != nil {
		return PromoteResult{}, fmt.Errorf("fleet: promote: open journal: %w", err)
	}
	src, err := NewSource(m, n.opts.StateDir, n.logf)
	if err != nil {
		m.Close()
		return PromoteResult{}, err
	}
	pr := NewPrimary(m, src, n.opts.Primary)
	n.state.Store(&roleState{role: RolePrimary, primary: pr, handler: n.buildRoleHandler(RolePrimary, pr, nil)})
	if epoch, pos, ok := m.WALPosition(); ok {
		res.NewEpoch = epoch
		res.Applied = pos
	}
	promotionsTotal.Inc()
	n.logf("fleet: promoted to primary: %d records verified from %s, new epoch %s",
		res.Verified, res.FromEpoch, res.NewEpoch)
	return res, nil
}

func (n *Node) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	st := n.state.Load()
	var status ReplStatus
	if st.primary != nil {
		status = st.primary.src.status()
	} else {
		status.ReplInfo = st.follower.replInfo()
		names := n.p.Buildings()
		sort.Strings(names)
		status.Buildings = names
	}
	// A router asks with ?macs=<the version it holds>; the sets travel
	// only when that version is stale (an unparsable one reads as 0, which
	// no index has).
	if q := r.URL.Query(); q.Has("macs") {
		since, _ := strconv.ParseUint(q.Get("macs"), 10, 64)
		status.MACsVersion, status.MACs = n.p.MACSets(since)
	}
	w.Header().Set(headerNodeRole, string(st.role))
	writeJSON(w, http.StatusOK, status)
}

func (n *Node) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	st := n.state.Load()
	if st.primary == nil {
		http.Error(w, ErrNotPrimary.Error(), http.StatusConflict)
		return
	}
	st.primary.src.handleWAL(w, r)
}

func (n *Node) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	st := n.state.Load()
	if st.primary == nil {
		http.Error(w, ErrNotPrimary.Error(), http.StatusConflict)
		return
	}
	st.primary.src.handleSnapshot(w, r)
}

func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), time.Minute)
	defer cancel()
	res, err := n.Promote(ctx)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (n *Node) handleFollow(w http.ResponseWriter, r *http.Request) {
	st := n.state.Load()
	if st.follower == nil || st.role != RoleFollower {
		http.Error(w, "fleet: node is not a follower", http.StatusConflict)
		return
	}
	primary := r.URL.Query().Get("primary")
	if primary == "" {
		http.Error(w, "fleet: missing primary parameter", http.StatusBadRequest)
		return
	}
	st.follower.Follow(primary)
	writeJSON(w, http.StatusOK, map[string]string{"primary": primary})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
