package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/portfolio"
	"repro/internal/server"
	"repro/internal/wal"
)

// RouterOptions configures the stateless routing tier.
type RouterOptions struct {
	// Groups is the static shard membership: each inner slice is one
	// replication group's node URLs. Membership is configuration; roles
	// within a group are discovered (and change on failover).
	Groups [][]string
	// HealthInterval is the status poll cadence (default 1s).
	HealthInterval time.Duration
	// RetryBudget bounds the retry attempts (with jittered exponential
	// backoff) a forwarded write spends on retryable failures, and the
	// extra replicas a read fails over to. Default defaultRetryBudget.
	RetryBudget int
	// BreakerThreshold opens a member's circuit breaker after this many
	// consecutive failed polls and forwards; an open member serves no
	// reads until a health poll or request to it succeeds. The breaker
	// only sheds reads: failover follows three consecutive failed status
	// polls. Default defaultBreakerThreshold.
	BreakerThreshold int
	Logf             func(string, ...any)
}

// MemberState is one node's last observed replication state, as reported
// by /v2/admin/fleet.
type MemberState struct {
	URL       string       `json:"url"`
	Group     int          `json:"group"`
	Role      string       `json:"role,omitempty"`
	Primary   string       `json:"primary,omitempty"`
	Epoch     string       `json:"epoch,omitempty"`
	Applied   wal.Position `json:"applied"`
	Mirrored  wal.Position `json:"mirrored"`
	LagBytes  int64        `json:"lag_bytes"`
	Ready     bool         `json:"ready"`
	Healthy   bool         `json:"healthy"`
	Drained   bool         `json:"drained,omitempty"`
	Breaker   string       `json:"breaker,omitempty"`
	Failures  int          `json:"failures,omitempty"`
	Buildings []string     `json:"buildings,omitempty"`
	Error     string       `json:"error,omitempty"`
	LastSeen  time.Time    `json:"last_seen"`
}

// GroupStatus is one shard group's health rollup.
type GroupStatus struct {
	Index   int           `json:"index"`
	Key     string        `json:"key"`
	Primary string        `json:"primary,omitempty"`
	Healthy bool          `json:"healthy"`
	Members []MemberState `json:"members"`
}

// FleetStatus is the GET /v2/admin/fleet reply.
type FleetStatus struct {
	Healthy bool          `json:"healthy"`
	Groups  []GroupStatus `json:"groups"`
}

// routerIdleConnsPerHost is how many idle connections the router's
// transport keeps per node: http.DefaultTransport's whole pool
// (MaxIdleConns) rather than its 2 per host, which made every burst of
// more than 2 concurrent forwards to a node close the surplus
// connections and dial them again on the next burst.
const routerIdleConnsPerHost = 100

// failoverPolls is how many consecutive failed status polls mark a
// member down; a primary down that long is failed over.
const failoverPolls = 3

// failoverCooldownTicks is how long a group waits between promotion
// attempts, in health intervals.
const failoverCooldownTicks = 5

// forwardRetryBase is the first backoff step for a retried write
// forward; subsequent attempts double it (with jitter) up to the retry
// budget.
const forwardRetryBase = 100 * time.Millisecond

// Router is the fleet's front door: it routes each scan by a fleet-wide
// MAC index to the one group holding its building, spreads reads over
// that group's caught-up followers, forwards writes to its primary,
// aggregates stats, health-checks every member, and promotes the
// freshest follower when a primary dies. It is a server.Router and a
// server.Catalog, so it serves the node's own HTTP surface
// (server.NewHandler) beside the /v2/admin/fleet routes.
type Router struct {
	opts RouterOptions
	// members is every configured node in configuration order, and
	// groups the same members by shard group; NewRouter fixes both.
	members   []*member
	groups    [][]*member
	transport *http.Transport // shared by every member's client
	logf      func(string, ...any)
	mux       *http.ServeMux
	rr        atomic.Uint64

	// index attributes scans across the fleet. refreshIndex builds it
	// from the report of each group's index source and publishes it
	// whole; reads load it without a lock and never mutate it.
	index atomic.Pointer[portfolio.MACIndex]
	// build serializes index builds, so the index published last was
	// built from the newest reports. No read takes it.
	build sync.Mutex

	mu sync.Mutex
	// sources is what each group's part of the index was last built
	// from.
	//
	// grafics:guardedby mu
	sources []source
	// lastFailover is each group's last promotion attempt.
	//
	// grafics:guardedby mu
	lastFailover []time.Time

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// ParseGroups parses the -peers flag syntax: groups separated by ';',
// members within a group separated by ','.
func ParseGroups(s string) ([][]string, error) {
	var groups [][]string
	for _, g := range strings.Split(s, ";") {
		var members []string
		for _, m := range strings.Split(g, ",") {
			m = strings.TrimRight(strings.TrimSpace(m), "/")
			if m == "" {
				continue
			}
			if !strings.HasPrefix(m, "http://") && !strings.HasPrefix(m, "https://") {
				return nil, fmt.Errorf("fleet: peer %q is not an http(s) URL", m)
			}
			members = append(members, m)
		}
		if len(members) > 0 {
			groups = append(groups, members)
		}
	}
	if len(groups) == 0 {
		return nil, errors.New("fleet: no peers")
	}
	seen := make(map[string]struct{})
	for _, g := range groups {
		for _, m := range g {
			if _, dup := seen[m]; dup {
				return nil, fmt.Errorf("fleet: peer %q listed twice", m)
			}
			seen[m] = struct{}{}
		}
	}
	return groups, nil
}

// groupKey names a shard group; group identity is positional and stable
// across failover.
func groupKey(i int) string { return "shard-" + strconv.Itoa(i) }

// NewRouter builds the routing tier. Call Start to begin health checks.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Groups) == 0 {
		return nil, errors.New("fleet: router requires at least one group")
	}
	if opts.RetryBudget <= 0 {
		opts.RetryBudget = defaultRetryBudget
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = defaultBreakerThreshold
	}
	opts.HealthInterval = nonZero(opts.HealthInterval, defaultHealthInterval)
	logf := opts.Logf
	if logf == nil {
		logf = nopLogf
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = routerIdleConnsPerHost
	rt := &Router{
		opts:         opts,
		transport:    tr,
		logf:         logf,
		sources:      make([]source, len(opts.Groups)),
		lastFailover: make([]time.Time, len(opts.Groups)),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	for gi, urls := range opts.Groups {
		var group []*member
		for _, u := range urls {
			group = append(group, &member{url: u, group: gi, client: NewClientWith(u, 0, tr), state: MemberState{URL: u, Group: gi}})
		}
		rt.groups = append(rt.groups, group)
		rt.members = append(rt.members, group...)
	}
	rt.index.Store(portfolio.NewMACIndex())
	mux := http.NewServeMux()
	handleMethod(mux, http.MethodGet, "/v2/admin/fleet", rt.handleFleet)
	handleMethod(mux, http.MethodPost, "/v2/admin/fleet/promote", rt.handleFleetPromote)
	handleMethod(mux, http.MethodPost, "/v2/admin/fleet/drain", rt.handleFleetDrain)
	mux.Handle("/", server.NewHandler(rt, rt, server.Options{Repl: rt.replInfo}))
	rt.mux = mux
	return rt, nil
}

var (
	_ server.Router  = (*Router)(nil)
	_ server.Catalog = (*Router)(nil)
)

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Start launches the health/failover loop; ctx cancellation or Stop ends
// it. The first poll runs synchronously so the router boots with a view
// of the fleet and a complete routing index.
func (rt *Router) Start(ctx context.Context) {
	rt.startOnce.Do(func() {
		rt.pollAll(ctx)
		go rt.loop(ctx)
	})
}

// Stop halts the health loop, waits for it to exit, and closes the
// transport's idle connections.
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.startOnce.Do(func() { close(rt.done) })
	<-rt.done
	rt.transport.CloseIdleConnections()
}

func (rt *Router) loop(ctx context.Context) {
	defer close(rt.done)
	for {
		// Jittered interval: routers sharing a fleet must not synchronize
		// their polls into periodic bursts against the same members.
		t := time.NewTimer(jitteredBackoff(rt.opts.HealthInterval, 0, 1))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-rt.stop:
			t.Stop()
			return
		case <-t.C:
		}
		rt.pollAll(ctx)
		rt.checkFailover(ctx)
	}
}

// member is one configured node: its URL, group and client, which
// NewRouter fixes, and what the router last learned of it, under the
// member's own mutex.
type member struct {
	url    string
	group  int
	client *Client

	mu sync.Mutex
	// state is the node's last observed state. Its Drained flag is the
	// router's own, set by /v2/admin/fleet/drain.
	//
	// grafics:guardedby mu
	state MemberState
	// fails counts consecutive failed polls and forwards: the member's
	// circuit breaker, open at BreakerThreshold.
	//
	// grafics:guardedby mu
	fails int
	// macs is the node's last MAC-set report, nil before its first.
	//
	// grafics:guardedby mu
	macs *memberMACs
}

// memberMACs is one member's report of its attribution index. A stored
// report is never changed (learn stores a grown copy), so an index build
// reads it with no lock held.
type memberMACs struct {
	version uint64
	sets    map[string][]string // building → MACs, each sorted
}

// source is the member a group's part of the index is built from and
// the report it was built from; the zero value for a group none of
// whose members has reported.
type source struct {
	m   *member
	rep *memberMACs
}

// view returns m's last observed state with its breaker's.
func (rt *Router) view(m *member) MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms := m.state
	ms.Breaker = "closed"
	if m.fails >= rt.opts.BreakerThreshold {
		ms.Breaker = "open"
	}
	return ms
}

// noteOutcome feeds one forward or poll outcome into m's breaker and
// keeps the exported gauge and transition counter in step. An open
// breaker sheds m's reads; health polls keep probing it, and the next
// success closes it.
func (rt *Router) noteOutcome(m *member, ok bool) {
	m.mu.Lock()
	wasOpen := m.fails >= rt.opts.BreakerThreshold
	if ok {
		m.fails = 0
	} else {
		m.fails++
	}
	open := m.fails >= rt.opts.BreakerThreshold
	m.mu.Unlock()
	gauge := int64(0) // closed
	if open {
		gauge = 2
	}
	breakerStateGauge.With(m.url).SetInt(gauge)
	switch {
	case open && !wasOpen:
		breakerOpensTotal.Inc()
		rt.logf("fleet: router: circuit for %s opened after %d consecutive failures", m.url, rt.opts.BreakerThreshold)
	case wasOpen && !open:
		rt.logf("fleet: router: circuit for %s closed", m.url)
	}
}

// pollAll refreshes every member's observed state in parallel, then the
// routing index.
func (rt *Router) pollAll(ctx context.Context) {
	_ = par.ForEachCtx(ctx, len(rt.members), func(i int) { rt.poll(ctx, rt.members[i]) })
	rt.refreshIndex()
}

// poll fetches one member's status together with its MAC sets, which
// come back only when its index version moved.
func (rt *Router) poll(ctx context.Context, m *member) {
	m.mu.Lock()
	ms := m.state
	var since uint64 // no node's index has version 0
	if m.macs != nil {
		since = m.macs.version
	}
	m.mu.Unlock()
	st, err := m.client.StatusMACs(ctx, since)
	if ctx.Err() == nil {
		rt.noteOutcome(m, err == nil)
	}
	if err != nil {
		healthPollFailuresTotal.Inc()
		ms.Failures++
		ms.Healthy = ms.Failures < failoverPolls && ms.Role != ""
		ms.LagBytes, ms.Ready, ms.Error = 0, false, err.Error()
	} else {
		ms = MemberState{
			URL: m.url, Group: m.group, Role: st.Role, Primary: st.Primary, Epoch: st.Epoch,
			Applied: st.Applied, Mirrored: st.Mirrored, LagBytes: st.LagBytes, Ready: st.Ready,
			Healthy: true, Buildings: st.Buildings, LastSeen: time.Now(),
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ms.Drained = m.state.Drained
	m.state = ms
	if err == nil && st.MACsVersion != since {
		m.macs = &memberMACs{version: st.MACsVersion, sets: st.MACs}
	}
}

// refreshIndex rebuilds and publishes the routing index unless the
// published one was built from the same reports of the same sources.
// The build holds only rt.build, so reads go on meanwhile.
func (rt *Router) refreshIndex() {
	rt.build.Lock()
	defer rt.build.Unlock()
	srcs := make([]source, len(rt.groups))
	for gi := range rt.groups {
		srcs[gi] = rt.indexSource(gi)
	}
	rt.mu.Lock()
	same := slices.Equal(srcs, rt.sources)
	rt.sources = srcs
	rt.mu.Unlock()
	if !same {
		rt.index.Store(buildIndex(srcs))
	}
}

// buildIndex builds a routing index from each group's source's report. A
// building two groups report is routed to the lower one.
func buildIndex(srcs []source) *portfolio.MACIndex {
	idx := portfolio.NewMACIndex()
	claimed := make(map[string]bool)
	for gi, src := range srcs {
		if src.rep == nil {
			continue
		}
		for building, macs := range src.rep.sets {
			if !claimed[building] {
				claimed[building] = true
				idx.Set(building, gi, macs)
			}
		}
	}
	return idx
}

// indexSource names the member whose report group gi's part of the
// index is built from: the primary writes go to. While the router knows
// of no primary in the group — one that was already down when the router
// started, say — it is the reporting member that has applied the most of
// the group's log, since the group's reads are served from those
// replicas meanwhile.
func (rt *Router) indexSource(gi int) source {
	primary := rt.pickPrimary(gi)
	var best source
	var applied wal.Position
	for _, m := range rt.groups[gi] {
		m.mu.Lock()
		rep, pos := m.macs, m.state.Applied
		m.mu.Unlock()
		switch {
		case rep == nil:
		case m == primary:
			return source{m, rep}
		case best.m == nil || applied.Less(pos):
			best, applied = source{m, rep}, pos
		}
	}
	return best
}

// groupStates snapshots one group's member states in config order.
func (rt *Router) groupStates(gi int) []MemberState {
	out := make([]MemberState, len(rt.groups[gi]))
	for i, m := range rt.groups[gi] {
		out[i] = rt.view(m)
	}
	return out
}

// find returns the member whose URL is url, or nil.
func (rt *Router) find(url string) *member {
	for _, m := range rt.members {
		if m.url == url {
			return m
		}
	}
	return nil
}

// checkFailover promotes the freshest follower of any group whose
// primary has missed failoverPolls consecutive status polls. One attempt
// per cooldown window per group; the next poll observes the new
// topology.
func (rt *Router) checkFailover(ctx context.Context) {
	for gi := range rt.groups {
		var primaryAlive, primaryDead bool
		var candidates []MemberState
		for _, ms := range rt.groupStates(gi) {
			switch {
			case ms.Role == string(RolePrimary) && ms.Healthy:
				primaryAlive = true
			case ms.Role == string(RolePrimary) && ms.Failures >= failoverPolls:
				primaryDead = true
			case ms.Role == string(RoleFollower) && ms.Healthy && ms.Epoch != "":
				candidates = append(candidates, ms)
			}
		}
		if primaryAlive || !primaryDead || len(candidates) == 0 {
			continue
		}
		rt.mu.Lock()
		last := rt.lastFailover[gi]
		cooldown := time.Duration(failoverCooldownTicks) * rt.opts.HealthInterval
		if !last.IsZero() && time.Since(last) < cooldown {
			rt.mu.Unlock()
			continue
		}
		rt.lastFailover[gi] = time.Now()
		rt.mu.Unlock()
		rt.promoteGroup(ctx, gi, candidates, "")
	}
}

// promoteGroup promotes the freshest candidate (or the named member) and
// re-points the group's other followers at it.
func (rt *Router) promoteGroup(ctx context.Context, gi int, candidates []MemberState, pick string) (string, error) {
	sort.Slice(candidates, func(i, j int) bool {
		// Freshest mirror first: promotion drains the mirror, so the
		// candidate with the most durable bytes loses nothing.
		if candidates[i].Mirrored != candidates[j].Mirrored {
			return candidates[j].Mirrored.Less(candidates[i].Mirrored)
		}
		if candidates[i].Applied != candidates[j].Applied {
			return candidates[j].Applied.Less(candidates[i].Applied)
		}
		return candidates[i].URL < candidates[j].URL
	})
	var target *member
	for _, c := range candidates {
		if pick == "" || c.URL == pick {
			target = rt.find(c.URL)
			break
		}
	}
	if target == nil {
		return "", fmt.Errorf("fleet: no promotion candidate in group %d", gi)
	}
	rt.logf("fleet: router: promoting %s in group %d", target.url, gi)
	res, err := target.client.Promote(ctx)
	if err != nil {
		rt.logf("fleet: router: promote %s: %v", target.url, err)
		return "", err
	}
	rt.logf("fleet: router: %s promoted: %d records verified, epoch %s", target.url, res.Verified, res.NewEpoch)
	failoversTotal.Inc()
	target.mu.Lock()
	target.state.Role = string(RolePrimary)
	target.state.Primary = ""
	target.state.Healthy = true
	target.state.Failures = 0
	target.mu.Unlock()
	for _, m := range rt.groups[gi] {
		if m == target {
			continue
		}
		if ms := rt.view(m); ms.Role != string(RoleFollower) || !ms.Healthy {
			continue
		}
		if err := m.client.Follow(ctx, target.url); err != nil {
			rt.logf("fleet: router: re-point %s at %s: %v", m.url, target.url, err)
		}
	}
	return target.url, nil
}

// pickRead selects the member of group gi to serve a read, skipping
// the members in tried (already tried and failed this request): ready,
// undrained followers round-robin first (spreading load off the
// primary), then a healthy primary, then any healthy member (stale reads
// beat no reads during a failover window). Members whose circuit
// breaker is open are shed from every pool — their recovery is probed
// by health polls, not client traffic. nil means no member is left.
func (rt *Router) pickRead(gi int, tried []*member) *member {
	var pools [3][]*member // ready followers, healthy primaries, other healthy members
	var fallback *member
	for _, m := range rt.groups[gi] {
		ms := rt.view(m)
		if ms.Drained || slices.Contains(tried, m) {
			continue
		}
		if fallback == nil {
			fallback = m
		}
		switch {
		case ms.Breaker == "open":
		case ms.Role == string(RoleFollower) && ms.Healthy && ms.Ready:
			pools[0] = append(pools[0], m)
		case ms.Role == string(RolePrimary) && ms.Healthy:
			pools[1] = append(pools[1], m)
		case ms.Healthy:
			pools[2] = append(pools[2], m)
		}
	}
	for _, pool := range pools {
		if len(pool) > 0 {
			return pool[rt.rr.Add(1)%uint64(len(pool))]
		}
	}
	// Nothing confirmed healthy; try anything undrained and untried
	// rather than failing outright (the member may be back before the
	// next poll, and an open breaker beats zero candidates).
	return fallback
}

// pickPrimary selects group gi's write target: the healthy primary, or
// the last known primary as a best effort; nil when it knows of none.
func (rt *Router) pickPrimary(gi int) *member {
	var known *member
	for _, m := range rt.groups[gi] {
		ms := rt.view(m)
		if ms.Role != string(RolePrimary) {
			continue
		}
		if ms.Healthy {
			return m
		}
		if known == nil {
			known = m
		}
	}
	return known
}

// reply is a node's raw answer to a forwarded request.
type reply struct {
	status int
	body   []byte
	// retryAfter is the node's Retry-After header (a 429 from its
	// admission gate, a 503 from a degraded journal), relayed so that a
	// client behind the router backs off as the node asked.
	retryAfter string
}

// forward relays body, if not nil, to path on c's node and returns the
// node's raw answer.
func (c *Client) forward(ctx context.Context, method, path string, body []byte) (reply, error) {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: data, retryAfter: resp.Header.Get("Retry-After")}, nil
}

// readGroup asks one member of group gi to classify, failing over to
// the next replica (up to the retry budget) when the chosen member
// errors or answers 5xx — a read should survive any single replica
// dying between health polls. An error means the group gave no answer
// to relay.
func (rt *Router) readGroup(ctx context.Context, gi int, body []byte) (reply, error) {
	var (
		rep     reply
		lastErr error
		tried   []*member
	)
	attempts := min(rt.opts.RetryBudget+1, len(rt.groups[gi]))
	for attempt := 0; attempt < attempts; attempt++ {
		m := rt.pickRead(gi, tried)
		if m == nil {
			break
		}
		tried = append(tried, m)
		if attempt > 0 {
			retriesTotal.With("read").Inc()
		}
		r, err := m.client.forward(ctx, http.MethodPost, "/v2/classify", body)
		if ctx.Err() == nil {
			rt.noteOutcome(m, err == nil && r.status < http.StatusInternalServerError)
		}
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return rep, lastErr
			}
			continue
		}
		rep, lastErr = r, nil
		if r.status >= http.StatusInternalServerError {
			// The replica answered but can't serve; another may.
			continue
		}
		return rep, nil
	}
	if rep.status == 0 && lastErr == nil {
		lastErr = fmt.Errorf("fleet: group %d has no serving member", gi)
	}
	return rep, lastErr
}

// ClassifyRouted routes one scan as a node would classify it. The
// index names the group holding the scan's building: a read goes to one
// of its members, an absorb to its primary. A node's 200 is decoded into
// the Routed it reports; any other answer, and a group that gave none, is
// a *server.StatusError, which the HTTP surface answers with unchanged.
// A scan the index cannot route takes no hop (see unrouted), and an
// absorb's new MACs route at once (see learn).
func (rt *Router) ClassifyRouted(ctx context.Context, rec *dataset.Record, opts ...core.Option) (portfolio.Routed, error) {
	gi, ok := rt.index.Load().Route(rec.Readings)
	if !ok {
		return portfolio.Routed{}, rt.unrouted()
	}
	req := core.NewRequest(rec, opts...)
	// One body serves both paths: an absorb goes to /v2/absorb, which
	// absorbs without the field.
	body, err := json.Marshal(&server.ClassifyRequest{ID: rec.ID, Readings: rec.Readings, TopK: req.TopK()})
	if err != nil {
		return portfolio.Routed{}, err
	}
	spanDone := obs.StartSpan(ctx, "forward")
	if !req.Absorb() {
		routedReadsTotal.Inc()
		rep, err := rt.readGroup(ctx, gi, body)
		spanDone()
		if err != nil {
			return portfolio.Routed{}, &server.StatusError{Status: http.StatusBadGateway, Msg: err.Error()}
		}
		return rep.result()
	}
	rep, err := rt.forwardWrite(ctx, gi, "/v2/absorb", body)
	spanDone()
	if err != nil {
		return portfolio.Routed{}, &server.StatusError{Status: http.StatusBadGateway, Msg: "fleet: forward absorb: " + err.Error()}
	}
	forwardedWritesTotal.Inc()
	routed, err := rep.result()
	if err == nil {
		rt.learn(gi, routed.Building, rec.Readings)
	}
	return routed, err
}

// unrouted answers a scan none of whose MACs the index holds: a 422 once
// every group has reported its MAC sets, and until then a 502 naming the
// first group that has not, since the scan may be that group's.
func (rt *Router) unrouted() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for gi, src := range rt.sources {
		if src.m == nil {
			return &server.StatusError{Status: http.StatusBadGateway, Msg: fmt.Sprintf("fleet: group %d has not reported its MAC sets", gi)}
		}
	}
	return &server.StatusError{Status: http.StatusUnprocessableEntity, Msg: "fleet: no group attributes this scan"}
}

// learn adds an absorbed scan's MACs to building's set in the report of
// group gi's index source and, when one of them was new, publishes a
// rebuilt index, so a later scan of only those MACs routes before the
// next poll. The node registers every MAC of an absorb it accepts, so
// the source's next report, which replaces the grown one, holds them
// too.
func (rt *Router) learn(gi int, building string, readings []dataset.Reading) {
	rt.mu.Lock()
	m := rt.sources[gi].m
	rt.mu.Unlock()
	if m != nil && m.learn(building, readings) {
		rt.refreshIndex()
	}
}

// learn replaces m's report with a copy whose building set also holds
// the readings' MACs, kept sorted, and reports whether one was new.
func (m *member) learn(building string, readings []dataset.Reading) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.macs == nil {
		return false
	}
	macs, ok := m.macs.sets[building]
	if !ok {
		return false
	}
	grown := slices.Clone(macs)
	for _, rd := range readings {
		if i, found := slices.BinarySearch(grown, rd.MAC); !found {
			grown = slices.Insert(grown, i, rd.MAC)
		}
	}
	if len(grown) == len(macs) {
		return false
	}
	sets := maps.Clone(m.macs.sets)
	sets[building] = grown
	m.macs = &memberMACs{version: m.macs.version, sets: sets}
	return true
}

// result decodes a node's classify answer: a 200 into the Routed it
// reports, anything else into a *server.StatusError with the node's
// status, Retry-After and message.
func (rep reply) result() (portfolio.Routed, error) {
	if rep.status != http.StatusOK {
		return portfolio.Routed{}, &server.StatusError{Status: rep.status, RetryAfter: rep.retryAfter, Msg: errorMessage(rep.body, rep.status)}
	}
	var cr server.ClassifyResponse
	if err := json.Unmarshal(rep.body, &cr); err != nil {
		return portfolio.Routed{}, &server.StatusError{Status: http.StatusBadGateway, Msg: "fleet: malformed node response: " + err.Error()}
	}
	return cr.Routed(), nil
}

// forwardWrite relays a write to group gi's primary, retrying with
// jittered exponential backoff — within the retry budget — on transport
// errors and on answers that explicitly mean "not applied, try again"
// (429 shed, 503 degraded/lagging, 502/504 from a dying hop). The
// primary is re-picked each attempt so a retry lands on a freshly
// promoted node rather than the corpse that failed. Anything else
// (including a success or a 4xx) returns immediately: only statuses
// that guarantee the write was not applied are retried, keeping the
// at-least-once window as small as a lost response.
func (rt *Router) forwardWrite(ctx context.Context, gi int, path string, body []byte) (reply, error) {
	var (
		rep     reply
		lastErr error
	)
	for attempt := 0; attempt <= rt.opts.RetryBudget; attempt++ {
		if attempt > 0 {
			retriesTotal.With("forward").Inc()
			if !sleepCtx(ctx, jitteredBackoff(forwardRetryBase, attempt-1, rt.opts.RetryBudget)) {
				break
			}
		}
		primary := rt.pickPrimary(gi)
		if primary == nil {
			lastErr = fmt.Errorf("fleet: group %d has no primary", gi)
			continue
		}
		var err error
		rep, err = primary.client.forward(ctx, http.MethodPost, path, body)
		if ctx.Err() == nil {
			rt.noteOutcome(primary, err == nil && rep.status < http.StatusInternalServerError)
		}
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if !retryableWriteStatus(rep.status) {
			return rep, nil
		}
		lastErr = fmt.Errorf("fleet: %s answered %d", primary.url, rep.status)
	}
	if rep.status != 0 {
		// Out of budget with a definitive (retryable) status: relay it so
		// the client sees the upstream's own Retry-After semantics.
		return rep, nil
	}
	return reply{}, lastErr
}

// retryableWriteStatus reports whether a forwarded write's response
// means "not applied, safe to retry".
func retryableWriteStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// RemoveMAC broadcasts a MAC retirement to every group's primary and
// sums the touched-building counts. A group that answers anything but
// 200 or 404 (or none at all) makes the whole call a 502 with that
// group's message, whatever the other groups answered, since the MAC
// may still be live there; a retry is safe, because a group that has
// already retired the MAC answers 404. The MAC arrives unescaped, so it
// is escaped again for the hop: "aa%3Fbb" must not reach a node as
// "aa?bb", which would retire "aa".
func (rt *Router) RemoveMAC(ctx context.Context, mac string) (int, error) {
	total := 0
	found := false
	var failed error
	for gi := range rt.groups {
		primary := rt.pickPrimary(gi)
		if primary == nil {
			failed = fmt.Errorf("fleet: group %d has no primary", gi)
			continue
		}
		rep, err := primary.client.forward(ctx, http.MethodDelete, "/v2/macs/"+url.PathEscape(mac), nil)
		switch {
		case err != nil:
			failed = err
		case rep.status == http.StatusOK:
			var body struct {
				Buildings int `json:"buildings"`
			}
			if err := json.Unmarshal(rep.body, &body); err == nil {
				total += body.Buildings
			}
			found = true
		case rep.status != http.StatusNotFound:
			failed = fmt.Errorf("fleet: retire on %s: %s", primary.url, errorMessage(rep.body, rep.status))
		}
	}
	switch {
	case failed != nil:
		return 0, &server.StatusError{Status: http.StatusBadGateway, Msg: failed.Error()}
	case !found:
		return 0, &server.StatusError{Status: http.StatusNotFound, Msg: fmt.Sprintf("unknown MAC %q", mac)}
	}
	return total, nil
}

// Buildings names the buildings the routing index holds, sorted.
func (rt *Router) Buildings() []string { return rt.index.Load().Buildings() }

// Stats gathers every group's per-building statistics, from its primary
// or else a read member, sorted by building. A group that does not
// answer is left out.
func (rt *Router) Stats(ctx context.Context) []portfolio.BuildingStats {
	var out []portfolio.BuildingStats
	for gi := range rt.groups {
		m := rt.pickPrimary(gi)
		if m == nil {
			if m = rt.pickRead(gi, nil); m == nil {
				continue
			}
		}
		rep, err := m.client.forward(ctx, http.MethodGet, "/v2/stats", nil)
		if err != nil {
			continue
		}
		var st server.StatsResponse
		if err := json.Unmarshal(rep.body, &st); err != nil {
			continue
		}
		for _, b := range st.PerBuilding {
			out = append(out, portfolio.BuildingStats{Building: b.Building, GraphStats: core.GraphStats{
				Records: b.Records, MACs: b.MACs, Edges: b.Edges,
			}})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Building < out[j].Building })
	return out
}

// replInfo reports the router on /v2/healthz and /v2/stats: ready while
// every group has a healthy primary.
func (rt *Router) replInfo() server.ReplInfo {
	ri := server.ReplInfo{Role: string(RoleRouter), Ready: rt.fleetStatus().Healthy}
	if !ri.Ready {
		ri.Error = "fleet: a group has no healthy primary; see /v2/admin/fleet"
	}
	return ri
}

// fleetStatus assembles the current topology view.
func (rt *Router) fleetStatus() FleetStatus {
	fs := FleetStatus{Healthy: true}
	for gi := range rt.groups {
		gs := GroupStatus{Index: gi, Key: groupKey(gi), Members: rt.groupStates(gi)}
		for _, ms := range gs.Members {
			if ms.Role == string(RolePrimary) && ms.Healthy {
				gs.Primary = ms.URL
				gs.Healthy = true
			}
		}
		if !gs.Healthy {
			fs.Healthy = false
		}
		fs.Groups = append(fs.Groups, gs)
	}
	return fs
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.fleetStatus())
}

// handleFleetPromote manually promotes ?member= (or the freshest
// follower of ?group=).
func (rt *Router) handleFleetPromote(w http.ResponseWriter, r *http.Request) {
	pick := strings.TrimRight(r.URL.Query().Get("member"), "/")
	gi := -1
	if g := r.URL.Query().Get("group"); g != "" {
		v, err := strconv.Atoi(g)
		if err != nil || v < 0 || v >= len(rt.groups) {
			writeJSONError(w, http.StatusBadRequest, fmt.Errorf("bad group %q", g))
			return
		}
		gi = v
	}
	if pick != "" {
		m := rt.find(pick)
		if m == nil {
			writeJSONError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown member %q", pick))
			return
		}
		if gi < 0 {
			gi = m.group
		}
	}
	if gi < 0 {
		writeJSONError(w, http.StatusBadRequest, errors.New("fleet: promote needs ?member= or ?group="))
		return
	}
	var candidates []MemberState
	for _, ms := range rt.groupStates(gi) {
		if ms.Role == string(RoleFollower) && ms.Healthy {
			candidates = append(candidates, ms)
		}
	}
	target, err := rt.promoteGroup(r.Context(), gi, candidates, pick)
	if err != nil {
		writeJSONError(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"promoted": target, "group": gi})
}

// handleFleetDrain toggles a member out of (or back into) read rotation.
func (rt *Router) handleFleetDrain(w http.ResponseWriter, r *http.Request) {
	member := strings.TrimRight(r.URL.Query().Get("member"), "/")
	if member == "" {
		writeJSONError(w, http.StatusBadRequest, errors.New("fleet: drain needs ?member="))
		return
	}
	undo := false
	if raw := r.URL.Query().Get("undo"); raw != "" {
		v, err := strconv.ParseBool(raw)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, fmt.Errorf("fleet: drain: query undo: %w", err))
			return
		}
		undo = v
	}
	m := rt.find(member)
	if m == nil {
		writeJSONError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown member %q", member))
		return
	}
	m.mu.Lock()
	m.state.Drained = !undo
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"member": member, "drained": !undo})
}

// errorMessage extracts a node's {"error": ...} body, falling back to
// the status code.
func errorMessage(body []byte, status int) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err == nil && e.Error != "" {
		return e.Error
	}
	return http.StatusText(status)
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
