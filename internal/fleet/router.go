package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// FailThreshold is how many consecutive failed polls mark a member
	// down (default 3).
	FailThreshold int
	// HTTPTimeout bounds each forwarded or health request.
	HTTPTimeout time.Duration
	// RetryBudget bounds the retry attempts (with jittered exponential
	// backoff) a forwarded write spends on retryable failures, and the
	// extra replicas a read fails over to. Default defaultRetryBudget.
	RetryBudget int
	// BreakerThreshold opens a member's circuit breaker after this many
	// consecutive failures; an open member serves no reads until a
	// health poll or request to it succeeds. Default
	// defaultBreakerThreshold.
	BreakerThreshold int
	// Transport substitutes the HTTP transport for every outbound call
	// (forwards, health polls). Nil means a clone of
	// http.DefaultTransport that keeps routerIdleConnsPerHost idle
	// connections per node; chaos tests inject fault.Transport here.
	Transport http.RoundTripper
	Logf      func(string, ...any)
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

// routerIdleConnsPerHost is how many idle connections the default router
// transport keeps per node: http.DefaultTransport's whole pool
// (MaxIdleConns) rather than its 2 per host, which made every burst of
// more than 2 concurrent forwards to a node close the surplus
// connections and dial them again on the next burst.
const routerIdleConnsPerHost = 100

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
	opts   RouterOptions
	groups [][]string
	hc     *http.Client
	logf   func(string, ...any)
	mux    *http.ServeMux
	rr     atomic.Uint64

	// index attributes scans across the fleet. pollAll rebuilds it from
	// the MAC sets each group's index source reports (see indexSource)
	// and publishes it whole; reads load it without a lock and never
	// mutate it.
	index atomic.Pointer[portfolio.MACIndex]

	mu sync.Mutex
	// grafics:guardedby mu
	state map[string]MemberState
	// grafics:guardedby mu
	drained map[string]bool
	// grafics:guardedby mu
	lastFailover map[int]time.Time
	// grafics:guardedby mu
	breakers map[string]*breaker
	// macs is every member's last MAC-set report.
	//
	// grafics:guardedby mu
	macs map[string]memberMACs
	// sources is the member whose report each group's slice of index
	// was built from, "" for a group none of whose members has reported.
	//
	// grafics:guardedby mu
	sources []string

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
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = defaultFailThreshold
	}
	if opts.RetryBudget <= 0 {
		opts.RetryBudget = defaultRetryBudget
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = defaultBreakerThreshold
	}
	opts.HealthInterval = nonZero(opts.HealthInterval, defaultHealthInterval)
	opts.HTTPTimeout = nonZero(opts.HTTPTimeout, defaultHTTPTimeout)
	if opts.Transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = routerIdleConnsPerHost
		opts.Transport = t
	}
	logf := opts.Logf
	if logf == nil {
		logf = nopLogf
	}
	rt := &Router{
		opts:         opts,
		groups:       opts.Groups,
		hc:           &http.Client{Timeout: opts.HTTPTimeout, Transport: opts.Transport},
		logf:         logf,
		state:        make(map[string]MemberState),
		drained:      make(map[string]bool),
		lastFailover: make(map[int]time.Time),
		breakers:     make(map[string]*breaker),
		macs:         make(map[string]memberMACs),
		sources:      make([]string, len(opts.Groups)),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
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
	rt.hc.CloseIdleConnections()
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

// breakerFor returns (lazily creating) the circuit breaker for url.
func (rt *Router) breakerFor(url string) *breaker {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b, ok := rt.breakers[url]
	if !ok {
		b = newBreaker(rt.opts.BreakerThreshold)
		rt.breakers[url] = b
	}
	return b
}

// noteOutcome feeds one request or poll outcome into url's breaker and
// keeps the exported gauge and transition counter in step.
func (rt *Router) noteOutcome(url string, ok bool) {
	b := rt.breakerFor(url)
	prev := b.current()
	st := b.record(ok)
	breakerStateGauge.With(url).SetInt(int64(st))
	if st == breakerOpen && prev != breakerOpen {
		breakerOpensTotal.Inc()
		rt.logf("fleet: router: circuit for %s opened after %d consecutive failures", url, rt.opts.BreakerThreshold)
	}
	if st == breakerClosed && prev != breakerClosed {
		rt.logf("fleet: router: circuit for %s closed", url)
	}
}

// memberMACs is one member's report of its attribution index.
type memberMACs struct {
	version uint64
	sets    map[string][]string // building → MACs
}

// pollAll refreshes every member's observed state in parallel, then the
// routing index if a group's MAC sets or primary changed.
func (rt *Router) pollAll(ctx context.Context) {
	type slot struct {
		url   string
		group int
	}
	var slots []slot
	for gi, g := range rt.groups {
		for _, u := range g {
			slots = append(slots, slot{url: u, group: gi})
		}
	}
	fresh := make([]MemberState, len(slots))
	reports := make([]*memberMACs, len(slots))
	_ = par.ForEachCtx(ctx, len(slots), func(i int) {
		fresh[i], reports[i] = rt.pollMember(ctx, slots[i].url, slots[i].group)
	})
	changed := false
	rt.mu.Lock()
	for i, ms := range fresh {
		if ms.URL == "" { // cancelled before this slot ran
			continue
		}
		ms.Drained = rt.drained[ms.URL]
		rt.state[ms.URL] = ms
		if reports[i] != nil {
			rt.macs[ms.URL] = *reports[i]
			changed = true
		}
	}
	rt.mu.Unlock()
	rt.refreshIndex(changed)
}

// refreshIndex rebuilds the routing index when a MAC-set report changed
// or a group's index source did.
func (rt *Router) refreshIndex(changed bool) {
	sources := make([]string, len(rt.groups))
	for gi := range rt.groups {
		sources[gi] = rt.indexSource(gi)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !changed && slices.Equal(sources, rt.sources) {
		return
	}
	rt.sources = sources
	rt.publishIndexLocked()
}

// publishIndexLocked builds the routing index from each group's index
// source's last MAC-set report and publishes it. A building two groups
// report is routed to the lower one.
//
//grafics:locked mu
func (rt *Router) publishIndexLocked() {
	idx := portfolio.NewMACIndex()
	claimed := make(map[string]bool)
	for gi, u := range rt.sources {
		for building, macs := range rt.macs[u].sets {
			if !claimed[building] {
				claimed[building] = true
				idx.Set(building, gi, macs)
			}
		}
	}
	rt.index.Store(idx)
}

// indexSource names the member whose report group gi's part of the
// index is built from: the primary writes go to. While the router knows
// of no primary in the group — one that was already down when the router
// started, say — it is the reporting member that has applied the most of
// the group's log, since the group's reads are served from those
// replicas meanwhile. "" means no member of the group has reported.
func (rt *Router) indexSource(gi int) string {
	primary, _ := rt.pickPrimary(gi)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.macs[primary]; ok {
		return primary
	}
	src := ""
	for _, u := range rt.groups[gi] {
		if _, ok := rt.macs[u]; ok && (src == "" || rt.state[src].Applied.Less(rt.state[u].Applied)) {
			src = u
		}
	}
	return src
}

// macVersion returns the index version member url last reported, 0 if
// none; no node's index has version 0.
func (rt *Router) macVersion(url string) uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.macs[url].version
}

// pollMember fetches one member's status together with its MAC sets,
// which come back only when its index version moved.
func (rt *Router) pollMember(ctx context.Context, url string, group int) (MemberState, *memberMACs) {
	prev, _ := rt.member(url)
	ms := MemberState{URL: url, Group: group, LastSeen: time.Now()}
	since := rt.macVersion(url)
	st, err := NewClientWith(url, rt.opts.HTTPTimeout, rt.opts.Transport).StatusMACs(ctx, since)
	if ctx.Err() == nil {
		rt.noteOutcome(url, err == nil)
	}
	if err != nil {
		healthPollFailuresTotal.Inc()
		ms.Role = prev.Role
		ms.Primary = prev.Primary
		ms.Epoch = prev.Epoch
		ms.Applied = prev.Applied
		ms.Mirrored = prev.Mirrored
		ms.Buildings = prev.Buildings
		ms.Failures = prev.Failures + 1
		ms.Healthy = ms.Failures < rt.opts.FailThreshold && prev.Role != ""
		ms.Error = err.Error()
		ms.LastSeen = prev.LastSeen
		return ms, nil
	}
	ms.Role = st.Role
	ms.Primary = st.Primary
	ms.Epoch = st.Epoch
	ms.Applied = st.Applied
	ms.Mirrored = st.Mirrored
	ms.LagBytes = st.LagBytes
	ms.Ready = st.Ready
	ms.Healthy = true
	ms.Buildings = st.Buildings
	if st.MACsVersion == since {
		return ms, nil
	}
	return ms, &memberMACs{version: st.MACsVersion, sets: st.MACs}
}

func (rt *Router) member(url string) (MemberState, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ms, ok := rt.state[url]
	return ms, ok
}

// groupStates snapshots one group's member states in config order.
func (rt *Router) groupStates(gi int) []MemberState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]MemberState, 0, len(rt.groups[gi]))
	for _, u := range rt.groups[gi] {
		ms, ok := rt.state[u]
		if !ok {
			ms = MemberState{URL: u, Group: gi}
		}
		ms.Drained = rt.drained[u]
		if b, ok := rt.breakers[u]; ok {
			ms.Breaker = b.current().String()
		}
		out = append(out, ms)
	}
	return out
}

// checkFailover promotes the freshest follower of any group whose
// primary is down. One attempt per cooldown window per group; the next
// poll observes the new topology.
func (rt *Router) checkFailover(ctx context.Context) {
	for gi := range rt.groups {
		var primaryAlive, primaryDead bool
		var candidates []MemberState
		for _, ms := range rt.groupStates(gi) {
			switch {
			case ms.Role == string(RolePrimary) && ms.Healthy:
				primaryAlive = true
			case ms.Role == string(RolePrimary) && ms.Failures >= rt.opts.FailThreshold:
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
	target := ""
	for _, c := range candidates {
		if pick == "" || c.URL == pick {
			target = c.URL
			break
		}
	}
	if target == "" {
		return "", fmt.Errorf("fleet: no promotion candidate in group %d", gi)
	}
	rt.logf("fleet: router: promoting %s in group %d", target, gi)
	res, err := NewClientWith(target, 2*time.Minute, rt.opts.Transport).Promote(ctx)
	if err != nil {
		rt.logf("fleet: router: promote %s: %v", target, err)
		return "", err
	}
	rt.logf("fleet: router: %s promoted: %d records verified, epoch %s", target, res.Verified, res.NewEpoch)
	failoversTotal.Inc()
	rt.mu.Lock()
	if ms, ok := rt.state[target]; ok {
		ms.Role = string(RolePrimary)
		ms.Primary = ""
		ms.Healthy = true
		ms.Failures = 0
		rt.state[target] = ms
	}
	rt.mu.Unlock()
	for _, u := range rt.groups[gi] {
		if u == target {
			continue
		}
		ms, ok := rt.member(u)
		if !ok || ms.Role != string(RoleFollower) || !ms.Healthy {
			continue
		}
		if err := NewClientWith(u, rt.opts.HTTPTimeout, rt.opts.Transport).Follow(ctx, target); err != nil {
			rt.logf("fleet: router: re-point %s at %s: %v", u, target, err)
		}
	}
	return target, nil
}

// pickRead selects the member of group gi to serve a read, skipping
// the members in tried (already tried and failed this request): ready,
// undrained followers round-robin first (spreading load off the
// primary), then a healthy primary, then any healthy member (stale reads
// beat no reads during a failover window). Members whose circuit
// breaker is open are shed from every pool — their recovery is probed
// by health polls, not client traffic.
func (rt *Router) pickRead(gi int, tried map[string]bool) (string, bool) {
	states := rt.groupStates(gi)
	var followers, primaries, healthy []string
	for _, ms := range states {
		if ms.Drained || tried[ms.URL] || rt.breakerFor(ms.URL).current() != breakerClosed {
			continue
		}
		switch {
		case ms.Role == string(RoleFollower) && ms.Healthy && ms.Ready:
			followers = append(followers, ms.URL)
		case ms.Role == string(RolePrimary) && ms.Healthy:
			primaries = append(primaries, ms.URL)
		case ms.Healthy:
			healthy = append(healthy, ms.URL)
		}
	}
	for _, pool := range [][]string{followers, primaries, healthy} {
		if len(pool) > 0 {
			return pool[rt.rr.Add(1)%uint64(len(pool))], true
		}
	}
	// Nothing confirmed healthy; try anything undrained and untried
	// rather than failing outright (the member may be back before the
	// next poll, and an open breaker beats zero candidates).
	for _, ms := range states {
		if !ms.Drained && !tried[ms.URL] {
			return ms.URL, true
		}
	}
	return "", false
}

// pickPrimary selects group gi's write target: the healthy primary, or
// the last known primary as a best effort.
func (rt *Router) pickPrimary(gi int) (string, bool) {
	states := rt.groupStates(gi)
	for _, ms := range states {
		if ms.Role == string(RolePrimary) && ms.Healthy {
			return ms.URL, true
		}
	}
	for _, ms := range states {
		if ms.Role == string(RolePrimary) {
			return ms.URL, true
		}
	}
	return "", false
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

// forward relays body to url+path and returns the raw response.
func (rt *Router) forward(ctx context.Context, method, url, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Carry the request's trace across the hop so the node's logs join up
	// with the router's.
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := rt.hc.Do(req)
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
	)
	tried := make(map[string]bool)
	attempts := rt.opts.RetryBudget + 1
	if n := len(rt.groups[gi]); attempts > n {
		attempts = n
	}
	for attempt := 0; attempt < attempts; attempt++ {
		url, ok := rt.pickRead(gi, tried)
		if !ok {
			break
		}
		tried[url] = true
		if attempt > 0 {
			retriesTotal.With("read").Inc()
		}
		r, err := rt.forward(ctx, http.MethodPost, url, "/v2/classify", body)
		if ctx.Err() == nil {
			rt.noteOutcome(url, err == nil && r.status < http.StatusInternalServerError)
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
		if src == "" {
			return &server.StatusError{Status: http.StatusBadGateway, Msg: fmt.Sprintf("fleet: group %d has not reported its MAC sets", gi)}
		}
	}
	return &server.StatusError{Status: http.StatusUnprocessableEntity, Msg: "fleet: no group attributes this scan"}
}

// learn adds an absorbed scan's MACs to building's set in group gi's last
// report and, when one of them was new, publishes a rebuilt index, so a
// later scan of only those MACs routes before the next poll. The node
// registers every MAC of an absorb it accepts, so the source's next
// report, which replaces the grown set, holds them too. A report's sets
// are sorted (MACIndex.Sets), and stay so here.
func (rt *Router) learn(gi int, building string, readings []dataset.Reading) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sets := rt.macs[rt.sources[gi]].sets
	macs, ok := sets[building]
	if !ok {
		return
	}
	n := len(macs)
	for _, rd := range readings {
		if i, found := slices.BinarySearch(macs, rd.MAC); !found {
			macs = slices.Insert(macs, i, rd.MAC)
		}
	}
	if len(macs) == n {
		return
	}
	sets[building] = macs
	rt.publishIndexLocked()
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
		primary, ok := rt.pickPrimary(gi)
		if !ok {
			lastErr = fmt.Errorf("fleet: group %d has no primary", gi)
			continue
		}
		var err error
		rep, err = rt.forward(ctx, http.MethodPost, primary, path, body)
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
		lastErr = fmt.Errorf("fleet: %s answered %d", primary, rep.status)
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
		primary, ok := rt.pickPrimary(gi)
		if !ok {
			failed = fmt.Errorf("fleet: group %d has no primary", gi)
			continue
		}
		rep, err := rt.forward(ctx, http.MethodDelete, primary, "/v2/macs/"+url.PathEscape(mac), nil)
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
			failed = fmt.Errorf("fleet: retire on %s: %s", primary, errorMessage(rep.body, rep.status))
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
		url, ok := rt.pickPrimary(gi)
		if !ok {
			if url, ok = rt.pickRead(gi, nil); !ok {
				continue
			}
		}
		rep, err := rt.forward(ctx, http.MethodGet, url, "/v2/stats", nil)
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
		mg := rt.groupOf(pick)
		if mg < 0 {
			writeJSONError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown member %q", pick))
			return
		}
		if gi < 0 {
			gi = mg
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
	if rt.groupOf(member) < 0 {
		writeJSONError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown member %q", member))
		return
	}
	rt.mu.Lock()
	rt.drained[member] = !undo
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"member": member, "drained": !undo})
}

// groupOf returns the index of the group member belongs to, or -1.
func (rt *Router) groupOf(member string) int {
	for gi, g := range rt.groups {
		for _, u := range g {
			if u == member {
				return gi
			}
		}
	}
	return -1
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
