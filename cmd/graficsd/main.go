// Command graficsd serves floor identification over HTTP for a fleet of
// buildings. It loads a corpus JSON (from datagen or a real collection),
// trains one GRAFICS system per building — as many buildings at once as
// there are cores, each fit on one goroutine — and exposes the /v2 API
// of internal/server:
//
//	graficsd -corpus corpus.json -labels 4 -addr :8080 -state-dir /var/lib/grafics
//
//	curl localhost:8080/v2/healthz
//	curl localhost:8080/v2/stats
//	curl -X POST localhost:8080/v2/classify -d @scan.json
//	curl -X POST localhost:8080/v2/classify/batch --data-binary @scans.ndjson
//	curl -X DELETE localhost:8080/v2/macs/aa:bb:cc:dd:ee:01
//	curl -X POST localhost:8080/v2/admin/snapshot
//	curl localhost:8080/v2/admin/lifecycle
//
// # Durability and freshness
//
// With -state-dir, every absorbed scan is journaled to a write-ahead log
// before the response is sent, and the fleet is periodically captured in
// a portfolio snapshot. On boot the daemon warm-restarts: it restores the
// snapshot, replays the WAL tail, and only trains from -corpus the
// buildings the snapshot does not know (a cold start trains everything
// and writes the initial snapshot). Graceful shutdown takes a final
// snapshot; a SIGKILL loses at most the absorb that was mid-append.
//
// -refit-after N and -refit-max-age D set the staleness policy: once a
// building has absorbed N scans since its last fit (or its model is older
// than D), it is re-fitted on the accumulated corpus in the background
// and the new model is hot-swapped in while requests continue.
//
// # Observability
//
// GET /v2/metrics serves the process's metrics in Prometheus text
// exposition format; GET /v2/version reports the build. Every request is
// traced: the response carries an X-Grafics-Trace header, fleet hops
// propagate it, and debug-level logs join the hops up. -pprof mounts
// net/http/pprof under /debug/pprof/; -version prints the build and
// exits.
//
// Read-only classifications embed each scan from its edges into the
// frozen trained models under a shared read lock, so concurrent requests
// scale with cores. Every request runs under a context with
// -request-timeout; cancellation (timeout or client disconnect) aborts
// in-flight batch work promptly. SIGINT/SIGTERM drain in-flight requests
// before exit (graceful shutdown).
//
// # Scaling out
//
// -role selects the node's place in a replicated fleet (see
// internal/fleet). "single" (the default) is the standalone daemon
// above. "primary" serves the same API plus the replication source
// endpoints under /v2/repl/; -min-sync-acks N holds each absorb until N
// followers have durably mirrored it. "follower" bootstraps from
// -primary's snapshot, tails its WAL into -state-dir, and serves
// read-only classifications (writes answer 421 naming the primary); a
// POST /v2/admin/promote turns it into a primary after a mirror audit.
// "router" fronts -peers shard groups, forwarding writes to each owning
// primary, spreading reads over caught-up followers, and auto-promoting
// the freshest follower when a primary dies:
//
//	graficsd -role primary  -corpus corpus.json -state-dir /var/lib/grafics-a -addr :8081 -min-sync-acks 1
//	graficsd -role follower -primary http://localhost:8081 -state-dir /var/lib/grafics-b -addr :8082
//	graficsd -role router   -peers "http://localhost:8081,http://localhost:8082" -addr :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/server"
	"repro/internal/wal"
)

// errVersion signals that -version was requested; run prints the build
// info and exits successfully instead of serving.
var errVersion = errors.New("version requested")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "graficsd:", err)
		os.Exit(1)
	}
}

// app is a fully assembled daemon: the HTTP handler, the lifecycle
// manager behind it, and the serving parameters. Split from run so tests
// can boot, "kill", and reboot the daemon in-process.
type app struct {
	handler      http.Handler
	manager      *lifecycle.Manager
	node         *fleet.Node
	router       *fleet.Router
	role         string
	addr         string
	drainTimeout time.Duration
	stateDir     string
	buildings    int
}

// validateTopology rejects contradictory role/flag combinations before
// any state is touched, so a typo'd deployment fails fast with a message
// naming the conflict instead of half-booting.
func validateTopology(role, primary, peers, corpusPath, stateDir string) error {
	switch role {
	case "single", "primary", "follower", "router":
	default:
		return fmt.Errorf("unknown -role %q (want single, primary, follower, or router)", role)
	}
	if role != "follower" && primary != "" {
		return fmt.Errorf("-primary is only meaningful for -role follower, not %q", role)
	}
	if role != "router" && peers != "" {
		return fmt.Errorf("-peers is only meaningful for -role router, not %q", role)
	}
	switch role {
	case "primary":
		if stateDir == "" {
			return errors.New("-role primary requires -state-dir: the WAL is the replication source")
		}
	case "follower":
		if primary == "" {
			return errors.New("-role follower requires -primary")
		}
		if stateDir == "" {
			return errors.New("-role follower requires -state-dir: the mirrored WAL is what makes promotion lossless")
		}
		if corpusPath != "" {
			return errors.New("-role follower bootstraps from the primary; -corpus is contradictory")
		}
	case "router":
		if peers == "" {
			return errors.New("-role router requires -peers")
		}
		if corpusPath != "" || stateDir != "" {
			return errors.New("-role router holds no models; -corpus and -state-dir are contradictory")
		}
	}
	return nil
}

// validateHardening rejects contradictory robustness-knob combinations,
// in the same fail-fast spirit as validateTopology: each knob only
// exists for specific roles, and setting one where it cannot act is a
// deployment mistake worth naming, not silently ignoring. Zero means
// "unset" for all three (the built-in defaults apply).
func validateHardening(role string, retryBudget, breakerThreshold, maxInflightAbsorbs int) error {
	if retryBudget < 0 {
		return fmt.Errorf("-retry-budget %d must be non-negative", retryBudget)
	}
	if breakerThreshold < 0 {
		return fmt.Errorf("-breaker-threshold %d must be non-negative", breakerThreshold)
	}
	if maxInflightAbsorbs < 0 {
		return fmt.Errorf("-max-inflight-absorbs %d must be non-negative", maxInflightAbsorbs)
	}
	if retryBudget != 0 && role != "follower" && role != "router" {
		return fmt.Errorf("-retry-budget is only meaningful for -role follower or router, not %q: primaries are pulled from, they do not retry", role)
	}
	if breakerThreshold != 0 && role != "router" {
		return fmt.Errorf("-breaker-threshold is only meaningful for -role router, not %q: only the routing tier keeps per-peer breakers", role)
	}
	if maxInflightAbsorbs != 0 && (role == "router" || role == "follower") {
		return fmt.Errorf("-max-inflight-absorbs is only meaningful where absorbs are served (-role single or primary), not %q", role)
	}
	return nil
}

// newApp parses flags, restores or trains the fleet, and wires the
// lifecycle-managed handler. ctx cancels the boot sequence — WAL replay
// and initial training both honor it, so a SIGTERM during a slow restore
// exits promptly instead of finishing a boot nobody wants.
func newApp(ctx context.Context, args []string, logf func(string, ...any)) (*app, error) {
	fs := flag.NewFlagSet("graficsd", flag.ContinueOnError)
	corpusPath := fs.String("corpus", "", "corpus JSON path (optional when -state-dir holds a snapshot)")
	labels := fs.Int("labels", 4, "labeled records per floor used for training")
	seed := fs.Int64("seed", 1, "label-selection seed")
	addr := fs.String("addr", ":8080", "listen address")
	samples := fs.Int("samples-per-edge", 0, "E-LINE sample budget override")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	stateDir := fs.String("state-dir", "", "durable state directory (snapshots + absorb WAL); empty keeps models in memory only")
	refitAfter := fs.Int("refit-after", 0, "background-refit a building after this many absorbed scans (0 disables)")
	refitRatio := fs.Float64("refit-overlay-ratio", 0, "background-refit once absorbed scans exceed this fraction of the fitted corpus (0 disables)")
	refitMaxAge := fs.Duration("refit-max-age", 0, "background-refit a building whose model is older than this (0 disables)")
	walSync := fs.Int("wal-sync", 1, "fsync the absorb WAL every n appends (negative disables fsync)")
	role := fs.String("role", "single", "node role: single, primary, follower, or router")
	primaryURL := fs.String("primary", "", "primary base URL to replicate from (role=follower)")
	peers := fs.String("peers", "", `router shard groups: comma-separated member URLs, ";"-separated groups (role=router)`)
	minSyncAcks := fs.Int("min-sync-acks", 0, "followers that must durably mirror an absorb before it is acked (role=primary; 0 = async)")
	ackTimeout := fs.Duration("ack-timeout", 5*time.Second, "semi-sync replication wait bound (role=primary)")
	replPoll := fs.Duration("repl-poll", 250*time.Millisecond, "WAL tail poll interval (role=follower)")
	lagBound := fs.Int64("lag-bound", 1<<20, "byte lag within which a follower reports ready (role=follower)")
	retryBudget := fs.Int("retry-budget", 0, "exponential-backoff budget for replication and routing retries: backoff caps at 2^n, routed writes retry at most n times (role=follower or router; 0 = built-in default)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive peer failures before the router opens that peer's circuit breaker (role=router; 0 = built-in default)")
	maxInflightAbsorbs := fs.Int("max-inflight-absorbs", 0, "bound on concurrently admitted absorbing requests; excess waits briefly, then is shed with 429 (role=single or primary; 0 = unbounded)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default; profiling is not free)")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *version {
		return nil, errVersion
	}
	if err := validateTopology(*role, *primaryURL, *peers, *corpusPath, *stateDir); err != nil {
		return nil, err
	}
	if err := validateHardening(*role, *retryBudget, *breakerThreshold, *maxInflightAbsorbs); err != nil {
		return nil, err
	}

	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	if *samples > 0 {
		cfg.Embed.SamplesPerEdge = *samples
	}
	lopts := lifecycle.Options{
		StateDir: *stateDir,
		WAL:      walOptions(*walSync),
		Policy: lifecycle.Policy{
			RefitAfterAbsorbs: *refitAfter,
			MaxOverlayRatio:   *refitRatio,
			MaxModelAge:       *refitMaxAge,
		},
		Logf: logf,
	}

	switch *role {
	case "router":
		groups, err := fleet.ParseGroups(*peers)
		if err != nil {
			return nil, fmt.Errorf("-peers: %w", err)
		}
		rt, err := fleet.NewRouter(fleet.RouterOptions{
			Groups:           groups,
			RetryBudget:      *retryBudget,
			BreakerThreshold: *breakerThreshold,
			Logf:             logf,
		})
		if err != nil {
			return nil, err
		}
		rt.Start(ctx)
		return &app{
			handler:      withPprof(*pprofOn, withRequestTimeout(*reqTimeout, rt)),
			router:       rt,
			role:         *role,
			addr:         *addr,
			drainTimeout: *drainTimeout,
		}, nil
	case "follower":
		node, err := fleet.NewFollowerNode(ctx, fleet.NodeOptions{
			StateDir:  *stateDir,
			Lifecycle: lopts,
			Primary:   fleet.PrimaryOptions{MinSyncAcks: *minSyncAcks, AckTimeout: *ackTimeout},
			Follower: fleet.FollowerOptions{
				Primary:      *primaryURL,
				Config:       cfg,
				PollInterval: *replPoll,
				LagBound:     *lagBound,
				RetryBudget:  *retryBudget,
			},
			Logf: logf,
		})
		if err != nil {
			return nil, err
		}
		node.Start(ctx)
		logf("follower replicating from %s into %s", *primaryURL, *stateDir)
		return &app{
			handler:      withPprof(*pprofOn, fleetHandler(*reqTimeout, node)),
			node:         node,
			role:         *role,
			addr:         *addr,
			drainTimeout: *drainTimeout,
			stateDir:     *stateDir,
		}, nil
	}

	m, err := lifecycle.OpenCtx(ctx, cfg, lopts)
	if err != nil {
		return nil, err
	}
	p := m.Portfolio()
	restored := make(map[string]bool)
	for _, name := range p.Buildings() {
		restored[name] = true
	}
	if len(restored) > 0 {
		logf("warm restart: %d buildings restored from %s", len(restored), *stateDir)
	}

	var fits []portfolio.BuildingCorpus
	if *corpusPath != "" {
		corpus, err := dataset.LoadFile(*corpusPath)
		if err != nil {
			m.Close()
			return nil, err
		}
		for i := range corpus.Buildings {
			b := &corpus.Buildings[i]
			if restored[b.Name] {
				logf("skipping %s: already restored from snapshot", b.Name)
				continue
			}
			records := append([]dataset.Record(nil), b.Records...)
			rng := rand.New(rand.NewSource(*seed + int64(i)))
			granted := dataset.SelectLabels(records, *labels, rng)
			logf("training %s: %d records, %d labels", b.Name, len(records), granted)
			fits = append(fits, portfolio.BuildingCorpus{Name: b.Name, Train: records})
		}
	}
	trained := len(fits)
	if trained > 0 {
		// One fit per core, each on one goroutine: buildings train side
		// by side (see docs/determinism.md).
		start := time.Now()
		if err := p.AddBuildings(ctx, fits, 0); err != nil {
			m.Close()
			return nil, fmt.Errorf("train: %w", err)
		}
		logf("trained %d buildings in %v", trained, time.Since(start).Round(time.Millisecond))
	}
	buildings := len(p.Buildings())
	if buildings == 0 {
		m.Close()
		return nil, fmt.Errorf("no buildings: provide -corpus or a -state-dir with a snapshot")
	}
	// A cold start (or new buildings) with durability enabled writes the
	// snapshot immediately, so a crash before the first absorb already
	// warm-restarts.
	if *stateDir != "" && trained > 0 {
		if err := m.Snapshot(); err != nil {
			m.Close()
			return nil, fmt.Errorf("initial snapshot: %w", err)
		}
	}
	a := &app{
		manager:      m,
		role:         *role,
		addr:         *addr,
		drainTimeout: *drainTimeout,
		stateDir:     *stateDir,
		buildings:    buildings,
	}
	if *role == "primary" {
		node, err := fleet.NewPrimaryNode(ctx, m, fleet.NodeOptions{
			StateDir:           *stateDir,
			Lifecycle:          lopts,
			Primary:            fleet.PrimaryOptions{MinSyncAcks: *minSyncAcks, AckTimeout: *ackTimeout},
			MaxInflightAbsorbs: *maxInflightAbsorbs,
			Logf:               logf,
		})
		if err != nil {
			m.Close()
			return nil, err
		}
		a.node = node
		a.handler = fleetHandler(*reqTimeout, node)
	} else {
		a.handler = withRequestTimeout(*reqTimeout, server.NewHandler(p, m, server.Options{
			Lifecycle:          m,
			MaxInflightAbsorbs: *maxInflightAbsorbs,
		}))
	}
	a.handler = withPprof(*pprofOn, a.handler)
	return a, nil
}

// withPprof mounts the net/http/pprof surface in front of h when the
// -pprof flag is set. The profile endpoints bypass the request timeout:
// a 30-second CPU profile is the point, not a stuck request.
func withPprof(enabled bool, h http.Handler) http.Handler {
	if !enabled {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// walOptions maps the -wal-sync flag onto wal.Options (the Dir is
// derived from the state dir by the lifecycle manager).
func walOptions(syncEvery int) wal.Options {
	return wal.Options{SyncEvery: syncEvery}
}

// shutdown finalizes whatever state the role owns: routers stop polling,
// followers stop tailing, and any lifecycle manager (single, primary, or
// a follower that was promoted while serving) takes a last snapshot and
// closes its WAL.
func (a *app) shutdown(logf func(string, ...any)) error {
	if a.router != nil {
		a.router.Stop()
		return nil
	}
	m := a.manager
	if a.node != nil {
		a.node.Close() // stops a follower's tail loop; no-op for primaries
		m = a.node.Manager()
	}
	if m == nil {
		return nil // a never-promoted follower owns no journal
	}
	if a.stateDir != "" {
		if err := m.Snapshot(); err != nil {
			logf("final snapshot failed (WAL still covers the absorbs): %v", err)
		}
	}
	return m.Close()
}

// fleetHandler applies the request deadline to serving routes but exempts
// the replication and admin surface: WAL tailing, snapshot streaming, and
// promotion (which re-replays the whole mirror) are legitimately
// long-running and must not be cut off mid-transfer.
func fleetHandler(d time.Duration, node *fleet.Node) http.Handler {
	if d <= 0 {
		return node
	}
	timed := withRequestTimeout(d, node)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v2/repl/") || strings.HasPrefix(r.URL.Path, "/v2/admin/") {
			node.ServeHTTP(w, r)
			return
		}
		timed.ServeHTTP(w, r)
	})
}

func run(args []string) error {
	// The signal context is created before boot so a SIGTERM during a slow
	// warm restart or initial training aborts promptly instead of serving.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	a, err := newApp(ctx, args, log.Printf)
	if errors.Is(err, errVersion) {
		fmt.Println("graficsd", obs.Version().String())
		return nil
	}
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              a.addr,
		Handler:           a.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		switch a.role {
		case "router":
			log.Printf("routing fleet traffic on %s (v2)", a.addr)
		case "follower":
			log.Printf("serving read-only replica on %s (writes redirect to the primary)", a.addr)
		default:
			log.Printf("serving %d buildings on %s (v2, role=%s)", a.buildings, a.addr, a.role)
		}
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		a.shutdown(log.Printf)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	log.Printf("shutting down: draining in-flight requests (up to %v)", a.drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), a.drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(shutdownCtx)
	// Finalize the lifecycle even when the drain timed out: the final
	// snapshot and WAL close must not be hostage to a stuck request.
	if err := a.shutdown(log.Printf); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if drainErr != nil {
		return fmt.Errorf("shutdown: %w", drainErr)
	}
	log.Printf("bye")
	return nil
}

// withRequestTimeout applies a deadline to every request's context, so
// the timeout propagates through the classification layers (and streaming
// routes stop mid-batch) rather than being enforced only at the socket.
func withRequestTimeout(d time.Duration, h http.Handler) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}
