package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/portfolio"
	"repro/internal/server"
	"repro/internal/wal"
)

// coreConfig is the production model configuration: default E-LINE
// hyperparameters trained by the fast (Hogwild) strategy on every core.
func coreConfig() core.Config {
	cfg := core.Config{Embed: embed.DefaultConfig()}
	cfg.Embed.Strategy = embed.StrategyFast
	return cfg
}

// system is one brought-up deployment: durable lifecycle managers served
// over loopback, behind a fleet.Router when the workload has groups.
type system struct {
	base     string // URL the benchmark's client talks to
	managers []*lifecycle.Manager
	owner    map[string]*lifecycle.Manager // building → its manager
	servers  []*http.Server
	router   *fleet.Router
	stateDir string
}

// bringUp trains the workload's buildings and serves them exactly as
// graficsd does with a state directory and -wal-sync 1: open the
// lifecycle manager (cold start), fit every building, write the initial
// snapshot, then serve. With tr set, every handler the benchmark mounts
// and the manager's server.Router seam are wrapped in spans. It returns
// once the entry point answers its health check.
func bringUp(ctx context.Context, in *inputs, stateDir string, tr *tracer) (*system, error) {
	s := &system{owner: make(map[string]*lifecycle.Manager), stateDir: stateDir}
	groups := max(in.spec.Groups, 1)
	var urls [][]string
	for g := 0; g < groups; g++ {
		var corpora []portfolio.BuildingCorpus
		for b := g; b < len(in.corpora); b += groups {
			corpora = append(corpora, portfolio.BuildingCorpus{Name: in.corpora[b].Name, Train: in.corpora[b].Train})
		}
		url, err := s.startNode(ctx, in.spec.Groups > 0, corpora, filepath.Join(stateDir, fmt.Sprintf("node-%d", g)), tr)
		if err != nil {
			s.close()
			return nil, err
		}
		urls = append(urls, []string{url})
	}
	s.base = urls[0][0]
	if in.spec.Groups > 0 {
		rt, err := fleet.NewRouter(fleet.RouterOptions{Groups: urls})
		if err != nil {
			s.close()
			return nil, err
		}
		s.router = rt
		rt.Start(ctx)
		var h http.Handler = rt
		if tr != nil {
			h = tr.handler(spanRouter, rt)
		}
		if s.base, err = s.serve(h); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := waitHealthy(ctx, s.base); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startNode brings up one node over the given buildings and returns its
// URL. A fleet member is a primary node; its serving surface is rebuilt
// from the same server.NewHandler the node uses, so the tracer can wrap
// the manager, while replication status still comes from the node.
func (s *system) startNode(ctx context.Context, primary bool, corpora []portfolio.BuildingCorpus, dir string, tr *tracer) (string, error) {
	m, err := lifecycle.OpenCtx(ctx, coreConfig(), lifecycle.Options{
		StateDir: dir,
		WAL:      wal.Options{SyncEvery: 1},
	})
	if err != nil {
		return "", err
	}
	s.managers = append(s.managers, m)
	if err := m.Portfolio().AddBuildings(ctx, corpora, 0); err != nil {
		return "", fmt.Errorf("train: %w", err)
	}
	for _, c := range corpora {
		s.owner[c.Name] = m
	}
	if err := m.Snapshot(); err != nil {
		return "", fmt.Errorf("initial snapshot: %w", err)
	}
	var rt server.Router = m
	if tr != nil {
		rt = tracedRouter{Router: m, t: tr}
	}
	opts := server.Options{Lifecycle: m}
	var h http.Handler
	switch {
	case primary:
		node, err := fleet.NewPrimaryNode(ctx, m, fleet.NodeOptions{StateDir: dir})
		if err != nil {
			return "", err
		}
		if tr == nil {
			h = node
			break
		}
		opts.Repl = node.ReplInfo
		mux := http.NewServeMux()
		mux.Handle("/v2/repl/", node)
		mux.Handle("/", tr.handler(spanNode, server.NewHandler(m.Portfolio(), rt, opts)))
		h = mux
	default:
		h = server.NewHandler(m.Portfolio(), rt, opts)
		if tr != nil {
			h = tr.handler(spanNode, h)
		}
	}
	return s.serve(h)
}

// serve starts an HTTP server for h on a loopback port.
func (s *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// waitHealthy polls GET /v2/healthz until it answers 200.
func waitHealthy(ctx context.Context, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v2/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy (last error %v)", base, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// close stops the router, every server and the managers, and removes
// the state directory. No request is in flight by then, so servers are
// closed outright rather than drained: a drain would wait out
// connections the router's transport dialled but never used.
func (s *system) close() error {
	var errs []error
	if s.router != nil {
		s.router.Stop()
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Close())
	}
	for _, m := range s.managers {
		errs = append(errs, m.Close())
	}
	http.DefaultClient.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(s.stateDir))
	return errors.Join(errs...)
}

// forceRefit refits building name and returns how long it took from the
// request until the lifecycle status shows the new model swapped in.
func (s *system) forceRefit(ctx context.Context, name string) (time.Duration, error) {
	m := s.owner[name]
	before, err := buildingStatus(m, name)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	started, err := m.ForceRefit(name)
	if err != nil {
		return 0, err
	}
	if len(started) == 0 {
		return 0, fmt.Errorf("refit of %s did not start", name)
	}
	poll := time.NewTicker(refitPoll)
	defer poll.Stop()
	for {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-poll.C:
		}
		st, err := buildingStatus(m, name)
		if err != nil {
			return 0, err
		}
		if st.Refits > before.Refits {
			return time.Since(start), nil
		}
		if !st.Refitting && st.LastRefitError != "" {
			return 0, fmt.Errorf("refit of %s: %s", name, st.LastRefitError)
		}
	}
}

// refitPoll is how often forceRefit polls the lifecycle status; it bounds
// the resolution of refit_s.
const refitPoll = 2 * time.Millisecond

func buildingStatus(m *lifecycle.Manager, name string) (lifecycle.BuildingStatus, error) {
	for _, b := range m.Status().Buildings {
		if b.Building == name {
			return b, nil
		}
	}
	return lifecycle.BuildingStatus{}, fmt.Errorf("building %s not in lifecycle status", name)
}
