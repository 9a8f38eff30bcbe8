package fleet

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// traceLogBuffer is a mutex-guarded sink for the process-wide obs
// logger; router and node handlers log from separate goroutines.
type traceLogBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *traceLogBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *traceLogBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTracePropagatesRouterToPrimary is the tracing acceptance test: a
// trace minted at the router for an absorb must appear in the owning
// primary's request log for the forwarded hop, tied together by the
// X-Grafics-Trace header.
func TestTracePropagatesRouterToPrimary(t *testing.T) {
	logs := &traceLogBuffer{}
	obs.SetLogger(slog.New(slog.NewTextHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug})))
	t.Cleanup(func() { obs.SetLogger(nil) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, pSrv, _, pool := startPrimary(t, ctx, "alpha", 21, PrimaryOptions{})

	router, err := NewRouter(RouterOptions{
		Groups:         [][]string{{pSrv.URL}},
		HealthInterval: 100 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	router.Start(ctx)
	t.Cleanup(router.Stop)
	rSrv := newTestServer(t, router)
	waitFor(t, 20*time.Second, "router sees the primary", func() bool {
		fs := router.fleetStatus()
		return len(fs.Groups) == 1 && fs.Groups[0].Primary == pSrv.URL
	})

	rec, _ := uniqueScan(pool[0], 1)
	body := `{"id":"` + rec.ID + `","readings":[`
	parts := make([]string, 0, len(rec.Readings))
	for _, rd := range rec.Readings {
		parts = append(parts, `{"mac":"`+rd.MAC+`","rss":-50}`)
	}
	body += strings.Join(parts, ",") + `]}`
	resp, err := http.Post(rSrv.URL+"/v2/absorb", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v2/absorb via router: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("absorb via router: status %d", resp.StatusCode)
	}
	trace := resp.Header.Get(obs.TraceHeader)
	if trace == "" {
		t.Fatal("router response carries no trace header")
	}

	// Two log lines share the trace: the router's (which minted it,
	// origin=local) and the primary's forwarded hop (origin=header).
	var routerHop, primaryHop bool
	for _, line := range strings.Split(logs.String(), "\n") {
		if !strings.Contains(line, "trace="+trace) {
			continue
		}
		switch {
		case strings.Contains(line, "origin=local"):
			routerHop = true
		case strings.Contains(line, "origin=header"):
			primaryHop = true
			if !strings.Contains(line, "route=") {
				t.Errorf("primary hop log has no route attr: %s", line)
			}
		}
	}
	if !routerHop {
		t.Errorf("no router-side (origin=local) log line for trace %s\nlogs:\n%s", trace, logs.String())
	}
	if !primaryHop {
		t.Errorf("trace %s never reached the primary's logs (origin=header)\nlogs:\n%s", trace, logs.String())
	}
}
