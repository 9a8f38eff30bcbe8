package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/portfolio"
)

func TestAbsorbGateAdmitsAndReleases(t *testing.T) {
	g := newAbsorbGate(2)
	ctx := context.Background()
	r1, err := g.acquire(ctx)
	if err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	r2, err := g.acquire(ctx)
	if err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if _, err := g.acquire(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire 3: want ErrOverloaded, got %v", err)
	}
	r1()
	r3, err := g.acquire(ctx)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	r2()
	r3()
}

func TestAbsorbGateNilAdmitsEverything(t *testing.T) {
	var g *absorbGate
	for i := 0; i < 100; i++ {
		release, err := g.acquire(context.Background())
		if err != nil {
			t.Fatalf("nil gate refused: %v", err)
		}
		release()
	}
}

func TestAbsorbGateHonorsContext(t *testing.T) {
	g := newAbsorbGate(1)
	release, err := g.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// blockingRouter parks every absorbing write until released, so a test
// can hold the admission gate full with real in-flight requests;
// read-only classifies answer immediately.
type blockingRouter struct {
	gate chan struct{}
}

func (b *blockingRouter) ClassifyRouted(ctx context.Context, rec *dataset.Record, opts ...core.Option) (portfolio.Routed, error) {
	if core.NewRequest(rec, opts...).Absorb() {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return portfolio.Routed{}, ctx.Err()
		}
	}
	return portfolio.Routed{Building: "b"}, nil
}

func (b *blockingRouter) RemoveMAC(context.Context, string) (int, error) { return 0, nil }

// TestAdmissionControlShedsBurst fills the gate with blocked absorbs
// and asserts the next absorb is shed with 429 + Retry-After while a
// read-only classify on the same server still answers.
func TestAdmissionControlShedsBurst(t *testing.T) {
	rt := &blockingRouter{gate: make(chan struct{})}
	h := NewHandler(portfolio.New(core.Config{}), rt, Options{MaxInflightAbsorbs: 2})
	srv := httptest.NewServer(h)
	defer srv.Close()

	body := `{"id":"s","readings":[{"mac":"aa","rss":-50}]}`
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, srv.URL+"/v2/absorb", ClassifyRequest{
				ID: "s", Readings: []dataset.Reading{{MAC: "aa", RSS: -50}},
			})
			resp.Body.Close()
		}()
	}
	// Wait until both blocked absorbs occupy the gate.
	deadline := time.Now().Add(5 * time.Second)
	for absorbInflight.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("absorbs never occupied the gate")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, srv.URL+"/v2/absorb", ClassifyRequest{
		ID: "s", Readings: []dataset.Reading{{MAC: "aa", RSS: -50}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 reply missing Retry-After")
	}

	// Reads bypass the gate entirely.
	readResp := postJSON(t, srv.URL+"/v2/classify", ClassifyRequest{
		ID: "s", Readings: []dataset.Reading{{MAC: "aa", RSS: -50}},
	})
	if readResp.StatusCode != http.StatusOK {
		t.Fatalf("read during overload = %d, want 200", readResp.StatusCode)
	}

	close(rt.gate)
	wg.Wait()
}
