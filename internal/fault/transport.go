package fault

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// partMode is what happens to a request aimed at a partitioned host.
type partMode int

const (
	partCut  partMode = iota // fail fast, like a refused connection
	partHang                 // blackhole until the request context expires
)

// Transport is an http.RoundTripper that injects network faults in
// front of a real transport. Hosts are matched on URL.Host (host:port).
// Fault schedules are counter-based, so a test replays the same faults
// on every run. Safe for concurrent use.
//
// The zero-fault state forwards every request untouched.
type Transport struct {
	base http.RoundTripper

	mu sync.Mutex
	// grafics:guardedby mu
	parts map[string]partMode
	// grafics:guardedby mu
	failN int // requests remaining in the current 5xx burst
	// grafics:guardedby mu
	failStatus int
}

// NewTransport wraps base (http.DefaultTransport when nil) with a fault
// injector.
func NewTransport(base http.RoundTripper) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{
		base:  base,
		parts: make(map[string]partMode),
	}
}

// Partition makes every request to the given hosts fail immediately, as
// a severed link would.
func (t *Transport) Partition(hosts ...string) { t.setPart(partCut, hosts) }

// Blackhole makes every request to the given hosts hang until the
// request's context expires — the shape of a timeout, not a refusal.
func (t *Transport) Blackhole(hosts ...string) { t.setPart(partHang, hosts) }

func (t *Transport) setPart(mode partMode, hosts []string) {
	t.mu.Lock()
	for _, h := range hosts {
		t.parts[h] = mode
	}
	t.mu.Unlock()
}

// HealPartition reconnects the given hosts (all of them when none are
// named).
func (t *Transport) HealPartition(hosts ...string) {
	t.mu.Lock()
	if len(hosts) == 0 {
		t.parts = make(map[string]partMode)
	}
	for _, h := range hosts {
		delete(t.parts, h)
	}
	t.mu.Unlock()
}

// FailNext answers the next n requests with the given 5xx status
// instead of forwarding them — a server-side error burst.
func (t *Transport) FailNext(n, status int) {
	t.mu.Lock()
	t.failN, t.failStatus = n, status
	t.mu.Unlock()
}

// admit decides one request's fate under the armed faults.
func (t *Transport) admit(host string) (mode partMode, cut bool, status int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok := t.parts[host]; ok {
		return m, true, 0
	}
	if t.failN > 0 {
		t.failN--
		return 0, false, t.failStatus
	}
	return 0, false, 0
}

// RoundTrip applies the armed faults to req, forwarding it when it
// survives them.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	mode, cut, status := t.admit(req.URL.Host)
	if cut {
		switch mode {
		case partHang:
			injected(KindHTTPHang)
			<-req.Context().Done()
			return nil, fmt.Errorf("fault: blackholed %s: %w", req.URL.Host, req.Context().Err())
		default:
			injected(KindHTTPCut)
			return nil, fmt.Errorf("%w: partitioned from %s", ErrInjected, req.URL.Host)
		}
	}
	if status != 0 {
		injected(KindHTTP5xx)
		return &http.Response{
			Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
			StatusCode:    status,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:          io.NopCloser(strings.NewReader("fault: injected error\n")),
			ContentLength: -1,
			Request:       req,
		}, nil
	}
	return t.base.RoundTrip(req)
}
