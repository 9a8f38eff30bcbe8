package fault

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func get(t *testing.T, hc *http.Client, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return hc.Do(req)
}

func TestTransportFailNextThenRecovers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	tr := NewTransport(nil)
	tr.FailNext(2, http.StatusServiceUnavailable)
	hc := &http.Client{Transport: tr}

	for i := 0; i < 2; i++ {
		resp, err := get(t, hc, srv.URL)
		if err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("burst request %d: status %d, want 503", i, resp.StatusCode)
		}
	}
	resp, err := get(t, hc, srv.URL)
	if err != nil {
		t.Fatalf("post-burst request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst status %d, want 200", resp.StatusCode)
	}
}

func TestTransportPartitionAndHeal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	host := srv.Listener.Addr().String()

	tr := NewTransport(nil)
	tr.Partition(host)
	hc := &http.Client{Transport: tr}

	if _, err := get(t, hc, srv.URL); err == nil {
		t.Fatal("partitioned request succeeded")
	} else if !errors.Is(err, ErrInjected) {
		// http.Client wraps the transport error in *url.Error.
		t.Fatalf("partitioned request error = %v, want ErrInjected", err)
	}
	tr.HealPartition()
	resp, err := get(t, hc, srv.URL)
	if err != nil {
		t.Fatalf("healed request: %v", err)
	}
	resp.Body.Close()
}

func TestTransportBlackholeHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	host := srv.Listener.Addr().String()

	tr := NewTransport(nil)
	tr.Blackhole(host)
	hc := &http.Client{Transport: tr}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	if _, err := hc.Do(req); err == nil {
		t.Fatal("blackholed request succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("blackholed request did not release on context expiry")
	}
}

func TestDiskTornWriteIsHalfThenError(t *testing.T) {
	d := NewDisk()
	f, err := d.OpenFile(t.TempDir()+"/x", 0x241 /* O_CREATE|O_EXCL|O_WRONLY */, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d.TearWriteAfter(1)
	if _, err := f.Write(make([]byte, 10)); err != nil {
		t.Fatalf("pre-tear write: %v", err)
	}
	n, err := f.Write(make([]byte, 10))
	if err == nil {
		t.Fatal("torn write reported success")
	}
	if n != 5 {
		t.Fatalf("torn write persisted %d bytes, want 5", n)
	}
	// Healed after the one-shot tear.
	if _, err := f.Write(make([]byte, 10)); err != nil {
		t.Fatalf("post-tear write: %v", err)
	}
}
