package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Client speaks the fleet replication and admin protocol to one node.
type Client struct {
	base string
	hc   *http.Client
	// reqTimeout bounds each individual request — headers and body —
	// independently of the caller's context. A follower's sync loop runs
	// under a context that lives for the whole process; without a
	// per-request deadline one blackholed FetchWAL would stall that loop
	// forever instead of failing into the retry/backoff path.
	reqTimeout time.Duration
}

// NewClientWith targets a node's base URL (scheme://host:port, no
// trailing slash required). timeout bounds each request end to end (0
// means defaultHTTPTimeout). rt is the transport — the fault-injection
// seam (internal/fault.Transport) and the hook for custom dialers; nil
// means http.DefaultTransport.
func NewClientWith(base string, timeout time.Duration, rt http.RoundTripper) *Client {
	return &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         &http.Client{Transport: rt},
		reqTimeout: nonZero(timeout, defaultHTTPTimeout),
	}
}

// Base returns the node URL this client targets.
func (c *Client) Base() string { return c.base }

// do issues one request, with body as its JSON payload unless body is
// nil, under the client's per-request deadline. The deadline covers the
// response body too: the returned response's Close releases the timer,
// and a stalled body read is cancelled with the request.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rctx, cancel := context.WithTimeout(ctx, c.reqTimeout)
	req, err := http.NewRequestWithContext(rctx, method, c.base+path, rd)
	if err != nil {
		cancel()
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Carry the caller's trace across the hop so the node's logs join up
	// with the caller's.
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelOnClose ties a response body to its request's timeout context,
// so closing the body releases the deadline timer.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// drainError turns a non-2xx response into an error carrying the body.
func drainError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("fleet: %s %s: %s", resp.Request.Method, resp.Request.URL.Path,
		strings.TrimSpace(resp.Status+" "+string(body)))
}

// Status fetches GET /v2/repl/status.
func (c *Client) Status(ctx context.Context) (ReplStatus, error) {
	return c.status(ctx, "/v2/repl/status")
}

// StatusMACs is Status asking for the node's MAC sets too: the reply
// carries MACsVersion, and MACs unless since is that version.
func (c *Client) StatusMACs(ctx context.Context, since uint64) (ReplStatus, error) {
	return c.status(ctx, "/v2/repl/status?macs="+strconv.FormatUint(since, 10))
}

func (c *Client) status(ctx context.Context, path string) (ReplStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return ReplStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ReplStatus{}, drainError(resp)
	}
	var st ReplStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<22)).Decode(&st); err != nil {
		return ReplStatus{}, fmt.Errorf("fleet: decode status: %w", err)
	}
	return st, nil
}

// WALChunk is one shipped span of raw journal bytes.
type WALChunk struct {
	Data []byte
	// Epoch echoes the primary's current epoch.
	Epoch string
	// Source is the primary's committed append position at serve time.
	Source wal.Position
	// SegDone reports that the chunk reaches the end of a finished
	// segment; the follower advances to {Seg+1, 0} after consuming it.
	SegDone bool
}

// Ack carries the follower's durable mirror watermark to the primary.
type Ack struct {
	ID    string
	Epoch string
	Pos   wal.Position
}

// FetchWAL requests committed journal bytes from pos under epoch. An
// upstream epoch change surfaces as ErrEpochGone (wrapped with the new
// epoch when the primary reported one).
func (c *Client) FetchWAL(ctx context.Context, epoch string, pos wal.Position, ack Ack) (WALChunk, error) {
	q := url.Values{}
	q.Set("seg", strconv.Itoa(pos.Seg))
	q.Set("off", strconv.FormatInt(pos.Off, 10))
	q.Set("epoch", epoch)
	if ack.ID != "" {
		q.Set("id", ack.ID)
		q.Set("ackepoch", ack.Epoch)
		q.Set("ackseg", strconv.Itoa(ack.Pos.Seg))
		q.Set("ackoff", strconv.FormatInt(ack.Pos.Off, 10))
	}
	resp, err := c.do(ctx, http.MethodGet, "/v2/repl/wal?"+q.Encode(), nil)
	if err != nil {
		return WALChunk{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return WALChunk{}, fmt.Errorf("upstream epoch now %q: %w", resp.Header.Get(headerEpoch), ErrEpochGone)
	default:
		return WALChunk{}, drainError(resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, replMaxChunk+1))
	if err != nil {
		return WALChunk{}, fmt.Errorf("fleet: read wal chunk: %w", err)
	}
	ch := WALChunk{
		Data:    data,
		Epoch:   resp.Header.Get(headerEpoch),
		SegDone: resp.Header.Get(headerSegDone) == "1",
	}
	ch.Source.Seg, _ = strconv.Atoi(resp.Header.Get(headerSrcSeg))
	ch.Source.Off, _ = strconv.ParseInt(resp.Header.Get(headerSrcOff), 10, 64)
	return ch, nil
}

// Snapshot streams GET /v2/repl/snapshot into destDir and returns the
// WAL epoch and position the snapshot covers.
func (c *Client) Snapshot(ctx context.Context, destDir string) (epoch string, pos wal.Position, err error) {
	resp, err := c.do(ctx, http.MethodGet, "/v2/repl/snapshot", nil)
	if err != nil {
		return "", wal.Position{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", wal.Position{}, drainError(resp)
	}
	epoch = resp.Header.Get(headerEpoch)
	pos.Seg, _ = strconv.Atoi(resp.Header.Get(headerSeg))
	pos.Off, _ = strconv.ParseInt(resp.Header.Get(headerOff), 10, 64)
	if epoch == "" {
		return "", wal.Position{}, fmt.Errorf("fleet: snapshot response missing epoch")
	}
	if err := untarDir(resp.Body, destDir); err != nil {
		return "", wal.Position{}, fmt.Errorf("fleet: restore snapshot: %w", err)
	}
	return epoch, pos, nil
}

// Promote asks a node to take over as primary (POST /v2/admin/promote).
// A promotion drains the node's mirror and audits what it applied, so it
// is allowed two minutes rather than one request's deadline.
func (c *Client) Promote(ctx context.Context) (PromoteResult, error) {
	long := *c
	long.reqTimeout = 2 * time.Minute
	resp, err := long.do(ctx, http.MethodPost, "/v2/admin/promote", nil)
	if err != nil {
		return PromoteResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return PromoteResult{}, drainError(resp)
	}
	var res PromoteResult
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&res); err != nil {
		return PromoteResult{}, fmt.Errorf("fleet: decode promote result: %w", err)
	}
	return res, nil
}

// Follow re-points a follower at a new primary (POST /v2/admin/follow).
func (c *Client) Follow(ctx context.Context, primary string) error {
	q := url.Values{}
	q.Set("primary", primary)
	resp, err := c.do(ctx, http.MethodPost, "/v2/admin/follow?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return drainError(resp)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return nil
}
