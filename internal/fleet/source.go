package fleet

import (
	"archive/tar"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/wal"
)

// Source serves a primary's WAL to followers and tracks how far each of
// them has durably mirrored it. It reads segment files directly from the
// lifecycle WAL directory but never serves bytes past the manager's
// committed Position, so every shipped chunk ends on a frame boundary.
type Source struct {
	m      *lifecycle.Manager
	walDir string
	logf   func(string, ...any)

	mu sync.Mutex
	// grafics:guardedby mu
	acks map[string]followerAck
	// grafics:guardedby mu
	notify chan struct{}
}

type followerAck struct {
	Epoch string       `json:"epoch"`
	Pos   wal.Position `json:"pos"`
	At    time.Time    `json:"at"`
}

// NewSource wires a replication source over a durable manager. The
// manager must have a WAL (a StateDir); a memory-only manager cannot be
// replicated.
func NewSource(m *lifecycle.Manager, stateDir string, logf func(string, ...any)) (*Source, error) {
	if _, _, ok := m.WALPosition(); !ok {
		return nil, fmt.Errorf("fleet: replication source requires a durable manager (state dir)")
	}
	if logf == nil {
		logf = nopLogf
	}
	return &Source{
		m:      m,
		walDir: lifecycle.WALDir(stateDir),
		logf:   logf,
		acks:   make(map[string]followerAck),
		notify: make(chan struct{}),
	}, nil
}

// recordAck notes a follower's durably-mirrored position and wakes any
// semi-sync waiter.
func (s *Source) recordAck(id, epoch string, pos wal.Position) {
	s.mu.Lock()
	s.acks[id] = followerAck{Epoch: epoch, Pos: pos, At: time.Now()}
	close(s.notify)
	s.notify = make(chan struct{})
	s.mu.Unlock()
}

// ackedCount returns how many followers have mirrored at least pos under
// epoch, plus a channel closed on the next ack update.
func (s *Source) ackedCount(epoch string, pos wal.Position) (int, <-chan struct{}) {
	s.mu.Lock()
	n := 0
	for _, a := range s.acks {
		if a.Epoch == epoch && !a.Pos.Less(pos) {
			n++
		}
	}
	// Snapshot the current notify channel; it is replaced wholesale on
	// each ack, never mutated, so the copy is safe to wait on unlocked.
	ch := s.notify
	s.mu.Unlock()
	return n, ch
}

// WaitReplicated blocks until minAcks followers have durably mirrored
// pos under epoch, the context is cancelled, or the timeout elapses.
// minAcks <= 0 means asynchronous replication and returns immediately.
func (s *Source) WaitReplicated(ctx context.Context, epoch string, pos wal.Position, minAcks int, timeout time.Duration) error {
	if minAcks <= 0 {
		return nil
	}
	timer := time.NewTimer(nonZero(timeout, defaultAckTimeout))
	defer timer.Stop()
	for {
		n, ch := s.ackedCount(epoch, pos)
		if n >= minAcks {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("fleet: waiting for %d/%d acks at %s: %w", n, minAcks, describePos(epoch, pos), ctx.Err())
		case <-timer.C:
			return fmt.Errorf("fleet: %d/%d follower acks at %s: %w", n, minAcks, describePos(epoch, pos), ErrReplicationLag)
		}
	}
}

// status assembles the primary side of GET /v2/repl/status.
func (s *Source) status() ReplStatus {
	st := ReplStatus{}
	st.Role = string(RolePrimary)
	epoch, pos, ok := s.m.WALPosition()
	if ok {
		st.Epoch = epoch
		st.Applied = pos
		st.Source = pos
		st.Ready = true
	}
	names := s.m.Portfolio().Buildings()
	sort.Strings(names)
	st.Buildings = names
	if segs, err := wal.Segments(s.walDir); err == nil {
		st.Segments = segs
	}
	return st
}

// handleWAL serves GET /v2/repl/wal?seg=N&off=M&epoch=E. Optional
// id/ackseg/ackoff/ackepoch parameters piggyback the follower's durable
// mirror watermark on the fetch. Responses carry the chunk as raw bytes;
// X-Grafics-Seg-Done signals that the chunk exhausts a finished segment
// and the follower should advance to seg+1.
func (s *Source) handleWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seg, err1 := strconv.Atoi(q.Get("seg"))
	off, err2 := strconv.ParseInt(q.Get("off"), 10, 64)
	reqEpoch := q.Get("epoch")
	if err1 != nil || err2 != nil || seg < 0 || off < 0 || reqEpoch == "" {
		http.Error(w, "fleet: bad seg/off/epoch", http.StatusBadRequest)
		return
	}
	if id := q.Get("id"); id != "" && q.Get("ackepoch") != "" {
		ackSeg, e1 := strconv.Atoi(q.Get("ackseg"))
		ackOff, e2 := strconv.ParseInt(q.Get("ackoff"), 10, 64)
		if e1 == nil && e2 == nil {
			s.recordAck(id, q.Get("ackepoch"), wal.Position{Seg: ackSeg, Off: ackOff})
		}
	}
	epoch, cur, ok := s.m.WALPosition()
	if !ok {
		http.Error(w, "fleet: no journal", http.StatusConflict)
		return
	}
	w.Header().Set(headerEpoch, epoch)
	w.Header().Set(headerSrcSeg, strconv.Itoa(cur.Seg))
	w.Header().Set(headerSrcOff, strconv.FormatInt(cur.Off, 10))
	if reqEpoch != epoch {
		http.Error(w, "fleet: epoch gone", http.StatusGone)
		return
	}
	if seg > cur.Seg {
		// Position from a future epoch view; nothing to ship yet.
		w.Header().Set("Content-Length", "0")
		w.WriteHeader(http.StatusOK)
		return
	}
	// Committed end of the requested segment: the live segment is bounded
	// by the manager's Position; finished segments are immutable files.
	end := cur.Off
	done := false
	path := wal.SegmentPath(s.walDir, seg)
	if seg < cur.Seg {
		fi, err := os.Stat(path)
		if err != nil {
			// Truncated underneath us; the epoch must have changed too,
			// but the stale read still needs a resync answer.
			http.Error(w, "fleet: segment gone", http.StatusGone)
			return
		}
		end = fi.Size()
		done = true
	}
	if off > end {
		http.Error(w, "fleet: offset past committed end", http.StatusGone)
		return
	}
	n := end - off
	if n > replMaxChunk {
		n = replMaxChunk
		done = false
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	if done && off+n == end {
		w.Header().Set(headerSegDone, "1")
	}
	if n == 0 {
		w.WriteHeader(http.StatusOK)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, "fleet: open segment: "+err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	copied, err := io.Copy(w, io.NewSectionReader(f, off, n))
	walShippedBytesTotal.Add(copied)
	if err != nil {
		s.logf("fleet: source: ship %s[%d:%d]: %v", filepath.Base(path), off, off+n, err)
	}
}

// handleSnapshot streams a consistent snapshot (portfolio manifest +
// per-building gobs) as a tar archive. Headers carry the WAL epoch and
// the exact position the snapshot covers, so a follower tails from there
// with no gap and no overlap.
func (s *Source) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	tmp, err := os.MkdirTemp(filepath.Dir(s.walDir), "repl-snap-")
	if err != nil {
		http.Error(w, "fleet: snapshot dir: "+err.Error(), http.StatusInternalServerError)
		return
	}
	defer os.RemoveAll(tmp)
	epoch, pos, err := s.m.CaptureSnapshot(tmp)
	if err != nil {
		http.Error(w, "fleet: capture snapshot: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-tar")
	w.Header().Set(headerEpoch, epoch)
	w.Header().Set(headerSeg, strconv.Itoa(pos.Seg))
	w.Header().Set(headerOff, strconv.FormatInt(pos.Off, 10))
	snapshotsServedTotal.Inc()
	if err := tarDir(tmp, w); err != nil {
		s.logf("fleet: source: snapshot stream: %v", err)
	}
}

// tarDir writes the regular files of dir (flat, as produced by
// portfolio.Save) into a tar stream.
func tarDir(dir string, w io.Writer) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	tw := tar.NewWriter(w)
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return err
		}
		hdr := &tar.Header{Name: e.Name(), Mode: 0o644, Size: fi.Size()}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		_, err = io.Copy(tw, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	return tw.Close()
}

// untarDir extracts a flat tar stream (as produced by tarDir) into dir,
// rejecting path traversal and oversize archives.
func untarDir(r io.Reader, dir string) error {
	tr := tar.NewReader(io.LimitReader(r, replMaxSnapshot))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		name := filepath.Base(filepath.Clean(hdr.Name))
		if name == "." || name == ".." || name == "/" {
			return fmt.Errorf("fleet: snapshot entry %q", hdr.Name)
		}
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_, err = io.Copy(f, tr)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
}
