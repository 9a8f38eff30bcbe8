// Package wal implements the append-only write-ahead log that makes
// crowd-grown GRAFICS models durable. Every absorbed scan is journaled as
// a length-prefixed, CRC-checksummed gob frame before it is acknowledged;
// after a crash, Replay recovers every complete record and stops cleanly
// at a torn tail (the half-written frame of the interrupted append).
//
// The log is a directory of numbered segment files. Append rotates to a
// fresh segment once the current one exceeds SegmentMaxBytes, and Open
// always starts a new segment rather than appending to a possibly-torn
// tail, so recovery never has to repair a file in place. Reset deletes
// every segment — the caller does this after the absorbed records have
// been captured by a model snapshot, bounding the log's size by the
// snapshot cadence.
//
// A segment completed by a graceful rotation or Close ends with a seal
// marker. The seal is what lets Replay tell crash debris from disk
// corruption: a damaged tail in an unsealed segment is the torn frame of
// an interrupted append — expected after a crash, even in a non-final
// segment, because the next Open starts a new segment after it — and
// replay stops that segment cleanly and moves on. The same damage inside
// a sealed segment can only be corruption and surfaces as ErrCorrupt.
package wal

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
)

// Record is one journaled write. An absorb carries the scan and the
// building it was attributed to, so replay can route it back to the
// right model; an AP retirement carries only the MAC. Exactly one of the
// two shapes is set.
type Record struct {
	// Building is the attributed building name (absorbs only).
	Building string
	// Scan is the absorbed scan as the client sent it (absorbs only).
	Scan dataset.Record
	// RetireMAC, when non-empty, marks this record as a fleet-wide AP
	// retirement instead of an absorb.
	RetireMAC string
}

// Options configures a Log.
type Options struct {
	// Dir is the log directory (created if missing). Required.
	Dir string
	// SegmentMaxBytes rotates to a new segment file once the current one
	// exceeds this size. 0 means DefaultSegmentMaxBytes.
	SegmentMaxBytes int64
	// SyncEvery fsyncs the segment after every n-th append: 1 (the
	// default) syncs every append — an acknowledged absorb survives power
	// loss; larger values amortize the fsync over n appends; negative
	// disables fsync entirely (the OS flushes on its own schedule).
	SyncEvery int
	// OpenFile opens segment files for writing. Nil means os.OpenFile.
	// This is the write-path fault-injection seam: tests substitute a
	// wrapper (internal/fault) that fails, tears, or slows writes and
	// fsyncs; production code leaves it nil.
	OpenFile func(name string, flag int, perm os.FileMode) (File, error)
}

// File is the slice of *os.File a Log needs for its live segment.
// Replay reads finished segments through the real filesystem; only the
// append path goes through this interface, so only the append path can
// be fault-injected.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// DefaultSegmentMaxBytes is the segment rotation threshold (8 MiB).
const DefaultSegmentMaxBytes = 8 << 20

// segment file naming: wal-00000042.log.
const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

// frame layout: 4-byte little-endian payload length, 4-byte CRC-32 (IEEE)
// of the payload, then the gob-encoded Record payload.
const frameHeader = 8

// maxFrameBytes bounds a single frame so a corrupted length prefix cannot
// make replay attempt a multi-gigabyte allocation.
const maxFrameBytes = 16 << 20

// The end-of-segment seal is an 8-byte pseudo-frame: a length field no
// record can have (it exceeds maxFrameBytes) plus a fixed magic in the
// checksum slot. rotateLocked and Close write it; Replay uses it to
// distinguish a gracefully completed segment from a crash tail.
const (
	sealLen   = ^uint32(0)
	sealMagic = 0x5ea1ed0f
)

// ErrCorrupt marks a frame whose checksum or length is invalid inside a
// sealed segment, data following a seal, or a checksum-valid frame whose
// payload does not decode — real corruption, not a torn append.
var ErrCorrupt = errors.New("wal: corrupt frame")

// ErrGone reports a ReplayFrom position that predates the oldest segment
// on disk: the log was truncated (Reset) since the position was taken,
// so the records between the position and the current log head no longer
// exist. A replication follower seeing ErrGone (or an epoch change) must
// re-bootstrap from a snapshot instead of tailing.
var ErrGone = errors.New("wal: position predates the log")

// Position addresses a byte inside the log: a segment index plus a byte
// offset into that segment file. Positions are comparable only within
// one epoch — a Reset renumbers segments from zero and changes the
// epoch, invalidating every earlier position.
type Position struct {
	// Seg is the segment index (the number in the file name).
	Seg int `json:"seg"`
	// Off is the byte offset into that segment.
	Off int64 `json:"off"`
}

// Less orders positions within one epoch.
func (p Position) Less(q Position) bool {
	return p.Seg < q.Seg || (p.Seg == q.Seg && p.Off < q.Off)
}

// String formats a position as seg:off.
func (p Position) String() string { return fmt.Sprintf("%d:%d", p.Seg, p.Off) }

// SegmentInfo describes one on-disk segment file.
type SegmentInfo struct {
	// Index is the segment number in the file name.
	Index int `json:"index"`
	// Size is the file size in bytes (seal marker included when sealed).
	Size int64 `json:"size"`
	// Sealed reports whether the segment ends with the end-of-segment
	// seal, i.e. it was completed by a graceful rotation or Close and is
	// immutable — safe to ship whole to a replica.
	Sealed bool `json:"sealed"`
}

// Log is an open write-ahead log. It is safe for concurrent use.
type Log struct {
	opts Options // immutable after Open

	mu sync.Mutex
	// grafics:guardedby mu
	f File
	// grafics:guardedby mu
	seg int // current segment index
	// grafics:guardedby mu
	segSize int64 // bytes written to the current segment
	// grafics:guardedby mu
	appended int // records appended since Open/Reset
	// grafics:guardedby mu
	unsynced int // appends since the last fsync
	// grafics:guardedby mu
	closed bool
	// epoch names this log's segment numbering: regenerated at Open and
	// at every Reset, so a position taken before a truncation can never
	// be confused with the same (seg, off) coordinates afterwards.
	//
	// grafics:guardedby mu
	epoch string
}

// newEpoch mints a fresh epoch identifier.
func newEpoch() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// The clock fallback is still unique enough per process: epochs
		// only ever need to differ from each other, not be unguessable.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Open creates (or reuses) the log directory and starts a fresh segment
// after the highest existing one. Existing segments are left untouched
// for Replay.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = DefaultSegmentMaxBytes
	}
	if opts.SyncEvery == 0 {
		opts.SyncEvery = 1
	}
	if opts.OpenFile == nil {
		opts.OpenFile = func(name string, flag int, perm os.FileMode) (File, error) {
			return os.OpenFile(name, flag, perm)
		}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	segs, err := segments(opts.Dir)
	if err != nil {
		return nil, err
	}
	next := 0
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	l := &Log{opts: opts, seg: next - 1, epoch: newEpoch()}
	// grafics:lockok pre-publication: l is local until Open returns
	if err := l.rotateLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// segPath returns the file path of segment i.
func segPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, i, segSuffix))
}

// segments lists the existing segment indices in ascending order.
func segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) != len(segPrefix)+8+len(segSuffix) {
			continue
		}
		var i int
		if _, err := fmt.Sscanf(name, segPrefix+"%08d"+segSuffix, &i); err != nil {
			continue
		}
		out = append(out, i)
	}
	sort.Ints(out)
	return out, nil
}

// rotateLocked closes the current segment (if any) and opens the next
// one. The caller holds l.mu (or is Open, pre-publication).
//
//grafics:locked mu
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.sealLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
		l.f = nil
	}
	l.seg++
	f, err := l.opts.OpenFile(segPath(l.opts.Dir, l.seg), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	// Persist the new directory entry (unless fsync is disabled): a
	// synced frame inside a file whose dirent was lost to a power cut is
	// as gone as an unsynced frame.
	if l.opts.SyncEvery >= 0 {
		if err := syncDir(l.opts.Dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f = f
	l.segSize = 0
	rotationsTotal.Inc()
	return nil
}

// syncDir fsyncs a directory so recent renames/creates in it survive
// power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// sealLocked writes the end-of-segment marker and flushes it, completing
// the current segment. Only a seal that actually reaches disk counts; a
// crash between the seal write and the sync just leaves the segment
// looking like a crash tail, which replays fine.
//
//grafics:locked mu
func (l *Log) sealLocked() error {
	if l.f == nil {
		return nil
	}
	var seal [frameHeader]byte
	binary.LittleEndian.PutUint32(seal[0:4], sealLen)
	binary.LittleEndian.PutUint32(seal[4:8], sealMagic)
	if _, err := l.f.Write(seal[:]); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.unsynced++
	return l.syncLocked()
}

// syncLocked flushes pending appends to stable storage per the policy.
//
//grafics:locked mu
func (l *Log) syncLocked() error {
	if l.unsynced == 0 || l.opts.SyncEvery < 0 || l.f == nil {
		l.unsynced = 0
		return nil
	}
	l.unsynced = 0
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	fsyncsTotal.Inc()
	fsyncSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Append journals one record. The frame is written with a single Write
// call so a crash leaves at worst one torn frame at the tail of the final
// segment, which Replay skips cleanly.
func (l *Log) Append(rec Record) error {
	start := time.Now()
	if err := l.append(rec); err != nil {
		return err
	}
	appendsTotal.Inc()
	appendSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// append is Append without the instrumentation.
func (l *Log) append(rec Record) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&rec); err != nil {
		return fmt.Errorf("wal: encode record: %w", err)
	}
	// Enforce the same bound Replay enforces: a frame accepted here but
	// rejected at recovery would be an absorb acknowledged as durable and
	// then dropped (or, worse, mistaken for corruption) on the next boot.
	if payload.Len() > maxFrameBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame limit", payload.Len(), maxFrameBytes)
	}
	frame := make([]byte, frameHeader+payload.Len())
	binary.LittleEndian.PutUint32(frame[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	copy(frame[frameHeader:], payload.Bytes())

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	// A failed Reset can leave the log without an open segment; recover
	// by rotating to a fresh one instead of wedging every future append.
	if l.f == nil {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if l.segSize > 0 && l.segSize+int64(len(frame)) > l.opts.SegmentMaxBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		// The write may have persisted a torn prefix and moved the file
		// offset past it; appending more frames after that gap would
		// strand them beyond a torn frame, where replay never looks.
		// Poison the segment instead: close it unsealed so the next
		// append rotates to a fresh one, and replay treats this segment's
		// tail as crash debris.
		l.poisonLocked()
		return fmt.Errorf("wal: append: %w", err)
	}
	appendedBytesTotal.Add(int64(len(frame)))
	l.segSize += int64(len(frame))
	l.appended++
	l.unsynced++
	if l.opts.SyncEvery > 0 && l.unsynced >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			// After a failed fsync the kernel may have dropped the dirty
			// pages, so the frame's durability is unknowable; poison the
			// segment so no later frame is stacked on an undurable one.
			l.poisonLocked()
			return err
		}
	}
	return nil
}

// poisonLocked abandons the current segment after a failed write or
// fsync: the file is closed without a seal and the next append rotates
// to a fresh segment. Replay already handles the result — an unsealed
// segment with a damaged tail is indistinguishable from crash debris
// and is skipped cleanly.
//
//grafics:locked mu
func (l *Log) poisonLocked() {
	if l.f == nil {
		return
	}
	l.f.Close()
	l.f = nil
	l.unsynced = 0
	poisonedSegmentsTotal.Inc()
}

// Sync forces pending appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.unsynced = 1 // force
	return l.syncLocked()
}

// Appended returns the number of records appended since Open or the last
// Reset.
func (l *Log) Appended() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Stats describes the on-disk state of the log.
type Stats struct {
	// Segments is the number of segment files on disk.
	Segments int
	// Bytes is their total size.
	Bytes int64
}

// Stats reports the on-disk segment count and size.
func (l *Log) Stats() (Stats, error) {
	l.mu.Lock()
	dir := l.opts.Dir
	l.mu.Unlock()
	segs, err := segments(dir)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Segments: len(segs)}
	for _, i := range segs {
		if fi, err := os.Stat(segPath(dir, i)); err == nil {
			st.Bytes += fi.Size()
		}
	}
	return st, nil
}

// Reset deletes every segment and starts fresh at segment 0. The caller
// invokes it after a model snapshot has captured everything the log
// holds; an absorb acknowledged after Reset returns lands in the new
// segment and is therefore never lost.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
		l.f = nil
	}
	segs, err := segments(l.opts.Dir)
	if err != nil {
		return err
	}
	for _, i := range segs {
		if err := os.Remove(segPath(l.opts.Dir, i)); err != nil {
			return fmt.Errorf("wal: remove segment: %w", err)
		}
	}
	l.seg = -1
	l.appended = 0
	l.unsynced = 0
	l.epoch = newEpoch()
	return l.rotateLocked()
}

// Epoch identifies this log's segment numbering. It changes at every
// Reset (and at Open), so a replication consumer comparing epochs can
// tell "the log grew" from "the log was truncated and renumbered".
func (l *Log) Epoch() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Position returns the current append position: every record appended so
// far lives strictly below it, and bytes below it are fully written
// (Append bumps the offset only after its single Write call returns), so
// a concurrent reader that stays below Position never observes a torn
// frame.
func (l *Log) Position() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Position{Seg: l.seg, Off: l.segSize}
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opts.Dir }

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	if err := l.sealLocked(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Replay reads every complete record in dir, in append order, invoking fn
// for each. A torn tail — a truncated or checksum-failing frame at the
// end of an unsealed segment, the signature of a crash mid-append — ends
// that segment cleanly and replay continues with the next one (a crash
// can leave its debris mid-directory, because the next Open starts a
// fresh segment after it). The same damage inside a sealed segment, or
// anything following a seal, returns ErrCorrupt: a gracefully completed
// segment has no excuse for a bad frame. A missing directory replays
// zero records. Replay returns the number of records delivered; fn
// returning an error aborts with that error.
func Replay(dir string, fn func(Record) error) (int, error) {
	segs, err := segments(dir)
	if err != nil || len(segs) == 0 {
		return 0, err
	}
	_, n, err := ReplayFrom(dir, Position{Seg: segs[0]}, fn)
	return n, err
}

// replaySegmentFrom replays one segment file starting at byte offset off,
// up to its seal, its torn tail, or its end. It returns the number of
// records delivered, the resume offset (the first byte not consumed: the
// byte after the seal, the start of a torn frame, or end-of-file), and
// whether the seal terminated the segment.
func replaySegmentFrom(path string, off int64, fn func(Record) error) (n int, resume int64, sealed bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, off, false, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	if off > 0 {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return 0, off, false, fmt.Errorf("wal: seek segment: %w", err)
		}
	}
	pos := off
	var header [frameHeader]byte
	var payload []byte
	// damaged classifies an unreadable frame: inside a sealed segment it
	// is corruption; otherwise it is the torn tail of a crashed append and
	// the segment stops cleanly, resuming at the start of the bad frame.
	damaged := func(what string) (int, int64, bool, error) {
		if sealedAtEnd(path) {
			return n, pos, false, fmt.Errorf("%w: %s: %s in sealed segment", ErrCorrupt, filepath.Base(path), what)
		}
		return n, pos, false, nil
	}
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			if errors.Is(err, io.EOF) {
				// Frame-boundary end without a seal: a pre-seal writer, a
				// crash that landed exactly between frames, or simply the
				// live tail of a log still being appended to.
				return n, pos, false, nil
			}
			return damaged("truncated frame header")
		}
		size := binary.LittleEndian.Uint32(header[0:4])
		want := binary.LittleEndian.Uint32(header[4:8])
		if size == sealLen && want == sealMagic {
			var one [1]byte
			if _, err := io.ReadFull(f, one[:]); !errors.Is(err, io.EOF) {
				return n, pos, true, fmt.Errorf("%w: %s: data after segment seal", ErrCorrupt, filepath.Base(path))
			}
			return n, pos + frameHeader, true, nil
		}
		if size > maxFrameBytes {
			return damaged("implausible frame length")
		}
		if cap(payload) < int(size) {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(f, payload); err != nil {
			return damaged("truncated frame payload")
		}
		if crc32.ChecksumIEEE(payload) != want {
			return damaged("checksum mismatch")
		}
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			// The payload passed its checksum, so this is a frame from an
			// incompatible writer rather than disk damage; surface it even
			// at the tail.
			return n, pos, false, fmt.Errorf("%w: %s: decode: %v", ErrCorrupt, filepath.Base(path), err)
		}
		if err := fn(rec); err != nil {
			return n, pos, false, err
		}
		n++
		pos += int64(frameHeader) + int64(size)
	}
}

// Segments enumerates the on-disk segment files of a log directory in
// ascending index order: index, size, and whether the segment is sealed
// (completed by a graceful rotation or Close, hence immutable and safe to
// ship whole). A missing directory enumerates zero segments.
func Segments(dir string) ([]SegmentInfo, error) {
	idx, err := segments(dir)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(idx))
	for _, i := range idx {
		path := segPath(dir, i)
		fi, err := os.Stat(path)
		if err != nil {
			// Lost a race with Reset; the segment is gone, not an error.
			continue
		}
		out = append(out, SegmentInfo{Index: i, Size: fi.Size(), Sealed: sealedAtEnd(path)})
	}
	return out, nil
}

// Segments enumerates this log's on-disk segments.
func (l *Log) Segments() ([]SegmentInfo, error) { return Segments(l.opts.Dir) }

// SegmentPath returns the file path of a segment by index, for tooling
// that ships raw segment bytes (replication, backup).
func SegmentPath(dir string, index int) string { return segPath(dir, index) }

// ReplayFrom replays every complete record at or after from, in append
// order, and returns the resume position — the first byte not consumed —
// plus the number of records delivered. Calling it again later with the
// returned position picks up exactly where this call stopped, which is
// how a replication follower tails a shipped log incrementally.
//
// Replay is ReplayFrom from the oldest segment, so the edges are the
// same for both: a seal advances to the next
// segment; a torn tail in an unsealed segment stops that segment cleanly
// at the start of the bad frame (and, when a later segment exists — the
// crash-debris case — skips over it); the same damage in a sealed
// segment is ErrCorrupt. A torn or frame-boundary tail in the *final*
// segment leaves the resume position parked there, because on a live log
// the missing bytes are simply the append that has not happened yet. A
// position older than the oldest segment on disk returns ErrGone — the
// log was truncated and the caller must re-bootstrap from a snapshot.
func ReplayFrom(dir string, from Position, fn func(Record) error) (Position, int, error) {
	if from.Seg < 0 || from.Off < 0 {
		return from, 0, fmt.Errorf("wal: invalid position %v", from)
	}
	segs, err := segments(dir)
	if err != nil {
		return from, 0, err
	}
	if len(segs) == 0 {
		return from, 0, nil
	}
	if from.Seg < segs[0] {
		return from, 0, fmt.Errorf("%w: %v (oldest segment %d)", ErrGone, from, segs[0])
	}
	pos := from
	total := 0
	for k := 0; k < len(segs); k++ {
		seg := segs[k]
		if seg < pos.Seg {
			continue
		}
		if seg > pos.Seg {
			// The resume segment does not exist (e.g. a seal advanced pos
			// past the last segment, or debris skipping): jump forward.
			pos = Position{Seg: seg, Off: 0}
		}
		n, resume, sealed, err := replaySegmentFrom(segPath(dir, seg), pos.Off, fn)
		total += n
		if err != nil {
			return pos, total, err
		}
		pos = Position{Seg: seg, Off: resume}
		if sealed {
			pos = Position{Seg: seg + 1, Off: 0}
			continue
		}
		// Unsealed stop: on the final segment this is the live tail and
		// the resume point; mid-directory it is crash debris (the writer
		// moved on to a later segment, this one will never grow) and
		// replay continues with the next segment.
		if k == len(segs)-1 {
			return pos, total, nil
		}
		pos = Position{Seg: segs[k+1], Off: 0}
	}
	return pos, total, nil
}

// sealedAtEnd reports whether the segment file ends with a seal marker,
// i.e. it was completed by a graceful rotation or Close.
func sealedAtEnd(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.Size() < frameHeader {
		return false
	}
	var b [frameHeader]byte
	if _, err := f.ReadAt(b[:], fi.Size()-frameHeader); err != nil {
		return false
	}
	return binary.LittleEndian.Uint32(b[0:4]) == sealLen &&
		binary.LittleEndian.Uint32(b[4:8]) == sealMagic
}
