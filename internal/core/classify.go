// Context-first inference API. Classify is the one entry point for
// online inference: it carries a context for deadlines/cancellation,
// accepts functional options (WithAbsorb keeps the scan in the graph),
// and returns a Result with the floor, a confidence signal and runner-up
// floors. ClassifyBatch fans many scans over a worker pool.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rfgraph"
)

// classifyWorkspace is the pooled per-request scratch of a classification:
// the dedup scratch and edge list of the scan, the scan-embedding
// buffers, and the per-floor reduction arrays. Pooling it makes the
// read-only Classify path allocation-free apart from the Result itself.
// A workspace carries no model state — every field is rebuilt from the
// current snapshot on use — so the pool is safely shared across Systems,
// absorbs, and hot swaps.
type classifyWorkspace struct {
	scan         rfgraph.ScanScratch
	edges        []rfgraph.Halfedge
	embed        embed.Workspace
	floorDist    []float64
	floorCluster []int32
	// clk times the pipeline stages (scan edges, embed, reduce) without
	// allocating; the hot path flushes it into the obs stage histograms.
	clk obs.StageClock
}

var classifyPool = sync.Pool{New: func() any { return new(classifyWorkspace) }}

// Classifier is the context-first classification contract. Both System
// (one building) and portfolio.Portfolio (a fleet, with MAC-overlap
// attribution in front) implement it, so servers, examples, and
// experiments can code against a single interface.
type Classifier interface {
	// Classify classifies one scan. It honors ctx cancellation and
	// deadlines; on error the Result is the zero value.
	Classify(ctx context.Context, rec *dataset.Record, opts ...Option) (Result, error)
	// ClassifyBatch classifies many scans concurrently, returning
	// per-record results and a parallel slice of errors (nil entries on
	// success). Once ctx is done, unstarted records fail with ctx.Err().
	ClassifyBatch(ctx context.Context, records []dataset.Record, opts ...Option) ([]Result, []error)
}

var _ Classifier = (*System)(nil)

// options is the resolved option set of one classification request.
type options struct {
	topK        int
	absorb      bool
	noEmbedding bool
}

// defaultOptions returns the zero-option behavior: winner-only
// candidates, read-only classification, embedding included.
func defaultOptions() options { return options{topK: 1} }

// Option customizes one classification request.
type Option func(*options)

// WithTopK requests the k most likely floors as ranked Candidates
// (negative k means every distinct floor; 0 is treated as the default).
// The default is 1: only the winning floor.
func WithTopK(k int) Option { return func(o *options) { o.topK = k } }

// WithAbsorb keeps the classified scan (and any new MACs it introduced)
// in the bipartite graph — the paper's long-running deployment mode where
// the graph grows with the crowd. Absorbing classifications are exclusive
// writers; read-only classifications (the default) run in parallel.
func WithAbsorb() Option { return func(o *options) { o.absorb = true } }

// WithoutEmbedding omits the learned ego embedding from the Result,
// saving an allocation and response bytes when the caller only wants the
// floor decision.
func WithoutEmbedding() Option { return func(o *options) { o.noEmbedding = true } }

// Request bundles one scan with its resolved classification options —
// the unified request vocabulary shared by every inference layer.
type Request struct {
	// Record is the scan to classify.
	Record *dataset.Record

	opts options
}

// NewRequest resolves opts against the defaults and binds them to rec.
func NewRequest(rec *dataset.Record, opts ...Option) Request {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return Request{Record: rec, opts: o}
}

// TopK reports the requested candidate count (negative means all
// floors, 0 the default of 1).
func (r Request) TopK() int { return r.opts.topK }

// Absorb reports whether the request keeps the scan in the graph.
func (r Request) Absorb() bool { return r.opts.absorb }

// WantEmbedding reports whether the Result should carry the embedding.
func (r Request) WantEmbedding() bool { return !r.opts.noEmbedding }

// Candidate is one floor hypothesis: the floor, the nearest cluster that
// carries it, and the share of the confidence mass it received.
type Candidate struct {
	// Floor is the candidate floor label.
	Floor int
	// ClusterIndex identifies the nearest cluster labeled with Floor.
	ClusterIndex int
	// Distance is the embedding-space distance to that cluster's centroid.
	Distance float64
	// Confidence is the floor's share of the distance-softmax mass,
	// in (0,1]; confidences over all distinct floors sum to 1.
	Confidence float64
}

// Result is the outcome of one classification.
type Result struct {
	// Floor is the predicted floor label (the top candidate's floor).
	Floor int
	// Confidence is the winning floor's share of the distance-softmax
	// mass over all distinct floors, in (0,1]. 1 means either a
	// single-floor model or an overwhelming margin.
	Confidence float64
	// Candidates ranks floors by descending confidence. Its length is
	// min(TopK, distinct floors); the first entry is always the winner.
	Candidates []Candidate
	// ClusterIndex identifies the winning cluster.
	ClusterIndex int
	// Distance is the embedding-space distance to the winning centroid.
	Distance float64
	// Embedding is the scan's learned ego embedding (nil when the
	// request opted out via WithoutEmbedding).
	Embedding []float64
}

// floorIndex is the invariant per-floor view of a trained cluster model:
// every labeled cluster paired with a dense slot per distinct floor, in
// the same first-encounter order the per-request map used to rebuild on
// every call. It depends only on the cluster model, so it is computed
// once at Fit/Load (and travels with the System through a lifecycle hot
// swap); absorbs and MAC retirements mutate the graph, not the model, so
// they cannot invalidate it.
type floorIndex struct {
	floors  []int // slot → floor label, in first-encounter order
	entries []floorEntry
}

// floorEntry is one labeled cluster and its floor slot.
type floorEntry struct {
	cluster int32
	slot    int32
}

// newFloorIndex scans the model's clusters in index order.
func newFloorIndex(m *cluster.Model) *floorIndex {
	idx := &floorIndex{}
	slotOf := make(map[int]int32)
	for i := range m.Clusters {
		c := &m.Clusters[i]
		if c.Label == cluster.Unlabeled {
			continue
		}
		slot, ok := slotOf[c.Label]
		if !ok {
			slot = int32(len(idx.floors))
			slotOf[c.Label] = slot
			idx.floors = append(idx.floors, c.Label)
		}
		idx.entries = append(idx.entries, floorEntry{cluster: int32(i), slot: slot})
	}
	return idx
}

// resultFromEgo classifies an ego embedding against the trained cluster
// model and assembles the Result: the labeled clusters are collapsed to
// the nearest cluster per distinct floor in one O(#labeled clusters)
// pass over the cached floorIndex, and the per-floor distances are
// turned into a confidence distribution by a stable softmax over
// negative distances,
//
//	conf(f) = exp(d_min - d_f) / Σ_g exp(d_min - d_g),
//
// so the nearest floor always holds the largest share and confidences
// sum to 1. Ranking beyond the winner (a sort of the per-floor set) is
// only paid when the request asked for more than one candidate, keeping
// the default path as cheap as the legacy model.Predict. ws supplies the
// per-floor reduction arrays (nil allocates). The caller holds at least
// a read lock; ego is only read, and the Result receives its own copy.
//
//grafics:rlocked mu
func (s *System) resultFromEgo(ego []float64, o options, ws *classifyWorkspace) Result {
	idx := s.fidx
	if idx == nil {
		// Hand-built or corrupted snapshots can reach here without Fit.
		idx = newFloorIndex(s.model)
	}
	nf := len(idx.floors)
	if nf == 0 {
		// No labeled cluster (possible only for a corrupted or hand-built
		// snapshot): degrade like the legacy model.Predict did instead of
		// panicking — Unlabeled floor, no cluster, infinite distance.
		res := Result{Floor: cluster.Unlabeled, ClusterIndex: -1, Distance: math.Inf(1)}
		if !o.noEmbedding {
			res.Embedding = append([]float64(nil), ego...)
		}
		return res
	}
	var dist []float64
	var clust []int32
	if ws != nil {
		// Both caps must be checked: equal-length float64 and int32 slices
		// round up to different size-class capacities, so one can cover nf
		// while the other does not.
		if cap(ws.floorDist) < nf || cap(ws.floorCluster) < nf {
			ws.floorDist = make([]float64, nf)
			ws.floorCluster = make([]int32, nf)
		}
		dist, clust = ws.floorDist[:nf], ws.floorCluster[:nf]
	} else {
		dist, clust = make([]float64, nf), make([]int32, nf)
	}
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	// One pass over the labeled clusters in index order: per-floor
	// minimum plus the global winner, chosen with strictly-smaller-wins
	// exactly like cluster.Model.Predict, so ties resolve to the floor
	// the cluster model itself would return.
	winner := -1
	for _, e := range idx.entries {
		d := linalg.Distance(ego, s.model.Clusters[e.cluster].Centroid)
		if d < dist[e.slot] {
			dist[e.slot] = d
			clust[e.slot] = e.cluster
		}
		if winner == -1 || d < dist[winner] {
			winner = int(e.slot)
		}
	}
	topDist := dist[winner]
	var mass float64
	for _, d := range dist {
		mass += math.Exp(topDist - d)
	}
	k := o.topK
	if k == 0 {
		k = 1 // zero-value Request (Do without NewRequest) gets the default
	}
	if k < 0 || k > nf {
		k = nf
	}
	var cands []Candidate
	if k == 1 {
		cands = []Candidate{{
			Floor:        idx.floors[winner],
			ClusterIndex: int(clust[winner]),
			Distance:     topDist,
			Confidence:   1 / mass,
		}}
	} else {
		// Ranking beyond the winner: the winner's floor is pinned first
		// (it may tie on distance with a later floor), the rest sort by
		// ascending distance. This path allocates the ranked set — it is
		// only paid when the request asked for more than one candidate.
		type rankedFloor struct {
			clusterIdx int
			floor      int
			dist       float64
		}
		topFloor := idx.floors[winner]
		perFloor := make([]rankedFloor, nf)
		for i := range perFloor {
			perFloor[i] = rankedFloor{clusterIdx: int(clust[i]), floor: idx.floors[i], dist: dist[i]}
		}
		sort.SliceStable(perFloor, func(a, b int) bool {
			if perFloor[a].floor == topFloor {
				return perFloor[b].floor != topFloor
			}
			if perFloor[b].floor == topFloor {
				return false
			}
			return perFloor[a].dist < perFloor[b].dist
		})
		cands = make([]Candidate, k)
		for i := 0; i < k; i++ {
			cands[i] = Candidate{
				Floor:        perFloor[i].floor,
				ClusterIndex: perFloor[i].clusterIdx,
				Distance:     perFloor[i].dist,
				Confidence:   math.Exp(topDist-perFloor[i].dist) / mass,
			}
		}
	}
	res := Result{
		Floor:        cands[0].Floor,
		Confidence:   cands[0].Confidence,
		Candidates:   cands,
		ClusterIndex: cands[0].ClusterIndex,
		Distance:     cands[0].Distance,
	}
	if !o.noEmbedding {
		res.Embedding = append([]float64(nil), ego...)
	}
	return res
}

// incrementalFor resolves the embedding randomness of one scan: the
// configured root seed plus scanSeed of its readings, so a read and an
// absorb of the same scan embed alike, and a scan's answer depends only on
// the model and the scan, not on which requests came before it.
//
//grafics:hotpath
func (s *System) incrementalFor(rec *dataset.Record) embed.IncrementalConfig {
	inc := s.cfg.Incremental
	inc.Seed += int64(scanSeed(rec.Readings))
	return inc
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// scanSeed is FNV-1a 64 over the readings in the order sent: for each
// reading the MAC's bytes, then the RSS's IEEE-754 bits in little-endian
// byte order. The record ID takes no part, so an absorbed record carried
// into a refit under its own name embeds like the scan it came from.
//
//grafics:hotpath
func scanSeed(readings []dataset.Reading) uint64 {
	h := uint64(fnvOffset64)
	for i := range readings {
		mac := readings[i].MAC
		for j := 0; j < len(mac); j++ {
			h = (h ^ uint64(mac[j])) * fnvPrime64
		}
		bits := math.Float64bits(readings[i].RSS)
		for k := 0; k < 8; k++ {
			h = (h ^ bits&0xff) * fnvPrime64
			bits >>= 8
		}
	}
	return h
}

// embedScanRLocked runs the read-only half of the §V pipeline: collect
// the scan's edges into the frozen graph (rfgraph.Graph.ScanEdges), check
// MAC overlap, and embed the scan against the frozen model
// (embed.EmbedScan). Both compute into ws's pooled buffers; the returned
// ego vector is owned by ws and valid only until its next use. The
// caller holds at least s.mu.RLock; no shared state is written.
//
//grafics:rlocked mu
//grafics:hotpath
func (s *System) embedScanRLocked(rec *dataset.Record, o options, ws *classifyWorkspace) ([]float64, error) {
	if !s.trained {
		return nil, ErrNotTrained
	}
	edges, err := s.graph.ScanEdges(ws.edges, rec, &ws.scan)
	ws.edges = edges
	// A scan sharing no MAC with the building (empty, or only never-seen
	// MACs) is ErrOutOfBuilding, ahead of any bad reading, exactly as the
	// write path reports it. Footnote 1 of the paper: a sample containing
	// only never-seen MACs was likely collected outside the building.
	if len(edges) == 0 && (err == nil || !s.knowsMAC(rec)) {
		return nil, fmt.Errorf("%w: record %q", ErrOutOfBuilding, rec.ID)
	}
	if err != nil {
		return nil, fmt.Errorf("core: scan edges: %w", err)
	}
	ws.clk.Mark(stageOverlay)
	ego, err := embed.EmbedScan(&ws.embed, edges, s.emb, s.incrementalFor(rec), s.neg)
	if err != nil {
		return nil, fmt.Errorf("core: online embedding: %w", err)
	}
	ws.clk.Mark(stageEmbed)
	return ego, nil
}

// Classify classifies one scan through the §V online-inference pipeline.
// By default it is read-only — the scan's edges into the frozen graph are
// embedded against the frozen model under a shared read lock, so any
// number of classifications run in parallel. With WithAbsorb the scan is
// kept in the graph instead (an exclusive write).
// Classify returns ctx.Err() when ctx is already done; the embedding
// step itself is sub-millisecond and runs to completion once started.
func (s *System) Classify(ctx context.Context, rec *dataset.Record, opts ...Option) (Result, error) {
	return s.Do(ctx, NewRequest(rec, opts...))
}

// Do executes a prebuilt Request; Classify is sugar over NewRequest + Do.
func (s *System) Do(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if req.opts.absorb {
		return s.absorbClassify(ctx, req.Record, req.opts)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := ctx.Err(); err != nil { // the lock wait may have outlived ctx
		return Result{}, err
	}
	return s.classifyRLocked(req.Record, req.opts)
}

// classifyRLocked is the read-only classification path. It borrows a
// pooled workspace for the request's scratch state — scan edges,
// embedding buffers, per-floor reduction — and returns it on exit, so
// steady-state classification allocates only the Result. The caller
// holds at least s.mu.RLock; no shared state is written.
//
//grafics:rlocked mu
//grafics:hotpath
func (s *System) classifyRLocked(rec *dataset.Record, o options) (Result, error) {
	ws := classifyPool.Get().(*classifyWorkspace)
	defer func() {
		// Drop the references into this System's embedding rows before
		// pooling, so an idle workspace never pins a model that a
		// lifecycle hot swap has since retired. The edge list holds only
		// node IDs and weights.
		ws.embed.Release()
		classifyPool.Put(ws)
	}()
	ws.clk.Start()
	ego, err := s.embedScanRLocked(rec, o, ws)
	if err != nil {
		return Result{}, err
	}
	res := s.resultFromEgo(ego, o, ws)
	ws.clk.Mark(stageReduce)
	// Flush the stage clock into the registered histograms: atomic adds
	// through pre-resolved children, allocation-free like the rest of the
	// path (the bench gate holds classify at 2 allocs/op).
	stageOverlayHist.Observe(ws.clk.Seconds(stageOverlay))
	stageEmbedHist.Observe(ws.clk.Seconds(stageEmbed))
	stageReduceHist.Observe(ws.clk.Seconds(stageReduce))
	classifyTotal.Inc()
	return res, nil
}

// absorbClassify is the write path behind WithAbsorb: classify the scan
// and keep it (and any new MACs it introduced) in the bipartite graph
// under the name online-<n>-<id>, where n is the building's absorb count
// after this absorb. The count lives in the snapshot and carries over a
// refit, so a replica or a replay that applies the same absorbs names
// them alike. A name already in the graph is skipped: a snapshot written
// before the count was kept starts it at 0 beside records named by the
// old request sequence. On error the graph is rolled back and the count
// stays.
func (s *System) absorbClassify(ctx context.Context, rec *dataset.Record, o options) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	n := s.absorbSeq + 1
	name := absorbName(n, rec.ID)
	for _, taken := s.graph.RecordNode(name); taken; _, taken = s.graph.RecordNode(name) {
		n++
		name = absorbName(n, rec.ID)
	}
	ego, err := s.absorbLocked(rec, name)
	if err != nil {
		return Result{}, err
	}
	s.absorbSeq = n
	return s.resultFromEgo(ego, o, nil), nil
}

// absorbName names the n-th absorb of the scan with the given ID.
func absorbName(n int64, id string) string { return fmt.Sprintf("online-%d-%s", n, id) }

// absorbLocked keeps rec in the graph under name: it inserts the record,
// embeds it against the frozen model with the scan's seed, and appends it
// to the absorbed history. It returns the record's live ego row. On
// error the graph is rolled back to its prior state.
//
//grafics:locked mu
func (s *System) absorbLocked(rec *dataset.Record, name string) ([]float64, error) {
	if !s.trained {
		return nil, ErrNotTrained
	}
	if !s.knowsMAC(rec) {
		return nil, fmt.Errorf("%w: record %q", ErrOutOfBuilding, rec.ID)
	}
	insert := *rec
	insert.ID = name
	newMACs := make(map[string]struct{})
	for _, rd := range insert.Readings {
		if _, ok := s.graph.MACNode(rd.MAC); !ok {
			newMACs[rd.MAC] = struct{}{}
		}
	}
	id, err := s.graph.AddRecord(&insert)
	if err != nil {
		return nil, fmt.Errorf("core: online insert: %w", err)
	}
	// Any failure past this point must undo the insertion — including the
	// MAC nodes it introduced — so a failed absorb leaves no residue.
	committed := false
	defer func() {
		if committed {
			return
		}
		_ = s.graph.RemoveRecord(insert.ID)
		for mac := range newMACs {
			_ = s.graph.RemoveMAC(mac)
		}
	}()
	if err := embed.EmbedNewNode(s.graph, s.emb, id, s.incrementalFor(rec), s.neg); err != nil {
		return nil, fmt.Errorf("core: online embedding: %w", err)
	}
	// The caller hands the live table row to resultFromEgo, which copies
	// it into the Result; safe because the write lock is held throughout.
	ego := s.emb.EgoOf(id)
	committed = true
	// Remember the kept record (under its internal name) so Save can
	// persist the crowd-grown graph and a refit can train on it. MACs the
	// scan just (re)introduced are live again: a previously retired AP
	// that reappears in the crowd is treated as re-installed.
	s.absorbed = append(s.absorbed, insert)
	for mac := range newMACs {
		delete(s.retired, mac)
	}
	s.refreshSampler()
	absorbsTotal.Inc()
	return ego, nil
}

// Carry finishes a refit. s is a fresh fit of old's corpus as it stood
// when old had absorbed n records. Carry absorbs old's later records into
// s, each under the name it already has and with the seed of its scan,
// and continues old's absorb count, so no later absorb reuses a name. The
// caller keeps old from absorbing during the call. A record that cannot
// be carried is skipped, and the returned error names it.
func (s *System) Carry(old *System, n int) error {
	tail, seq := old.absorbedSince(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for i := range tail {
		if _, err := s.absorbLocked(&tail[i], tail[i].ID); err != nil {
			errs = append(errs, fmt.Errorf("core: carry absorbed %q: %w", tail[i].ID, err))
		}
	}
	s.absorbSeq = max(s.absorbSeq, seq)
	return errors.Join(errs...)
}

// absorbedSince returns copies of the absorbed records from index n on,
// and the absorb count, read together.
func (s *System) absorbedSince(n int) ([]dataset.Record, int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n = min(max(n, 0), len(s.absorbed))
	return append([]dataset.Record(nil), s.absorbed[n:]...), s.absorbSeq
}

// ClassifyBatch classifies each record concurrently over a
// GOMAXPROCS-sized worker pool of read-only classifiers, returning
// per-record results and a parallel slice of errors (nil entries on
// success). Once ctx is done, workers stop claiming records and every
// unstarted record fails with ctx.Err(), so a cancelled batch returns
// promptly. Options apply to every record (WithAbsorb serializes the
// batch on the write lock).
func (s *System) ClassifyBatch(ctx context.Context, records []dataset.Record, opts ...Option) ([]Result, []error) {
	results := make([]Result, len(records))
	errs := make([]error, len(records))
	req := NewRequest(nil, opts...)
	par.ForEachCtxFill(ctx, len(records), func(i int) {
		r := req
		r.Record = &records[i]
		results[i], errs[i] = s.Do(ctx, r)
	}, func(i int, err error) {
		errs[i] = err
	})
	return results, errs
}
