// Package core assembles the full GRAFICS system from its components:
// bipartite-graph construction (rfgraph), E-LINE graph embedding (embed),
// and proximity-based hierarchical clustering (cluster). It exposes the
// offline-training / online-inference lifecycle of §III-B of the paper and
// model persistence. The exported facade for library users lives in the
// repository root package; this package holds the mechanics.
//
// # Concurrency model
//
// A System is read-mostly. Once FitCtx has run, the bipartite graph, the
// embedding tables, and the cluster model form a frozen snapshot that
// Classify/ClassifyBatch consult under a shared read lock: each
// classification collects the scan's edges into the frozen graph
// (rfgraph.Graph.ScanEdges) and embeds them against the frozen model
// (embed.EmbedScan), writing nothing, so any number of classifications
// run in parallel. The exclusive writers are AddTraining, FitCtx,
// absorbing classifications (WithAbsorb), Carry, RemoveMAC, and Load:
// they take the write lock, mutate the graph/embedding in place, and
// publish the new snapshot to subsequent readers when the lock is
// released. ClassifyBatch fans work out over a GOMAXPROCS-sized worker
// pool of such readers and honors context cancellation (par.ForEachCtx).
//
// # Online randomness
//
// A scan's online embedding is seeded from the scan itself (the root
// IncrementalConfig.Seed plus a hash of its readings), so a
// classification is a function of the model and the scan alone: the
// same scan gets the same Result however many requests came before it,
// on any replica of the model.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/rfgraph"
)

// WeightKind selects the RSS-to-weight mapping for graph edges.
type WeightKind int

// Weight kinds (Fig. 16 compares these).
const (
	// WeightOffset is the paper's f(RSS) = RSS + Alpha.
	WeightOffset WeightKind = iota + 1
	// WeightPower is the dBm-to-milliwatt mapping g(RSS) = 10^{RSS/10}.
	WeightPower
)

// WeightSpec is a serializable description of a weight function.
type WeightSpec struct {
	Kind  WeightKind
	Alpha float64
}

// Func materializes the weight function.
func (w WeightSpec) Func() rfgraph.WeightFunc {
	switch w.Kind {
	case WeightPower:
		return rfgraph.PowerWeight()
	default:
		alpha := w.Alpha
		if alpha == 0 {
			alpha = rfgraph.DefaultOffset
		}
		return rfgraph.OffsetWeight(alpha)
	}
}

// Config configures a System.
type Config struct {
	// Weight selects the edge weight function; the zero value means
	// f(RSS) = RSS + 120 as in the paper.
	Weight WeightSpec
	// Embed holds E-LINE hyperparameters; zero value means
	// embed.DefaultConfig().
	Embed embed.Config
	// Incremental holds online-inference hyperparameters; zero value
	// means embed.DefaultIncrementalConfig().
	Incremental embed.IncrementalConfig
}

// normalized fills zero-valued sections with defaults.
func (c Config) normalized() Config {
	if c.Embed == (embed.Config{}) {
		c.Embed = embed.DefaultConfig()
	}
	if c.Incremental == (embed.IncrementalConfig{}) {
		c.Incremental = embed.DefaultIncrementalConfig()
	}
	if c.Weight.Kind == 0 {
		c.Weight = WeightSpec{Kind: WeightOffset, Alpha: rfgraph.DefaultOffset}
	}
	return c
}

// Errors returned by the system lifecycle.
var (
	ErrNotTrained    = errors.New("core: system is not trained; call FitCtx first")
	ErrAlreadyFit    = errors.New("core: system already trained")
	ErrNoTraining    = errors.New("core: no training records added")
	ErrOutOfBuilding = errors.New("core: record shares no MAC with the training data; likely collected outside the building")
)

// System is a GRAFICS floor-identification model. Create with New, feed
// training records with AddTraining, train with FitCtx, then classify online
// records with Classify (read-only by default; WithAbsorb keeps the scan
// in the graph). A System is safe for concurrent use; see the package
// documentation for the reader/writer split.
type System struct {
	mu sync.RWMutex

	cfg Config // immutable after New

	// grafics:guardedby mu
	graph *rfgraph.Graph
	// grafics:guardedby mu
	emb *embed.Embedding
	// grafics:guardedby mu
	model *cluster.Model
	// grafics:guardedby mu
	trained bool

	// fidx caches the per-floor view of the cluster model (which labeled
	// clusters exist, grouped by floor) so read-only classifications stop
	// rebuilding it per request. It is derived from model alone: set
	// wherever model is (Fit, Load), untouched by absorbs and MAC
	// retirements, and replaced wholesale on a lifecycle hot swap.
	//
	// grafics:guardedby mu
	fidx *floorIndex

	// neg is the frozen negative-sampling distribution and warm-start
	// table shared by all concurrent predictions; writers rebuild it
	// after mutating the graph (see refreshSampler).
	//
	// grafics:guardedby mu
	neg *embed.NegativeSampler

	// trainRecords holds training records in insertion order; trainNodes
	// holds their graph node IDs at the same indices.
	//
	// grafics:guardedby mu
	trainRecords []dataset.Record
	// grafics:guardedby mu
	trainNodes []rfgraph.NodeID

	// absorbed holds the records kept by WithAbsorb classifications, in
	// insertion order and under their uniquified internal IDs. It is what
	// makes Save/Load lossless for a crowd-grown system — re-inserting
	// trainRecords then absorbed reproduces the exact node numbering the
	// saved embedding tables index — and what a refit uses as the
	// accumulated corpus.
	//
	// grafics:guardedby mu
	absorbed []dataset.Record

	// retired holds MACs removed via RemoveMAC whose readings still
	// appear in the accumulated records. Rebuilding a graph from those
	// records (Load, refit) would silently resurrect the retired APs;
	// this set is what lets the rebuild re-apply the removals. A retired
	// MAC that reappears in an absorbed scan (AP re-installed) leaves the
	// set.
	//
	// grafics:guardedby mu
	retired map[string]struct{}

	// retireLog records every RemoveMAC with its position in the absorb
	// stream. Node numbering depends on the interleaving: a retired MAC
	// re-introduced by a later absorb occupies a fresh slot, so Load must
	// replay retirements at their original positions — not just at the
	// end — for the rebuilt slots to line up with the saved embedding
	// rows.
	//
	// grafics:guardedby mu
	retireLog []RetireEvent

	// absorbSeq is the n of the newest absorbed record's name,
	// online-<n>-<id>, continued from the systems this one was refitted
	// from (see absorbClassify and Carry). Only absorbs advance it, and
	// the snapshot carries it, so it is replicated state.
	//
	// grafics:guardedby mu
	absorbSeq int64
}

// New returns an untrained System.
func New(cfg Config) *System {
	cfg = cfg.normalized()
	return &System{
		cfg:     cfg,
		graph:   rfgraph.New(cfg.Weight.Func()),
		retired: make(map[string]struct{}),
	}
}

// Config returns the (normalized) configuration.
func (s *System) Config() Config { return s.cfg }

// AddTraining inserts training records into the bipartite graph. Records
// whose Labeled flag is set anchor clusters during FitCtx. Each record is
// inserted atomically; on error, earlier records of the batch remain.
func (s *System) AddTraining(records []dataset.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.trained {
		return ErrAlreadyFit
	}
	for i := range records {
		id, err := s.graph.AddRecord(&records[i])
		if err != nil {
			return fmt.Errorf("core: training record %d (%s): %w", i, records[i].ID, err)
		}
		s.trainRecords = append(s.trainRecords, records[i])
		s.trainNodes = append(s.trainNodes, id)
	}
	return nil
}

// FitCtx runs offline training: E-LINE over the bipartite graph, then
// proximity-based hierarchical clustering of the record-node ego
// embeddings anchored at the labeled records. Cancellation is threaded
// through both expensive stages (embedding SGD and the constrained
// agglomeration), so a shutting-down server aborts an in-flight
// background refit promptly instead of finishing a model nobody will
// serve. A cancelled fit returns ctx.Err() and leaves the system
// untrained — exactly as before the call.
func (s *System) FitCtx(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.trained {
		return ErrAlreadyFit
	}
	if len(s.trainRecords) == 0 {
		return ErrNoTraining
	}
	emb, err := embed.TrainCtx(ctx, s.graph, s.cfg.Embed)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("core: embedding: %w", err)
	}
	items := make([]cluster.Item, len(s.trainRecords))
	for i := range s.trainRecords {
		label := cluster.Unlabeled
		if s.trainRecords[i].Labeled {
			label = s.trainRecords[i].Floor
		}
		items[i] = cluster.Item{
			Index: i,
			Vec:   emb.EgoOf(s.trainNodes[i]),
			Label: label,
		}
	}
	model, err := cluster.TrainCtx(ctx, items)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("core: clustering: %w", err)
	}
	s.emb = emb
	s.model = model
	s.fidx = newFloorIndex(model)
	s.neg = embed.NewNegativeSampler(s.graph, emb)
	s.trained = true
	return nil
}

// refreshSampler rebuilds the shared negative-sampling distribution and
// warm-start table after a graph mutation. The caller holds the write
// lock. A graph whose every MAC is retired gets an empty sampler; no
// scan reaches it, since a scan with an edge into the graph makes the
// sampler non-empty.
//
//grafics:locked mu
func (s *System) refreshSampler() {
	if s.trained {
		s.neg = embed.NewNegativeSampler(s.graph, s.emb)
	}
}

// Trained reports whether FitCtx has completed.
func (s *System) Trained() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.trained
}

// knowsMAC reports whether any of the record's MACs has a node.
//
//grafics:rlocked mu
func (s *System) knowsMAC(rec *dataset.Record) bool {
	for _, rd := range rec.Readings {
		if _, ok := s.graph.MACNode(rd.MAC); ok {
			return true
		}
	}
	return false
}

// HasMAC reports whether the graph currently holds a node for mac.
func (s *System) HasMAC(mac string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.graph.MACNode(mac)
	return ok
}

// RetireEvent is one RemoveMAC in the system's history: the MAC and how
// many records had been absorbed when it was retired (the position that
// lets a snapshot replay the retirement at the right point).
type RetireEvent struct {
	MAC string
	// After is the absorbed-record count at retirement time: the event
	// applies after absorbed[0:After] and before absorbed[After].
	After int
}

// RemoveMAC retires an access point from the graph (environment churn).
// The embeddings and clusters are not retrained. The retirement is
// remembered (see RetiredMACs) so snapshot restores and refits, which
// rebuild the graph from the accumulated records, re-apply it instead of
// resurrecting the AP.
func (s *System) RemoveMAC(mac string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.graph.RemoveMAC(mac); err != nil {
		return err
	}
	s.retired[mac] = struct{}{}
	s.retireLog = append(s.retireLog, RetireEvent{MAC: mac, After: len(s.absorbed)})
	s.refreshSampler()
	return nil
}

// RetiredMACs returns the MACs removed via RemoveMAC that have not since
// reappeared in an absorbed scan, sorted for determinism.
func (s *System) RetiredMACs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedMACs(s.retired)
}

// sortedMACs flattens a MAC set into a sorted slice.
func sortedMACs(set map[string]struct{}) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for mac := range set {
		out = append(out, mac)
	}
	sort.Strings(out)
	return out
}

// TrainingAssignments returns the virtual floor label that clustering gave
// every training record, in insertion order.
func (s *System) TrainingAssignments() ([]int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.trained {
		return nil, ErrNotTrained
	}
	return s.model.MemberLabels(), nil
}

// TrainingEmbedding returns the learned ego embedding of the i-th training
// record.
func (s *System) TrainingEmbedding(i int) ([]float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.trained {
		return nil, ErrNotTrained
	}
	if i < 0 || i >= len(s.trainNodes) {
		return nil, fmt.Errorf("core: training index %d out of range [0,%d)", i, len(s.trainNodes))
	}
	return append([]float64(nil), s.emb.EgoOf(s.trainNodes[i])...), nil
}

// TrainingRecords returns the number of training records.
func (s *System) TrainingRecords() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.trainRecords)
}

// AbsorbedRecords returns how many records WithAbsorb classifications
// have kept in the graph since Fit (or since the snapshot this system was
// loaded from was taken).
func (s *System) AbsorbedRecords() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.absorbed)
}

// CorpusRecords returns copies of every record the model has accumulated:
// the training records in insertion order, then the absorbed records in
// absorption order. This is the corpus a refit trains on — absorbed
// records participate as unlabeled crowd scans exactly like the bulk of
// the original training set.
func (s *System) CorpusRecords() []dataset.Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]dataset.Record, 0, len(s.trainRecords)+len(s.absorbed))
	out = append(out, s.trainRecords...)
	out = append(out, s.absorbed...)
	return out
}

// MACs returns the MAC addresses currently in the graph, in node order.
func (s *System) MACs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.graph.MACNodes()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = s.graph.Name(id)
	}
	return out
}

// ClusterModel exposes the trained clustering (read-only) for diagnostics
// and the Fig. 8 progression.
func (s *System) ClusterModel() (*cluster.Model, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.trained {
		return nil, ErrNotTrained
	}
	// grafics:lockok model is immutable once trained; refits hot-swap the whole System
	return s.model, nil
}

// GraphStats summarizes the bipartite graph.
type GraphStats struct {
	Records int
	MACs    int
	Edges   int
}

// Stats returns current graph statistics.
func (s *System) Stats() GraphStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return GraphStats{
		Records: s.graph.NumRecords(),
		MACs:    s.graph.NumMACs(),
		Edges:   s.graph.NumEdges(),
	}
}
