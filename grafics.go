// Package grafics is a Go implementation of GRAFICS — Graph
// Embedding-based Floor Identification using Crowdsourced RF Signals
// (Zhuo et al., ICDCS 2022).
//
// GRAFICS identifies which floor of a building an RF (WiFi) scan was taken
// on, using a crowdsourced corpus of scans of which only a handful carry
// floor labels. It works in three stages:
//
//  1. A weighted bipartite graph is built with scan records on one side and
//     sensed MAC addresses on the other; an edge weighted by f(RSS) = RSS+α
//     connects a record to every MAC it observed. Variable-length scans are
//     represented without the "missing value" imputation that matrix
//     representations require.
//  2. E-LINE — an extension of the LINE graph-embedding algorithm with a
//     symmetric ego/context objective — embeds every node into a common
//     low-dimensional space, placing records with overlapping local (even
//     multi-hop) neighborhoods close together.
//  3. Proximity-based hierarchical clustering groups record embeddings
//     under the constraint that each cluster contains exactly one labeled
//     record; the cluster's label classifies its members, and new scans are
//     classified online by the nearest cluster centroid after a fast
//     frozen-model embedding step.
//
// # Quick start
//
//	sys := grafics.New(grafics.Config{})
//	if err := sys.AddTraining(trainRecords); err != nil { ... }
//	if err := sys.FitCtx(ctx); err != nil { ... }
//	res, err := sys.Classify(ctx, &scan)   // res.Floor is the answer
//	// res.Confidence ∈ (0,1]; res.Candidates ranks runner-up floors
//
// Classify is the context-first inference entry point: it honors
// cancellation and deadlines, and takes functional options —
// [WithTopK] for ranked candidate floors, [WithAbsorb] to keep the scan
// in the graph (the paper's crowd-growing deployment mode), and
// [WithoutEmbedding] to skip returning the embedding vector. A
// classification is a function of the model and the scan: the online
// embedding step is seeded from the scan's readings, so classifying the
// same scan again gives the same Result. ClassifyBatch fans a slice of
// scans over a worker pool and aborts promptly when the context is
// cancelled. Both [System] here and the multi-building portfolio
// implement the [Classifier] interface.
//
// For long-running deployments, [OpenLifecycleCtx] wraps a fleet
// ([Portfolio]) with the durable model lifecycle: absorbed scans are
// journaled to a write-ahead log and captured in portfolio snapshots
// (surviving crashes and restarts), and stale models are re-fitted on
// the accumulated corpus in the background and hot-swapped in while
// classifications continue.
//
// Training records are [Record] values; set Labeled on the few records
// whose Floor is known. See the examples directory for end-to-end
// programs, including a synthetic-corpus generator for experimentation.
package grafics

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/lifecycle"
	"repro/internal/portfolio"
	"repro/internal/rfgraph"
	"repro/internal/simulate"
	"repro/internal/wal"
)

// Reading is one sensed access point in a scan: MAC address and RSS (dBm).
type Reading = dataset.Reading

// Record is one RF scan: a variable-length list of readings plus an
// optional floor label (set Labeled to expose Floor to training).
type Record = dataset.Record

// Building is a collection of records from one multi-floor building.
type Building = dataset.Building

// Corpus is a named set of buildings.
type Corpus = dataset.Corpus

// Config configures a System. The zero value reproduces the paper's
// setup: weight function f(RSS) = RSS + 120, 8-dimensional E-LINE
// embeddings, and fast online inference.
type Config = core.Config

// EmbedConfig holds E-LINE/LINE training hyperparameters.
type EmbedConfig = embed.Config

// IncrementalConfig holds online-inference embedding hyperparameters.
type IncrementalConfig = embed.IncrementalConfig

// WeightSpec selects the RSS-to-edge-weight function.
type WeightSpec = core.WeightSpec

// Weight kinds for WeightSpec.
const (
	// WeightOffset selects f(RSS) = RSS + Alpha (the paper's choice).
	WeightOffset = core.WeightOffset
	// WeightPower selects g(RSS) = 10^{RSS/10} (evaluated in Fig. 16 and
	// shown to be much worse).
	WeightPower = core.WeightPower
)

// DefaultOffset is the paper's α in f(RSS) = RSS + α.
const DefaultOffset = rfgraph.DefaultOffset

// Embedding modes for EmbedConfig.Mode.
const (
	// ModeELINE is the paper's embedding objective (default).
	ModeELINE = embed.ModeELINE
	// ModeLINESecond is classic second-order LINE (ablation baseline).
	ModeLINESecond = embed.ModeLINESecond
	// ModeLINEFirst is classic first-order LINE.
	ModeLINEFirst = embed.ModeLINEFirst
)

// System is a GRAFICS floor-identification model; see the package
// documentation for the lifecycle.
type System = core.System

// Classifier is the context-first classification contract implemented by
// both [System] (one building) and the multi-building portfolio, so
// applications can code against a single interface.
type Classifier = core.Classifier

// Result is the outcome of one Classify call: floor, confidence,
// ranked candidate floors, and (unless opted out) the learned embedding.
type Result = core.Result

// Candidate is one ranked floor hypothesis within a Result.
type Candidate = core.Candidate

// Option customizes one Classify request.
type Option = core.Option

// Request bundles one scan with its resolved classification options.
type Request = core.Request

// WithTopK requests the k most likely floors as ranked Candidates
// (negative k means every distinct floor; the default is 1).
func WithTopK(k int) Option { return core.WithTopK(k) }

// WithAbsorb keeps the classified scan (and any new MACs it introduced)
// in the bipartite graph — the long-running crowdsourced deployment mode.
func WithAbsorb() Option { return core.WithAbsorb() }

// WithoutEmbedding omits the learned embedding from the Result.
func WithoutEmbedding() Option { return core.WithoutEmbedding() }

// NewRequest resolves opts against the defaults and binds them to rec.
func NewRequest(rec *Record, opts ...Option) Request { return core.NewRequest(rec, opts...) }

// GraphStats summarizes the system's bipartite graph.
type GraphStats = core.GraphStats

// Errors returned by the System lifecycle.
var (
	// ErrNotTrained is returned by inference methods before Fit.
	ErrNotTrained = core.ErrNotTrained
	// ErrAlreadyFit is returned when mutating a trained system.
	ErrAlreadyFit = core.ErrAlreadyFit
	// ErrNoTraining is returned by Fit without training data.
	ErrNoTraining = core.ErrNoTraining
	// ErrOutOfBuilding marks scans sharing no MAC with the corpus.
	ErrOutOfBuilding = core.ErrOutOfBuilding
)

// New returns an untrained System.
func New(cfg Config) *System { return core.New(cfg) }

// DefaultEmbedConfig returns the paper's E-LINE hyperparameters.
func DefaultEmbedConfig() EmbedConfig { return embed.DefaultConfig() }

// DefaultIncrementalConfig returns the online-inference defaults.
func DefaultIncrementalConfig() IncrementalConfig { return embed.DefaultIncrementalConfig() }

// Load reads a trained System previously written with System.Save.
func Load(r io.Reader) (*System, error) { return core.Load(r) }

// LoadFile reads a trained System from a file.
func LoadFile(path string) (*System, error) { return core.LoadFile(path) }

// Portfolio routes scans across a fleet of buildings: attribution by MAC
// overlap first, then floor identification within the winning building.
// Portfolio.Save/LoadPortfolio persist the whole fleet (manifest plus one
// snapshot per building) under a state directory.
type Portfolio = portfolio.Portfolio

// Routed is a fleet classification: the attributed building plus the
// floor Result within it.
type Routed = portfolio.Routed

// NewPortfolio returns an empty fleet; cfg configures every building.
func NewPortfolio(cfg Config) *Portfolio { return portfolio.New(cfg) }

// LoadPortfolio restores a fleet previously written with Portfolio.Save.
func LoadPortfolio(dir string, cfg Config) (*Portfolio, error) {
	return portfolio.LoadPortfolio(dir, cfg)
}

// LifecycleManager wraps a Portfolio with the durable model lifecycle:
// every absorb is journaled to a write-ahead log, staleness is tracked
// per building, and stale models are re-fitted in the background and
// hot-swapped in while reads continue. See internal/lifecycle.
type LifecycleManager = lifecycle.Manager

// LifecycleOptions configures OpenLifecycleCtx (state directory, WAL
// tuning, refit policy).
type LifecycleOptions = lifecycle.Options

// LifecyclePolicy sets the staleness thresholds that trigger a
// background refit: absorbed-since-fit count, overlay/anchor ratio, and
// model age.
type LifecyclePolicy = lifecycle.Policy

// LifecycleStatus is the fleet-wide lifecycle state (staleness, WAL,
// snapshot, and refit progress per building).
type LifecycleStatus = lifecycle.Status

// OpenLifecycleCtx restores (or cold-starts) a lifecycle-managed fleet:
// with a state directory it loads the latest portfolio snapshot, replays
// the write-ahead log tail, and opens the journal for new absorbs.
// Cancelling ctx aborts snapshot restore and WAL replay; the ctx governs
// only the open itself, not the returned manager's lifetime.
func OpenLifecycleCtx(ctx context.Context, cfg Config, opts LifecycleOptions) (*LifecycleManager, error) {
	return lifecycle.OpenCtx(ctx, cfg, opts)
}

// WALOptions tunes the absorb write-ahead log (segment size, fsync
// policy).
type WALOptions = wal.Options

// WALRecord is one journaled absorb: building attribution plus the scan.
type WALRecord = wal.Record

// ReplayWAL reads every complete record of an absorb journal in append
// order, stopping cleanly at a torn tail; see the wal package for the
// recovery semantics.
func ReplayWAL(dir string, fn func(WALRecord) error) (int, error) {
	return wal.Replay(dir, fn)
}

// SimulateParams configures the synthetic crowdsourced-corpus generator
// that stands in for the paper's proprietary datasets (see DESIGN.md §2).
type SimulateParams = simulate.Params

// MicrosoftLikeParams mimics the Kaggle corpus: many 2-12 floor buildings.
func MicrosoftLikeParams(numBuildings, recordsPerFloor int, seed int64) SimulateParams {
	return simulate.MicrosoftLike(numBuildings, recordsPerFloor, seed)
}

// HongKongLikeParams mimics the authors' five large Hong Kong facilities.
func HongKongLikeParams(recordsPerFloor int, seed int64) SimulateParams {
	return simulate.HongKongLike(recordsPerFloor, seed)
}

// Campus3FParams mimics the three-story campus building of Fig. 6-8.
func Campus3FParams(recordsPerFloor int, seed int64) SimulateParams {
	return simulate.Campus3F(recordsPerFloor, seed)
}

// GenerateCorpus produces a synthetic corpus under params.
func GenerateCorpus(params SimulateParams) (*Corpus, error) {
	return simulate.Generate(params)
}

// SplitRecords partitions a building's records into train/test subsets
// (stratified by floor) with the given training fraction.
func SplitRecords(b *Building, trainFraction float64, seed int64) (train, test []Record, err error) {
	rng := newRand(seed)
	return dataset.Split(b, trainFraction, rng)
}

// SelectLabels marks perFloor randomly chosen records per floor as labeled
// and unlabels the rest, returning the number of labels granted.
func SelectLabels(records []Record, perFloor int, seed int64) int {
	return dataset.SelectLabels(records, perFloor, newRand(seed))
}
