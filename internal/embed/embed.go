// Package embed implements the graph-embedding algorithms of the GRAFICS
// paper: LINE (first- and second-order proximity) and the paper's
// contribution E-LINE (§IV-B), which augments second-order LINE with the
// symmetric ego-given-context objective so that multi-hop local
// neighborhoods — not just shared one-hop neighbors — pull nodes together
// in the embedding space.
//
// # Training pipeline
//
// Train/TrainCtx run alias-sampled edge SGD with negative sampling
// (Pr(z) ∝ deg(z)^{3/4}). The sample stream is split into fixed-size
// chunks; chunk i draws every random decision (dropout coin flips, edge
// picks, negative picks) from its own sampling.Fast stream whose seed is
// a pure function of (Config.Seed, i), so the stream a chunk processes
// does not depend on which goroutine runs it or when. Two execution
// strategies share that stream:
//
//   - StrategyParity: chunks run sequentially in index order on one
//     goroutine. Bit-identical for a fixed seed across runs, machines
//     (same architecture), worker counts, and GOMAXPROCS.
//   - StrategyFast: Hogwild — Config.Workers goroutines claim chunks over
//     the internal/par pool and update the shared embedding matrix with
//     benign data races, one batch of negative draws serving every
//     direction of a positive sample. Statistically equivalent to parity
//     and several times faster; not bit-reproducible with more than one
//     effective worker.
//
// The written contract between the two — what is reproducible, what CI
// pins, how the race detector is handled — lives in docs/determinism.md.
// The innermost update reuses the dim-8 unrolled kernels that power the
// online path, so the paper's 8-dimensional configuration takes a fused
// allocation-free fast path (see sgdUpdate8).
//
// The package also provides the paper's online-inference step: embedding
// a newly inserted node while all other embeddings stay fixed (§V-A),
// warm-started from the trained records that share its MACs (see
// NegativeSampler), and an Objective diagnostic for experiment harnesses.
package embed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/par"
	"repro/internal/rfgraph"
	"repro/internal/sampling"
)

// Mode selects the training objective.
type Mode int

// Training modes. E-LINE is the paper's algorithm; the LINE modes exist as
// ablation baselines (Fig. 13).
const (
	// ModeELINE optimizes O3 = O1 + O2 (Eq. 9): second-order proximity
	// plus the symmetric ego-given-context term.
	ModeELINE Mode = iota + 1
	// ModeLINESecond optimizes the classic LINE second-order objective
	// O1 (Eq. 5) only.
	ModeLINESecond
	// ModeLINEFirst optimizes the classic LINE first-order objective
	// (edge endpoints' ego embeddings made similar directly).
	ModeLINEFirst
	// ModeLINEBoth trains first- and second-order embeddings separately
	// and concatenates them, the combination the LINE paper recommends
	// and that §IV-B of GRAFICS reports trying (it loses to second-order
	// alone on the bipartite graph). The resulting ego vectors have
	// dimension 2*Dim.
	ModeLINEBoth
)

func (m Mode) String() string {
	switch m {
	case ModeELINE:
		return "e-line"
	case ModeLINESecond:
		return "line-2nd"
	case ModeLINEFirst:
		return "line-1st"
	case ModeLINEBoth:
		return "line-1st+2nd"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Strategy selects how the chunked SGD sample stream is executed. The
// full parity-vs-fast contract is written down in docs/determinism.md.
type Strategy int

const (
	// StrategyParity (the zero value) runs chunks sequentially in index
	// order on a single goroutine. For a fixed Seed the result is
	// bit-identical across runs, worker counts, and GOMAXPROCS; tests and
	// experiment harnesses rely on it.
	StrategyParity Strategy = iota
	// StrategyFast executes the same chunk stream Hogwild-style: up to
	// Config.Workers goroutines claim chunks and update the shared
	// embedding matrix without locks. Statistically equivalent to parity
	// and several times faster on multi-core hosts; not bit-reproducible
	// with more than one effective worker.
	StrategyFast
)

func (s Strategy) String() string {
	switch s {
	case StrategyParity:
		return "parity"
	case StrategyFast:
		return "fast"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps the CLI spellings "parity" and "fast" to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "parity":
		return StrategyParity, nil
	case "fast":
		return StrategyFast, nil
	default:
		return 0, fmt.Errorf("embed: unknown strategy %q (want parity or fast)", s)
	}
}

// Config holds training hyperparameters. The defaults mirror §VI-A of the
// paper: 8-dimensional embeddings, learning rate 0.001, dropout 0.1.
type Config struct {
	// Mode selects E-LINE or a LINE ablation. Zero value means ModeELINE.
	Mode Mode
	// Dim is the embedding dimension (both ego and context).
	Dim int
	// LearningRate is the initial SGD step size; it decays linearly to
	// LearningRate/10000 over training as in the original LINE.
	LearningRate float64
	// NegativeSamples is K, the number of negative draws per positive
	// edge sample.
	NegativeSamples int
	// SamplesPerEdge scales the total number of SGD samples:
	// total = SamplesPerEdge * (number of directed edges).
	SamplesPerEdge int
	// Dropout is the probability of skipping a sampled edge update; the
	// paper trains E-LINE with dropout 0.1 as a regularizer.
	Dropout float64
	// Strategy selects parity (deterministic, single-goroutine) or fast
	// (Hogwild parallel) execution of the same sample stream. Zero value
	// is StrategyParity.
	Strategy Strategy
	// Workers caps the Hogwild goroutines under StrategyFast; 0 means
	// GOMAXPROCS. StrategyParity always runs one goroutine and ignores
	// Workers. Fast with a single effective worker is bit-identical to
	// parity.
	Workers int
	// Seed roots all randomness.
	Seed int64
}

// DefaultConfig returns the paper's baseline hyperparameters.
func DefaultConfig() Config {
	return Config{
		Mode:            ModeELINE,
		Dim:             8,
		LearningRate:    0.025,
		NegativeSamples: 5,
		SamplesPerEdge:  120,
		Dropout:         0.1,
		Seed:            1,
	}
}

// Validate reports the first invalid hyperparameter.
func (c *Config) Validate() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("embed: dim %d must be positive", c.Dim)
	case c.LearningRate <= 0:
		return fmt.Errorf("embed: learning rate %v must be positive", c.LearningRate)
	case c.NegativeSamples < 0:
		return fmt.Errorf("embed: negative samples %d must be non-negative", c.NegativeSamples)
	case c.SamplesPerEdge <= 0:
		return fmt.Errorf("embed: samples per edge %d must be positive", c.SamplesPerEdge)
	case c.Dropout < 0 || c.Dropout >= 1:
		return fmt.Errorf("embed: dropout %v outside [0,1)", c.Dropout)
	case c.Workers < 0:
		return fmt.Errorf("embed: workers %d must be non-negative", c.Workers)
	}
	switch c.Mode {
	case 0, ModeELINE, ModeLINESecond, ModeLINEFirst, ModeLINEBoth:
	default:
		return fmt.Errorf("embed: unknown mode %v", c.Mode)
	}
	switch c.Strategy {
	case StrategyParity, StrategyFast:
	default:
		return fmt.Errorf("embed: unknown strategy %v", c.Strategy)
	}
	return nil
}

// hogwildWorkers resolves Config.Workers for StrategyFast.
func (c *Config) hogwildWorkers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c *Config) mode() Mode {
	if c.Mode == 0 {
		return ModeELINE
	}
	return c.Mode
}

// Embedding holds the learned ego and context vectors, indexed by graph
// NodeID. Ego vectors are the node representations used downstream; context
// vectors encode neighborhoods and are needed for online inference.
type Embedding struct {
	Dim int
	Ego [][]float64
	Ctx [][]float64
}

// newEmbedding allocates vectors for n nodes, initializing ego vectors
// uniformly in [-0.5/dim, 0.5/dim] (the word2vec/LINE convention) and
// context vectors to zero. Rows are carved out of two flat backing
// arrays so a training pass walks contiguous memory; capacity-clamped
// subslices keep a later append on one row from clobbering its neighbor.
// The RNG draw order matches per-row allocation, so fixed-seed results
// are unchanged by the layout.
func newEmbedding(n, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{Dim: dim, Ego: make([][]float64, n), Ctx: make([][]float64, n)}
	egoBack := make([]float64, n*dim)
	ctxBack := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		ego := egoBack[i*dim : (i+1)*dim : (i+1)*dim]
		for d := range ego {
			ego[d] = (rng.Float64() - 0.5) / float64(dim)
		}
		e.Ego[i] = ego
		e.Ctx[i] = ctxBack[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return e
}

func randomVector(dim int, rng *rand.Rand) []float64 {
	v := make([]float64, dim)
	for d := range v {
		v[d] = (rng.Float64() - 0.5) / float64(dim)
	}
	return v
}

// Grow extends the embedding to cover n nodes (no-op when already large
// enough), initializing any new slots with rng.
func (e *Embedding) Grow(n int, rng *rand.Rand) {
	for len(e.Ego) < n {
		e.Ego = append(e.Ego, randomVector(e.Dim, rng))
		e.Ctx = append(e.Ctx, make([]float64, e.Dim))
	}
}

// EgoOf returns the ego embedding of id, or nil when out of range.
func (e *Embedding) EgoOf(id rfgraph.NodeID) []float64 {
	if int(id) < 0 || int(id) >= len(e.Ego) {
		return nil
	}
	return e.Ego[id]
}

// ErrEmptyGraph is returned when training is attempted on a graph with no
// live edges.
var ErrEmptyGraph = errors.New("embed: graph has no edges")

// sigmoidTable holds σ(x) precomputed on a uniform grid over
// [-sigmoidBound, sigmoidBound]. Outside the grid σ saturates to within
// 1e-4 of 0 or 1, so clamping is exact enough for SGD. Nearest-bin table
// lookup replaces math.Exp in the innermost loop, which profiles as
// ~half the cost of both training and online inference.
const (
	sigmoidBound = 9.0
	sigmoidSize  = 4096
)

var sigmoidTable = func() [sigmoidSize + 1]float64 {
	var t [sigmoidSize + 1]float64
	for i := range t {
		x := -sigmoidBound + 2*sigmoidBound*float64(i)/sigmoidSize
		t[i] = 1 / (1 + math.Exp(-x))
	}
	return t
}()

// sigmoid evaluates the logistic function by nearest-bin table lookup.
// The bin width of 2·9/4096 bounds the error by σ'(0)·step/2 ≈ 5.5e-4,
// far below the SGD noise floor.
func sigmoid(x float64) float64 {
	if x >= sigmoidBound {
		return 1
	}
	if x <= -sigmoidBound {
		return 0
	}
	return sigmoidTable[int((x+sigmoidBound)*(sigmoidSize/(2*sigmoidBound))+0.5)]
}

// trainContext bundles the immutable sampling state shared by workers.
type trainContext struct {
	edges    []rfgraph.DirectedEdge
	edgeDist *sampling.Alias
	negDist  *sampling.Alias
	negNodes []rfgraph.NodeID
}

// buildTrainContext prepares alias tables over edges (∝ weight) and nodes
// (∝ weightedDegree^{3/4}).
func buildTrainContext(g *rfgraph.Graph) (*trainContext, error) {
	edges := g.DirectedEdges()
	if len(edges) == 0 {
		return nil, ErrEmptyGraph
	}
	ew := make([]float64, len(edges))
	for i, e := range edges {
		ew[i] = e.Weight
	}
	edgeDist, err := sampling.NewAlias(ew)
	if err != nil {
		return nil, fmt.Errorf("embed: edge alias: %w", err)
	}
	var negNodes []rfgraph.NodeID
	var negW []float64
	for id := 0; id < g.NumNodes(); id++ {
		nid := rfgraph.NodeID(id)
		if !g.Alive(nid) || g.Degree(nid) == 0 {
			continue
		}
		negNodes = append(negNodes, nid)
		negW = append(negW, math.Pow(g.WeightedDegree(nid), 0.75))
	}
	negDist, err := sampling.NewAlias(negW)
	if err != nil {
		return nil, fmt.Errorf("embed: negative alias: %w", err)
	}
	return &trainContext{edges: edges, edgeDist: edgeDist, negDist: negDist, negNodes: negNodes}, nil
}

// Train learns embeddings for every live node of g under cfg. It is
// TrainCtx with a background context.
//
//grafics:ctxok compatibility wrapper; callers migrate to TrainCtx
func Train(g *rfgraph.Graph, cfg Config) (*Embedding, error) {
	return TrainCtx(context.Background(), g, cfg)
}

// chunkSamples is the unit of both scheduling and determinism: the SGD
// sample stream is cut into fixed chunks, and chunk i derives every
// random decision from its own RNG stream keyed by (Seed, i), so any
// execution order of chunks draws exactly the same samples. 1024 samples
// is a fraction of a millisecond of training — it bounds cancellation
// latency and amortizes the per-chunk scheduling cost (an atomic claim
// and a scratch-pool round trip) to noise.
const chunkSamples = 1024

// TrainCtx is Train with cancellation: workers poll ctx at every chunk
// boundary (1024 samples), so a cancelled context — a server shutting
// down mid-refit — aborts training within a fraction of a millisecond
// instead of grinding through the remaining samples. A cancelled run
// returns ctx.Err() and no embedding. When ctx is never cancelled the
// sample stream is untouched, so results stay bit-identical to Train.
func TrainCtx(ctx context.Context, g *rfgraph.Graph, cfg Config) (*Embedding, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.mode() == ModeLINEBoth {
		return trainConcat(ctx, g, cfg)
	}
	tc, err := buildTrainContext(g)
	if err != nil {
		return nil, err
	}
	seeder := sampling.NewSeeder(cfg.Seed)
	emb := newEmbedding(g.NumNodes(), cfg.Dim, seeder.NextRand())
	t := &trainer{
		tc:        tc,
		emb:       emb,
		cfg:       cfg,
		mode:      cfg.mode(),
		total:     cfg.SamplesPerEdge * len(tc.edges),
		chunkBase: seeder.Next(),
	}
	t.chunks = (t.total + chunkSamples - 1) / chunkSamples
	if err := t.run(ctx); err != nil {
		return nil, err
	}
	return emb, nil
}

// trainer bundles the shared state of one training run. The embedding
// matrix is the only mutable shared state; under StrategyFast it is
// updated Hogwild-style with benign word-level races (the contract is
// written down in docs/determinism.md).
type trainer struct {
	tc        *trainContext
	emb       *Embedding
	cfg       Config
	mode      Mode
	total     int   // SGD samples across all chunks
	chunks    int   // ceil(total / chunkSamples)
	chunkBase int64 // seed root for per-chunk RNG streams
	raceMu    sync.Mutex
}

// run executes every chunk over the internal/par pool. StrategyParity
// pins the pool to one worker, which par runs sequentially in index
// order on the calling goroutine — that ordering is the serial
// reference the parity tests pin. StrategyFast lets up to
// Config.Workers goroutines claim chunks; each chunk still draws its
// own deterministic sample stream, only the matrix updates race.
func (t *trainer) run(ctx context.Context) error {
	workers := 1
	if t.cfg.Strategy == StrategyFast {
		workers = t.cfg.hogwildWorkers()
	}
	pool := sync.Pool{New: func() any { return newTrainScratch(t.cfg) }}
	return par.ForEachCtxBounded(ctx, t.chunks, workers, func(c int) {
		ws := pool.Get().(*trainScratch)
		if raceDetectorEnabled && workers > 1 {
			// Under the race detector the benign Hogwild races would
			// (correctly) be reported, so chunk application serializes —
			// a legal fast-mode schedule that keeps the chunk claiming,
			// per-chunk seeding, and cancellation machinery exercised.
			t.raceMu.Lock()
			t.runChunk(c, ws)
			t.raceMu.Unlock()
		} else {
			t.runChunk(c, ws)
		}
		pool.Put(ws)
	})
}

// lrAt returns the learning rate for chunk c: linear decay by stream
// position, floored at LearningRate/10⁴ as in the original LINE. Decaying
// by chunk start index (instead of the old shared progress counter) makes
// the schedule a pure function of the chunk index, identical under any
// execution order, and drops the last piece of cross-worker coordination
// from the hot loop.
func (t *trainer) lrAt(c int) float64 {
	lr := t.cfg.LearningRate * (1 - float64(c*chunkSamples)/float64(t.total))
	if min := t.cfg.LearningRate * 1e-4; lr < min {
		return min
	}
	return lr
}

// trainScratch is per-worker state: an RNG reseeded for each chunk plus
// the buffers the update kernels stage into. Workers take one from a
// pool per chunk, so the hot loop allocates nothing.
type trainScratch struct {
	rng  sampling.Fast
	zbuf []rfgraph.NodeID // negative draws, shared by both E-LINE directions
	gs   []float64        // per-row step coefficients
	rows [][]float64      // table rows touched by the current update
	grad []float64        // source-gradient accumulator (generic dims)
}

func newTrainScratch(cfg Config) *trainScratch {
	return &trainScratch{
		zbuf: make([]rfgraph.NodeID, cfg.NegativeSamples),
		gs:   make([]float64, cfg.NegativeSamples+1),
		rows: make([][]float64, cfg.NegativeSamples+1),
		grad: make([]float64, cfg.Dim),
	}
}

// runChunk draws and applies chunk c's slice of the sample stream. Every
// random decision — dropout coin flips, edge picks, negative picks —
// comes from a Fast RNG seeded by (chunkBase, c), so the chunk's stream
// is identical whether it runs in order on one goroutine (parity) or
// interleaved across many (fast). One batch of negatives serves every
// direction of a positive sample (common random numbers): half the alias
// draws of the old per-direction scheme, statistically equivalent for
// negative-sampling SGD.
//
//grafics:hotpath
func (t *trainer) runChunk(c int, ws *trainScratch) {
	ws.rng.Reseed(sampling.SeedAt(t.chunkBase, c))
	rng := &ws.rng
	lo := c * chunkSamples
	hi := lo + chunkSamples
	if hi > t.total {
		hi = t.total
	}
	lr := t.lrAt(c)
	for s := lo; s < hi; s++ {
		if t.cfg.Dropout > 0 && rng.Float64() < t.cfg.Dropout {
			continue
		}
		e := t.tc.edges[t.tc.edgeDist.DrawFast(rng)]
		i, j := e.Src, e.Dst
		for k := range ws.zbuf {
			ws.zbuf[k] = t.tc.negNodes[t.tc.negDist.DrawFast(rng)]
		}
		switch t.mode {
		case ModeLINEFirst:
			sgdUpdate(t.emb.Ego[i], t.emb.Ego, j, lr, ws)
		case ModeLINESecond:
			sgdUpdate(t.emb.Ego[i], t.emb.Ctx, j, lr, ws)
		default: // ModeELINE: O1 + O2
			sgdUpdate(t.emb.Ego[i], t.emb.Ctx, j, lr, ws)
			sgdUpdate(t.emb.Ctx[i], t.emb.Ego, j, lr, ws)
		}
	}
}

// sgdUpdate performs one negative-sampled update of the skip-gram style
// objective log σ(table[j]·source) + Σ_z log σ(-table[z]·source), updating
// both the source vector and the touched table rows. It implements both
// halves of E-LINE: with source = ego_i and table = Ctx it is the classic
// second-order update (Eq. 5); with source = ctx_i and table = Ego it is
// the symmetric term (Eq. 8). Dim-8 runs — the paper's configuration —
// take the fused unrolled kernel.
//
//grafics:hotpath
func sgdUpdate(source []float64, table [][]float64, j rfgraph.NodeID, lr float64, ws *trainScratch) {
	if len(source) == 8 {
		sgdUpdate8(source, table, j, lr, ws)
		return
	}
	// Coefficient pass against the unchanged source, then apply — the
	// same gs/rows staging as frozenUpdate in incremental.go, so both
	// training paths share one floating-point shape.
	gs, rows := ws.gs, ws.rows
	target := table[j]
	gs[0] = -lr * (sigmoid(dotU(source, target)) - 1)
	rows[0] = target
	n := 1
	for _, z := range ws.zbuf {
		if z == j {
			continue
		}
		row := table[z]
		gs[n] = -lr * sigmoid(dotU(source, row))
		rows[n] = row
		n++
	}
	grad := ws.grad[:len(source)]
	for d := range grad {
		grad[d] = 0
	}
	for k := 0; k < n; k++ {
		axpy(gs[k], rows[k], grad)   // grad += g·row, before the row moves
		axpy(gs[k], source, rows[k]) // row += g·source
	}
	axpy(1, grad, source)
}

// sgdUpdate8 is sgdUpdate's dim-8 fast path: the unrolled dot8 kernel
// from the online-inference path for the coefficient pass, with the
// gradient accumulation fused into the row update so each row crosses
// the cache exactly once. Per element it performs the generic path's
// operations on the same values in the same order, so the two paths are
// bit-identical — the parity tests pin that equivalence.
//
//grafics:hotpath
func sgdUpdate8(source []float64, table [][]float64, j rfgraph.NodeID, lr float64, ws *trainScratch) {
	src := (*[8]float64)(source)
	gs, rows := ws.gs, ws.rows
	target := table[j]
	gs[0] = -lr * (sigmoid(dot8(src, (*[8]float64)(target))) - 1)
	rows[0] = target
	n := 1
	for _, z := range ws.zbuf {
		if z == j {
			continue
		}
		row := table[z]
		gs[n] = -lr * sigmoid(dot8(src, (*[8]float64)(row)))
		rows[n] = row
		n++
	}
	var grad [8]float64
	for k := 0; k < n; k++ {
		g := gs[k]
		row := (*[8]float64)(rows[k])
		grad[0] += g * row[0]
		row[0] += g * src[0]
		grad[1] += g * row[1]
		row[1] += g * src[1]
		grad[2] += g * row[2]
		row[2] += g * src[2]
		grad[3] += g * row[3]
		row[3] += g * src[3]
		grad[4] += g * row[4]
		row[4] += g * src[4]
		grad[5] += g * row[5]
		row[5] += g * src[5]
		grad[6] += g * row[6]
		row[6] += g * src[6]
		grad[7] += g * row[7]
		row[7] += g * src[7]
	}
	src[0] += grad[0]
	src[1] += grad[1]
	src[2] += grad[2]
	src[3] += grad[3]
	src[4] += grad[4]
	src[5] += grad[5]
	src[6] += grad[6]
	src[7] += grad[7]
}

// trainConcat implements ModeLINEBoth: independent first- and second-order
// LINE runs whose ego embeddings are concatenated (contexts likewise, so
// online inference still works against the second-order half and zeros for
// the first-order half's context table).
func trainConcat(ctx context.Context, g *rfgraph.Graph, cfg Config) (*Embedding, error) {
	first := cfg
	first.Mode = ModeLINEFirst
	second := cfg
	second.Mode = ModeLINESecond
	second.Seed = cfg.Seed + 1
	e1, err := TrainCtx(ctx, g, first)
	if err != nil {
		return nil, err
	}
	e2, err := TrainCtx(ctx, g, second)
	if err != nil {
		return nil, err
	}
	out := &Embedding{Dim: 2 * cfg.Dim, Ego: make([][]float64, len(e1.Ego)), Ctx: make([][]float64, len(e1.Ctx))}
	for i := range e1.Ego {
		ego := make([]float64, 0, 2*cfg.Dim)
		ego = append(ego, e1.Ego[i]...)
		ego = append(ego, e2.Ego[i]...)
		out.Ego[i] = ego
		ctx := make([]float64, 0, 2*cfg.Dim)
		ctx = append(ctx, e1.Ctx[i]...)
		ctx = append(ctx, e2.Ctx[i]...)
		out.Ctx[i] = ctx
	}
	return out, nil
}

func dot(a, b []float64) float64 {
	b = b[:len(a)] // hoist the bounds check out of the loop
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}
