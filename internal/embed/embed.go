// Package embed implements the graph-embedding algorithms of the GRAFICS
// paper: LINE (first- and second-order proximity) and the paper's
// contribution E-LINE (§IV-B), which augments second-order LINE with the
// symmetric ego-given-context objective so that multi-hop local
// neighborhoods — not just shared one-hop neighbors — pull nodes together
// in the embedding space.
//
// # Training pipeline
//
// TrainCtx runs alias-sampled edge SGD with negative sampling
// (Pr(z) ∝ deg(z)^{3/4}). The sample stream is split into fixed-size
// chunks; chunk i draws every random decision (dropout coin flips, edge
// picks, negative picks) from its own sampling.Fast stream whose seed is
// a pure function of (Config.Seed, i), and one batch of negative draws
// serves every direction of a positive sample. Chunks run in index order
// on the calling goroutine, so a fit is a pure function of (graph,
// Config): bit-identical across runs, machines of the same architecture,
// and GOMAXPROCS. Parallelism lives one level up: fits of different
// buildings run side by side (portfolio.AddBuildings), each on its own
// goroutine. The written contract — what is reproducible and what CI
// pins — lives in docs/determinism.md.
//
// At the paper's dim 8, where the CPU has AVX2, E-LINE trains a chunk in
// two assembly calls: elineDraw draws the chunk's samples into a buffer
// and elineApply applies them. Elsewhere a Go loop draws and applies each
// sample with the unrolled Go kernel sgdUpdate8; both give the same bits.
// A fit whose values stop being finite returns ErrDiverged.
//
// The package also provides the paper's online-inference step (§V-A):
// embedding a new scan from its own edges while all other embeddings stay
// fixed (EmbedScan, and EmbedNewNode for a record kept in the graph),
// warm-started from the trained records that share its MACs (see
// NegativeSampler), and an Objective diagnostic for experiment harnesses.
package embed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

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

// Strategy is ignored: every fit runs the one sample schedule described
// in the package documentation. The type and its two constants remain
// only so that callers which still set Config.Strategy keep compiling.
type Strategy int

const (
	// StrategyParity is the zero value; ignored.
	StrategyParity Strategy = iota
	// StrategyFast is ignored.
	StrategyFast
)

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
	// Strategy is ignored; see the Strategy type.
	Strategy Strategy
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
	case !positiveFinite(c.LearningRate):
		return fmt.Errorf("embed: learning rate %v must be positive and finite", c.LearningRate)
	case c.NegativeSamples < 0:
		return fmt.Errorf("embed: negative samples %d must be non-negative", c.NegativeSamples)
	case c.SamplesPerEdge <= 0:
		return fmt.Errorf("embed: samples per edge %d must be positive", c.SamplesPerEdge)
	case !(c.Dropout >= 0 && c.Dropout < 1):
		return fmt.Errorf("embed: dropout %v outside [0,1)", c.Dropout)
	}
	switch c.Mode {
	case 0, ModeELINE, ModeLINESecond, ModeLINEFirst, ModeLINEBoth:
	default:
		return fmt.Errorf("embed: unknown mode %v", c.Mode)
	}
	return nil
}

// positiveFinite reports whether x is in (0, +Inf); NaN is not.
func positiveFinite(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

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
// The backing arrays are returned too, for the AVX2 training kernel. The
// RNG draw order matches per-row allocation, so fixed-seed results are
// unchanged by the layout.
func newEmbedding(n, dim int, rng *rand.Rand) (e *Embedding, egoBack, ctxBack []float64) {
	e = &Embedding{Dim: dim, Ego: make([][]float64, n), Ctx: make([][]float64, n)}
	egoBack = make([]float64, n*dim)
	ctxBack = make([]float64, n*dim)
	for i := 0; i < n; i++ {
		ego := egoBack[i*dim : (i+1)*dim : (i+1)*dim]
		for d := range ego {
			ego[d] = (rng.Float64() - 0.5) / float64(dim)
		}
		e.Ego[i] = ego
		e.Ctx[i] = ctxBack[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return e, egoBack, ctxBack
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

// ErrDiverged is returned when training diverges: an SGD step meets a NaN
// dot product, or a trained vector ends up holding ±Inf or NaN. Too large
// a LearningRate does this.
var ErrDiverged = errors.New("embed: training diverged to non-finite values")

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
// far below the SGD noise floor. x must not be NaN, whose index is out of
// range: training checks its dot products first. elineApply computes the
// same values four at a time, without a branch.
func sigmoid(x float64) float64 {
	if x >= sigmoidBound {
		return 1
	}
	if x <= -sigmoidBound {
		return 0
	}
	return sigmoidTable[int((x+sigmoidBound)*(sigmoidSize/(2*sigmoidBound))+0.5)]
}

// trainContext bundles the immutable sampling state of one training run.
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

// chunkSamples is the unit of determinism and cancellation: the SGD
// sample stream is cut into fixed chunks, and chunk i derives every
// random decision from its own RNG stream keyed by (Seed, i) and its
// learning rate from i alone. 1024 samples is a fraction of a
// millisecond of training, which bounds cancellation latency.
const chunkSamples = 1024

// maxSamples bounds a run's sample budget, so that the budget, the chunk
// count's rounding and every chunk boundary fit in an int.
const maxSamples = math.MaxInt - chunkSamples

// TrainCtx learns embeddings for every live node of g under cfg. It polls
// ctx at every chunk boundary (1024 samples), so a cancelled context — a
// server shutting down mid-refit — aborts training within a fraction of
// a millisecond instead of grinding through the remaining samples. A
// cancelled run returns ctx.Err() and no embedding, a diverged one
// ErrDiverged and no embedding, and a sample budget (SamplesPerEdge times
// the directed edges) too large for an int an error and no embedding.
// When ctx is never cancelled the sample stream is untouched, so results
// are a pure function of (g, cfg).
func TrainCtx(ctx context.Context, g *rfgraph.Graph, cfg Config) (*Embedding, error) {
	return train(ctx, g, cfg, true)
}

// train is TrainCtx with the kernel choice explicit: kernel lets dim-8
// E-LINE chunks take elineDraw and elineApply where the CPU has AVX2,
// and false forces the Go loop.
func train(ctx context.Context, g *rfgraph.Graph, cfg Config, kernel bool) (*Embedding, error) {
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
	if cfg.SamplesPerEdge > maxSamples/len(tc.edges) {
		return nil, fmt.Errorf("embed: %d samples per edge over %d directed edges is more samples than an int counts", cfg.SamplesPerEdge, len(tc.edges))
	}
	seeder := sampling.NewSeeder(cfg.Seed)
	emb, ego, ctxs := newEmbedding(g.NumNodes(), cfg.Dim, seeder.NextRand())
	t := &trainer{
		tc:        tc,
		emb:       emb,
		ego:       ego,
		ctx:       ctxs,
		cfg:       cfg,
		mode:      cfg.mode(),
		total:     cfg.SamplesPerEdge * len(tc.edges),
		chunkBase: seeder.Next(),
	}
	if kernel && usesKernel(cfg) {
		t.draws = newDrawTables(tc, cfg)
	}
	t.chunks = (t.total + chunkSamples - 1) / chunkSamples
	if err := t.run(ctx); err != nil {
		return nil, err
	}
	return emb, nil
}

// usesKernel reports whether TrainCtx runs cfg's chunks with elineDraw
// and elineApply: E-LINE at dim 8 on a CPU with AVX2, whatever the
// negatives and dropout.
func usesKernel(cfg Config) bool {
	return hasAVX2 && cfg.Dim == 8 && cfg.mode() == ModeELINE
}

// trainer bundles the state of one training run; the embedding matrix
// is its only mutable part.
type trainer struct {
	tc        *trainContext
	emb       *Embedding
	ego, ctx  []float64 // emb's rows as flat row-major tables
	cfg       Config
	mode      Mode
	draws     *drawTables // non-nil: chunks take elineDraw and elineApply
	total     int         // SGD samples across all chunks
	chunks    int         // ceil(total / chunkSamples)
	chunkBase int64       // seed root for per-chunk RNG streams
}

// drawTables is what elineDraw reads of a run's sampling state: the
// edges and the negative nodes, each with the columns of the alias table
// that picks among them, and the draw's two hyperparameters. The
// assembly reads its fields at the offsets go_asm.h names.
type drawTables struct {
	edges      []rfgraph.DirectedEdge
	edgeThresh []uint64
	edgeAlias  []int32
	negNodes   []rfgraph.NodeID
	negThresh  []uint64
	negAlias   []int32
	negatives  int
	dropout    float64 // 0 when Config.Dropout is not positive: no coin is drawn
}

func newDrawTables(tc *trainContext, cfg Config) *drawTables {
	d := &drawTables{edges: tc.edges, negNodes: tc.negNodes, negatives: cfg.NegativeSamples}
	d.edgeThresh, d.edgeAlias = tc.edgeDist.Tables()
	d.negThresh, d.negAlias = tc.negDist.Tables()
	if cfg.Dropout > 0 {
		d.dropout = cfg.Dropout
	}
	return d
}

// run executes chunks 0..chunks-1 in order on the calling goroutine —
// the serial schedule the parity tests pin — until ctx is done or a
// sample diverges. A run that completes is checked for values that are
// not finite, which a dot product need not have met.
func (t *trainer) run(ctx context.Context) error {
	ws := newTrainScratch(t.cfg, t.draws != nil)
	for c := 0; c < t.chunks && ctx.Err() == nil; c++ {
		if !t.runChunk(c, ws) {
			return ErrDiverged
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if !allFinite(t.ego) || !allFinite(t.ctx) {
		return ErrDiverged
	}
	return nil
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// lrAt returns the learning rate for chunk c: linear decay by stream
// position, floored at LearningRate/10⁴ as in the original LINE. Decaying
// by chunk start index (instead of the old shared progress counter) makes
// the schedule a pure function of the chunk index.
func (t *trainer) lrAt(c int) float64 {
	lr := t.cfg.LearningRate * (1 - float64(c*chunkSamples)/float64(t.total))
	if min := t.cfg.LearningRate * 1e-4; lr < min {
		return min
	}
	return lr
}

// trainScratch is a run's scratch state: an RNG reseeded for each chunk
// plus the buffers the update kernels stage into, allocated once per run
// so the hot loop allocates nothing.
type trainScratch struct {
	rng     sampling.Fast
	zbuf    []rfgraph.NodeID // negative draws, shared by both E-LINE directions
	gs      []float64        // per-row step coefficients, both directions' for elineApply
	rows    [][]float64      // table rows touched by the current update
	grad    []float64        // source-gradient accumulator (generic dims)
	samples []rfgraph.NodeID // a chunk's kept samples from elineDraw, when kernel
}

// newTrainScratch sizes a run's scratch; kernel adds the chunk buffer
// elineDraw fills, (NegativeSamples+2)·chunkSamples ids.
func newTrainScratch(cfg Config, kernel bool) *trainScratch {
	ws := &trainScratch{
		zbuf: make([]rfgraph.NodeID, cfg.NegativeSamples),
		gs:   make([]float64, 4*((cfg.NegativeSamples+2)/2)),
		rows: make([][]float64, cfg.NegativeSamples+1),
		grad: make([]float64, cfg.Dim),
	}
	if kernel {
		ws.samples = make([]rfgraph.NodeID, (cfg.NegativeSamples+2)*chunkSamples)
	}
	return ws
}

// runChunk draws and applies chunk c's slice of the sample stream. Every
// random decision — dropout coin flips, edge picks, negative picks —
// comes from a Fast RNG seeded by (chunkBase, c). One batch of negatives
// serves every direction of a positive sample (common random numbers):
// half the alias draws of the old per-direction scheme, statistically
// equivalent for negative-sampling SGD. It reports false, leaving the
// chunk unfinished, when a sample meets a NaN dot product.
//
//grafics:hotpath
func (t *trainer) runChunk(c int, ws *trainScratch) bool {
	seed := sampling.SeedAt(t.chunkBase, c)
	n := min(chunkSamples, t.total-c*chunkSamples)
	lr := t.lrAt(c)
	if t.draws != nil {
		return t.runChunkKernel(seed, n, lr, ws)
	}
	ws.rng.Reseed(seed)
	rng := &ws.rng
	for s := 0; s < n; s++ {
		if t.cfg.Dropout > 0 && rng.Float64() < t.cfg.Dropout {
			continue
		}
		e := t.tc.edges[t.tc.edgeDist.DrawFast(rng)]
		i, j := e.Src, e.Dst
		for k := range ws.zbuf {
			ws.zbuf[k] = t.tc.negNodes[t.tc.negDist.DrawFast(rng)]
		}
		var ok bool
		switch t.mode {
		case ModeLINEFirst:
			ok = sgdUpdate(t.emb.Ego[i], t.emb.Ego, j, lr, ws)
		case ModeLINESecond:
			ok = sgdUpdate(t.emb.Ego[i], t.emb.Ctx, j, lr, ws)
		default: // ModeELINE: O1 + O2
			ok = t.elineGo(i, j, lr, ws)
		}
		if !ok {
			return false
		}
	}
	return true
}

// runChunkKernel is runChunk's E-LINE chunk on AVX2: elineDraw draws the
// chunk's n samples from the stream seed into ws.samples, exactly as the
// Go loop draws them, and applySamples applies the kept ones.
//
//grafics:hotpath
func (t *trainer) runChunkKernel(seed int64, n int, lr float64, ws *trainScratch) bool {
	buf := ws.samples[:n*(t.cfg.NegativeSamples+2)]
	return t.applySamples(buf[:elineDraw(t.draws, seed, n, buf)], lr, ws)
}

// applySamples applies samples laid out as elineDraw writes them, in
// order, with elineApply. A sample it declines is applied here with the
// Go kernels, and elineApply resumes after it.
//
//grafics:hotpath
func (t *trainer) applySamples(buf []rfgraph.NodeID, lr float64, ws *trainScratch) bool {
	stride := t.cfg.NegativeSamples + 2
	for {
		buf = buf[elineApply(t.ego, t.ctx, buf, stride, -lr, ws.gs)*stride:]
		if len(buf) == 0 {
			return true
		}
		copy(ws.zbuf, buf[2:stride])
		if !t.elineGo(buf[0], buf[1], lr, ws) {
			return false
		}
		buf = buf[stride:]
	}
}

// elineGo applies one E-LINE sample, i and j with the negatives in
// ws.zbuf, with the Go kernels: the second-order update of ego_i against
// the context table, then the symmetric one of ctx_i against the ego
// table.
//
//grafics:hotpath
func (t *trainer) elineGo(i, j rfgraph.NodeID, lr float64, ws *trainScratch) bool {
	return sgdUpdate(t.emb.Ego[i], t.emb.Ctx, j, lr, ws) && sgdUpdate(t.emb.Ctx[i], t.emb.Ego, j, lr, ws)
}

// sgdUpdate performs one negative-sampled update of the skip-gram style
// objective log σ(table[j]·source) + Σ_z log σ(-table[z]·source), updating
// both the source vector and the touched table rows. It implements both
// halves of E-LINE: with source = ego_i and table = Ctx it is the classic
// second-order update (Eq. 5); with source = ctx_i and table = Ego it is
// the symmetric term (Eq. 8). Dim-8 runs — the paper's configuration —
// take the fused unrolled kernel. It reports false, having moved nothing,
// when a dot product is NaN: the fit has diverged.
//
//grafics:hotpath
func sgdUpdate(source []float64, table [][]float64, j rfgraph.NodeID, lr float64, ws *trainScratch) bool {
	if len(source) == 8 {
		return sgdUpdate8(source, table, j, lr, ws)
	}
	// Coefficient pass against the unchanged source, then apply — the
	// same gs/rows staging as frozenUpdate in incremental.go, so both
	// training paths share one floating-point shape.
	gs, rows := ws.gs, ws.rows
	target := table[j]
	x := dotU(source, target)
	if math.IsNaN(x) {
		return false
	}
	gs[0] = -lr * (sigmoid(x) - 1)
	rows[0] = target
	n := 1
	for _, z := range ws.zbuf {
		if z == j {
			continue
		}
		row := table[z]
		x := dotU(source, row)
		if math.IsNaN(x) {
			return false
		}
		gs[n] = -lr * sigmoid(x)
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
	return true
}

// sgdUpdate8 is sgdUpdate's dim-8 fast path: the unrolled dot8 kernel
// from the online-inference path for the coefficient pass, with the
// gradient accumulation fused into the row update so each row crosses
// the cache exactly once. Per element it performs the generic path's
// operations on the same values in the same order, so the two paths are
// bit-identical — the parity tests pin that equivalence.
//
//grafics:hotpath
func sgdUpdate8(source []float64, table [][]float64, j rfgraph.NodeID, lr float64, ws *trainScratch) bool {
	src := (*[8]float64)(source)
	gs, rows := ws.gs, ws.rows
	target := table[j]
	x := dot8(src, (*[8]float64)(target))
	if math.IsNaN(x) {
		return false
	}
	gs[0] = -lr * (sigmoid(x) - 1)
	rows[0] = target
	n := 1
	for _, z := range ws.zbuf {
		if z == j {
			continue
		}
		row := table[z]
		x := dot8(src, (*[8]float64)(row))
		if math.IsNaN(x) {
			return false
		}
		gs[n] = -lr * sigmoid(x)
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
	return true
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
