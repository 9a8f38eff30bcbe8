package embed

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/rfgraph"
	"repro/internal/sampling"
)

// IncrementalConfig controls online embedding of newly inserted nodes
// (§V-A of the paper): SGD on the node's own E-LINE objective against
// frozen ego and context tables.
type IncrementalConfig struct {
	// Rounds is how many passes of SGD samples are made over the new
	// node's incident edges; it is the whole budget, with no early stop.
	Rounds int
	// LearningRate is the (constant) SGD step size.
	LearningRate float64
	// NegativeSamples is K for the negative-sampling term.
	NegativeSamples int
	// Seed roots the randomness.
	Seed int64
}

// DefaultIncrementalConfig returns settings tuned for single-node online
// updates. The ego vector starts at the weighted mean of the trained
// records that share the node's MACs (see NegativeSampler), already close
// to where SGD settles, so 20 rounds are enough. There is no early stop:
// constant-step SGD keeps moving at its noise floor, so a movement
// threshold rarely fires — a 1% threshold let 91–94% of classifies run a
// 100-round budget in full.
func DefaultIncrementalConfig() IncrementalConfig {
	return IncrementalConfig{Rounds: 20, LearningRate: 0.025, NegativeSamples: 5, Seed: 1}
}

// Validate reports the first invalid field.
func (c *IncrementalConfig) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("embed: incremental rounds %d must be positive", c.Rounds)
	case c.LearningRate <= 0:
		return fmt.Errorf("embed: incremental learning rate %v must be positive", c.LearningRate)
	case c.NegativeSamples < 0:
		return fmt.Errorf("embed: incremental negative samples %d must be non-negative", c.NegativeSamples)
	}
	return nil
}

// NegativeSampler is the frozen per-snapshot state that online inference
// shares across requests. It holds two things built from one graph view
// and embedding:
//
//   - the negative-sampling distribution over the live trained nodes,
//     ∝ weightedDegree^{3/4}, drawn in O(1);
//   - the warm-start table: for every trained MAC node m, the weighted
//     sum A_m = Σ_r w_mr·ego_r over its trained record neighbours r and
//     the weight total W_m = Σ_r w_mr.
//
// Building it is O(edges × dim). It is immutable after construction and
// safe for concurrent use, so a trained System builds it once per graph
// snapshot — and rebuilds it after every mutation — and shares it across
// all concurrent online inferences. The two parts are published, refreshed
// and go stale together.
type NegativeSampler struct {
	nodes []rfgraph.NodeID
	dist  *sampling.Alias

	// warm is the warm-start table, one row of Dim+1 values per trained
	// node slot: A_m in the first Dim, W_m last. Rows of record nodes,
	// dead MACs and MACs no trained record heard stay zero.
	warm []float64
}

// NewNegativeSampler builds the deg^{3/4} node distribution and the
// warm-start table for view. Only nodes with a trained row in emb (index
// < len(emb.Ego)) are included — untrained vectors are meaningless as
// negatives and as start points.
func NewNegativeSampler(view rfgraph.View, emb *Embedding) (*NegativeSampler, error) {
	trained := len(emb.Ego)
	if n := view.NumNodes(); n < trained {
		trained = n
	}
	var nodes []rfgraph.NodeID
	var weights []float64
	stride := emb.Dim + 1
	warm := make([]float64, trained*stride)
	for n := 0; n < trained; n++ {
		nid := rfgraph.NodeID(n)
		if !view.Alive(nid) || view.Degree(nid) == 0 {
			continue
		}
		nodes = append(nodes, nid)
		weights = append(weights, math.Pow(view.WeightedDegree(nid), 0.75))
		if view.Kind(nid) != rfgraph.KindMAC {
			continue
		}
		row := warm[n*stride : (n+1)*stride]
		for _, he := range view.Neighbors(nid) {
			if int(he.To) >= trained {
				continue // a record with no trained row, e.g. an overlay's scan
			}
			axpy(he.Weight, emb.Ego[he.To], row[:emb.Dim])
			row[emb.Dim] += he.Weight
		}
	}
	dist, err := sampling.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("embed: incremental negative alias: %w", err)
	}
	return &NegativeSampler{nodes: nodes, dist: dist, warm: warm}, nil
}

// warmStart writes into dst, of the embedding dimension, the weighted
// mean of the trained ego vectors two hops from a node whose incident
// edges are edges,
//
//	Σ_m w_sm·A_m / Σ_m w_sm·W_m,
//
// and reports whether any trained record was in reach. MACs newer than
// the table (ids past its last row) are skipped, never indexed. On false
// dst holds zeros and the caller falls back to a random start.
//
//grafics:hotpath
func (n *NegativeSampler) warmStart(dst []float64, edges []rfgraph.Halfedge) bool {
	for d := range dst {
		dst[d] = 0
	}
	dim := len(dst)
	rows := len(n.warm) / (dim + 1)
	var total float64
	for _, he := range edges {
		m := int(he.To)
		if m >= rows {
			continue
		}
		row := n.warm[m*(dim+1) : (m+1)*(dim+1)]
		axpy(he.Weight, row[:dim], dst)
		total += he.Weight * row[dim]
	}
	if total == 0 {
		return false
	}
	for d := range dst {
		dst[d] /= total
	}
	return true
}

// Workspace holds the reusable buffers of one detached embedding: the
// learned vectors, SGD scratch, the per-scan incident-edge alias table,
// and the negative-draw buffer. Reusing a Workspace across requests
// removes every per-call allocation of the online-inference hot path. A
// Workspace is not safe for concurrent use; callers pool them (sync.Pool)
// and hand each request its own. The zero value is ready to use.
type Workspace struct {
	ego  []float64
	ctxv []float64
	w    []float64
	gs   []float64
	rows [][]float64
	zbuf []rfgraph.NodeID
	edge sampling.AliasBuilder
}

// Release drops the model references the workspace holds — the row
// pointers the last request cached into rows — so a pooled workspace
// cannot pin a retired model's embedding tables in memory after a
// lifecycle hot swap. The numeric buffers are kept for reuse.
//
//grafics:hotpath
func (ws *Workspace) Release() {
	for i := range ws.rows {
		ws.rows[i] = nil
	}
}

// EmbedDetachedEgo is EmbedDetached without the O2 (context-of-id)
// direction. With frozen tables and negatives drawn once per sample, the
// two directions are independent, so the returned ego vector is
// bit-identical to EmbedDetached's at about half the cost. Use it when
// the caller only classifies (Predict) and never retains the node.
func EmbedDetachedEgo(view rfgraph.View, emb *Embedding, id rfgraph.NodeID, cfg IncrementalConfig, neg *NegativeSampler) ([]float64, error) {
	ego, _, err := embedDetached(view, emb, id, cfg, neg, false, nil)
	return ego, err
}

// EmbedDetachedEgoInto is EmbedDetachedEgo computing into ws's buffers:
// the returned ego vector is owned by ws and valid only until its next
// use, and the call allocates nothing once ws has warmed up. The result
// is bit-identical to EmbedDetachedEgo.
//
//grafics:hotpath
func EmbedDetachedEgoInto(ws *Workspace, view rfgraph.View, emb *Embedding, id rfgraph.NodeID, cfg IncrementalConfig, neg *NegativeSampler) ([]float64, error) {
	if ws == nil {
		ws = &Workspace{} // grafics:allocok nil-workspace fallback, not the pooled path
	}
	ego, _, err := embedDetached(view, emb, id, cfg, neg, false, ws)
	return ego, err
}

// EmbedDetached learns ego and context vectors for node id of view —
// typically a virtual scan node of an rfgraph.Overlay — while treating
// emb as strictly read-only, by minimizing the E-LINE objective
// restricted to id's incident edges. Nothing is written to emb or view,
// so any number of EmbedDetached calls may run concurrently against the
// same frozen model under a shared read lock. Neighbor nodes with no
// trained row in emb (brand-new MACs) contribute nothing and are skipped;
// per the paper, a record whose MACs are all new should be treated as
// out-of-building by the caller.
//
// neg supplies the shared negative-sampling distribution and warm-start
// table; pass nil to have one built from view on the fly. A non-nil neg
// must have been built over the frozen graph snapshot that view overlays,
// or over an earlier state of the same graph: nodes added since are never
// drawn as negatives, and MACs added since contribute nothing to the
// start vector.
func EmbedDetached(view rfgraph.View, emb *Embedding, id rfgraph.NodeID, cfg IncrementalConfig, neg *NegativeSampler) (ego, ctx []float64, err error) {
	return embedDetached(view, emb, id, cfg, neg, true, nil)
}

//grafics:hotpath
func embedDetached(view rfgraph.View, emb *Embedding, id rfgraph.NodeID, cfg IncrementalConfig, neg *NegativeSampler, wantCtx bool, ws *Workspace) (ego, ctx []float64, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if !view.Alive(id) {
		return nil, nil, fmt.Errorf("%w: node %d", rfgraph.ErrUnknownNode, id)
	}
	neighbors := view.Neighbors(id)
	if len(neighbors) == 0 {
		return nil, nil, fmt.Errorf("embed: node %d has no edges to embed against", id)
	}
	if ws == nil {
		// One-shot callers get a private workspace; its buffers become the
		// returned vectors, so nothing is shared or overwritten later.
		ws = &Workspace{} // grafics:allocok one-shot callers, not the pooled path
	}
	if neg == nil {
		neg, err = NewNegativeSampler(view, emb)
		if err != nil {
			return nil, nil, err
		}
	}
	seeder := sampling.NewSeeder(cfg.Seed)
	initSeed := seeder.Next()

	// Fresh vectors: online inference must not depend on whatever happened
	// to be in the node's slot before. The ego vector starts at the
	// weighted mean of the trained records that share the node's MACs —
	// the inductive start GraphSAGE-style embedders use — so the SGD below
	// refines a good guess instead of walking in from a random point. Only
	// a node none of whose MACs reaches a trained record starts at random.
	// The context vector starts at zero, as in training.
	ws.ego = resizeVec(ws.ego, emb.Dim)
	ego = ws.ego
	if !neg.warmStart(ego, neighbors) {
		randomVectorInto(ego, sampling.NewFast(initSeed))
	}
	fast := sampling.NewFast(seeder.Next())
	ws.ctxv = resizeVec(ws.ctxv, emb.Dim)
	ctx = ws.ctxv
	for d := range ctx {
		ctx[d] = 0
	}

	// Edge distribution over the node's incident edges, ∝ weight.
	ws.w = resizeVec(ws.w, len(neighbors))
	w := ws.w
	for i, he := range neighbors {
		w[i] = he.Weight
	}
	edgeDist, err := ws.edge.Rebuild(w)
	if err != nil {
		return nil, nil, fmt.Errorf("embed: incident edge alias: %w", err)
	}

	row := func(table [][]float64, j rfgraph.NodeID) []float64 {
		if int(j) < 0 || int(j) >= len(table) {
			return nil
		}
		return table[j]
	}
	ws.gs = resizeVec(ws.gs, cfg.NegativeSamples+1)
	if cap(ws.rows) < cfg.NegativeSamples+1 {
		ws.rows = make([][]float64, cfg.NegativeSamples+1)
	}
	gs, rows := ws.gs, ws.rows[:cfg.NegativeSamples+1]
	if cap(ws.zbuf) < cfg.NegativeSamples {
		ws.zbuf = make([]rfgraph.NodeID, cfg.NegativeSamples)
	}
	zbuf := ws.zbuf[:cfg.NegativeSamples]
	for r := 0; r < cfg.Rounds; r++ {
		for s := 0; s < len(neighbors); s++ {
			j := neighbors[edgeDist.DrawFast(fast)].To
			// One set of negative draws serves both directions (common
			// random numbers): the two source vectors are independent, so
			// sharing negatives halves the sampling cost without coupling
			// their gradients.
			for k := range zbuf {
				zbuf[k] = neg.nodes[neg.dist.DrawFast(fast)]
			}
			// O1 direction: context of j given ego of id.
			frozenUpdate(ego, row(emb.Ctx, j), emb.Ctx, j, id, zbuf, cfg.LearningRate, gs, rows)
			// O2 direction: ego of j given context of id. Skipped for
			// classify-only callers; it cannot affect ego.
			if wantCtx {
				frozenUpdate(ctx, row(emb.Ego, j), emb.Ego, j, id, zbuf, cfg.LearningRate, gs, rows)
			}
		}
	}
	return ego, ctx, nil
}

// EmbedNewNode learns ego and context embeddings for node id — typically a
// record just inserted into g — while every other embedding stays fixed,
// and stores them into emb, growing it to cover id if needed. This is the
// mutating sibling of EmbedDetached for graph-growing paths (Absorb);
// callers must hold the write lock protecting emb and g. neg is as for
// EmbedDetached: an absorb passes the sampler of the graph before the
// insert, so the node embeds exactly as a read-only classify of the same
// scan would, and nil builds one over g.
func EmbedNewNode(g rfgraph.View, emb *Embedding, id rfgraph.NodeID, cfg IncrementalConfig, neg *NegativeSampler) error {
	ego, ctx, err := EmbedDetached(g, emb, id, cfg, neg)
	if err != nil {
		return err
	}
	seeder := sampling.NewSeeder(cfg.Seed)
	emb.Grow(g.NumNodes(), seeder.NextRand())
	emb.Ego[id] = ego
	emb.Ctx[id] = ctx
	return nil
}

// frozenUpdate is updatePair with the table rows frozen: only source (a
// vector belonging to the new node) receives gradient. target is the
// positive row table[j] (nil when j has no trained row, in which case the
// positive term vanishes). zs holds the pre-drawn negative nodes; draws
// matching the positive node j or the embedded node id itself are
// skipped. All gradient coefficients are computed against the unchanged
// source first (gs/rows are caller scratch of size len(zs)+1), then
// applied directly — equivalent to accumulating into a grad buffer but
// two fewer passes over the vectors per sample.
//
//grafics:hotpath
func frozenUpdate(source, target []float64, table [][]float64, j, id rfgraph.NodeID, zs []rfgraph.NodeID, lr float64, gs []float64, rows [][]float64) {
	if len(source) == 8 {
		frozenUpdate8(source, target, table, j, id, zs, lr, gs, rows)
		return
	}
	n := 0
	if target != nil {
		gs[n] = -lr * (sigmoid(dotU(source, target)) - 1)
		rows[n] = target
		n++
	}
	for _, z := range zs {
		if z == j || z == id {
			continue
		}
		negRow := table[z]
		gs[n] = -lr * sigmoid(dotU(source, negRow))
		rows[n] = negRow
		n++
	}
	for k := 0; k < n; k++ {
		axpy(gs[k], rows[k], source)
	}
}

// frozenUpdate8 is frozenUpdate for the paper's embedding dimension. Its
// kernels (dot8/axpy8) are small enough for the compiler to inline, which
// removes a dozen function calls per SGD sample — measurable when a
// single classification takes thousands of samples.
//
//grafics:hotpath
func frozenUpdate8(source, target []float64, table [][]float64, j, id rfgraph.NodeID, zs []rfgraph.NodeID, lr float64, gs []float64, rows [][]float64) {
	src := (*[8]float64)(source)
	n := 0
	if len(target) >= 8 {
		gs[n] = -lr * (sigmoid(dot8(src, (*[8]float64)(target))) - 1)
		rows[n] = target
		n++
	}
	for _, z := range zs {
		if z == j || z == id {
			continue
		}
		negRow := table[z]
		if len(negRow) < 8 {
			continue
		}
		gs[n] = -lr * sigmoid(dot8(src, (*[8]float64)(negRow)))
		rows[n] = negRow
		n++
	}
	for k := 0; k < n; k++ {
		axpy8(gs[k], (*[8]float64)(rows[k]), src)
	}
}

// dot8 is the eight-wide dot product over array pointers: no bounds
// checks, and small enough that the compiler inlines it into the sample
// loop.
//
//grafics:hotpath
func dot8(a, b *[8]float64) float64 {
	return ((a[0]*b[0] + a[1]*b[1]) + (a[2]*b[2] + a[3]*b[3])) +
		((a[4]*b[4] + a[5]*b[5]) + (a[6]*b[6] + a[7]*b[7]))
}

// axpy8 is the eight-wide dst += g*row over array pointers, inlinable
// like dot8.
//
//grafics:hotpath
func axpy8(g float64, row, dst *[8]float64) {
	dst[0] += g * row[0]
	dst[1] += g * row[1]
	dst[2] += g * row[2]
	dst[3] += g * row[3]
	dst[4] += g * row[4]
	dst[5] += g * row[5]
	dst[6] += g * row[6]
	dst[7] += g * row[7]
}

// dotU is dot with a fully unrolled fast path for the paper's embedding
// dimension (8) and a four-accumulator tree reduction otherwise; both
// break the serial add dependency chain of the naive loop, roughly
// halving the per-sample dot cost. The reassociation changes
// floating-point summation order, so results differ from dot in the last
// bits — irrelevant under SGD noise, and every inference path shares
// this kernel so they stay mutually bit-identical.
//
//grafics:hotpath
func dotU(a, b []float64) float64 {
	if len(a) == 8 && len(b) >= 8 {
		b = b[:8]
		return ((a[0]*b[0] + a[1]*b[1]) + (a[2]*b[2] + a[3]*b[3])) +
			((a[4]*b[4] + a[5]*b[5]) + (a[6]*b[6] + a[7]*b[7]))
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// axpy computes dst += g*row, unrolled to match dotU.
//
//grafics:hotpath
func axpy(g float64, row, dst []float64) {
	if len(dst) == 8 && len(row) >= 8 {
		row = row[:8]
		dst = dst[:8]
		dst[0] += g * row[0]
		dst[1] += g * row[1]
		dst[2] += g * row[2]
		dst[3] += g * row[3]
		dst[4] += g * row[4]
		dst[5] += g * row[5]
		dst[6] += g * row[6]
		dst[7] += g * row[7]
		return
	}
	row = row[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] += g * row[i]
		dst[i+1] += g * row[i+1]
		dst[i+2] += g * row[i+2]
		dst[i+3] += g * row[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] += g * row[i]
	}
}

// resizeVec returns v with length n, reusing the backing array when it is
// large enough. Contents are unspecified; callers overwrite.
//
//grafics:hotpath
func resizeVec(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// randomVectorInto fills v like randomVector but from the allocation-free
// Fast RNG the rest of the inference hot path uses, sparing the ~5 KB
// math/rand source that dominated per-request allocations.
//
//grafics:hotpath
func randomVectorInto(v []float64, rng *sampling.Fast) {
	for d := range v {
		v[d] = (rng.Float64() - 0.5) / float64(len(v))
	}
}

// Objective evaluates the negative-sampling loss L_G of Eq. 10 over all
// edges with a fixed number of Monte-Carlo negatives per edge. It is meant
// for tests and diagnostics (training never materializes the full loss).
func Objective(g *rfgraph.Graph, emb *Embedding, mode Mode, negatives int, seed int64) (float64, error) {
	tc, err := buildTrainContext(g)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	var loss float64
	safeLog := func(x float64) float64 {
		if x < 1e-12 {
			x = 1e-12
		}
		return math.Log(x)
	}
	for _, e := range tc.edges {
		i, j := e.Src, e.Dst
		var pos float64
		switch mode {
		case ModeLINEFirst:
			pos = safeLog(sigmoid(dot(emb.Ego[i], emb.Ego[j])))
		case ModeLINESecond:
			pos = safeLog(sigmoid(dot(emb.Ego[i], emb.Ctx[j])))
		default:
			pos = safeLog(sigmoid(dot(emb.Ego[i], emb.Ctx[j]))) + safeLog(sigmoid(dot(emb.Ctx[i], emb.Ego[j])))
		}
		neg := 0.0
		for k := 0; k < negatives; k++ {
			z := tc.negNodes[tc.negDist.Draw(rng)]
			switch mode {
			case ModeLINEFirst:
				neg += safeLog(sigmoid(-dot(emb.Ego[i], emb.Ego[z])))
			case ModeLINESecond:
				neg += safeLog(sigmoid(-dot(emb.Ego[i], emb.Ctx[z])))
			default:
				neg += safeLog(sigmoid(-dot(emb.Ego[i], emb.Ctx[z]))) + safeLog(sigmoid(-dot(emb.Ctx[i], emb.Ego[z])))
			}
		}
		loss -= e.Weight * (pos + neg)
	}
	return loss, nil
}
