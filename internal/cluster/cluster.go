// Package cluster implements GRAFICS' proximity-based hierarchical
// clustering (§IV-C): agglomerative average-linkage clustering over node
// embeddings under the constraint that a cluster may contain at most one
// floor-labeled sample. Merging stops when every cluster holds exactly one
// labeled sample; each cluster's label then classifies its members, and new
// samples are classified by the nearest cluster centroid (§V-B).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/par"
)

// Unlabeled marks an item without a floor label.
const Unlabeled = -1

// Item is one sample to cluster: an embedding vector, an opaque index
// (typically the graph NodeID or the position in the training set), and a
// label (floor number, or Unlabeled).
type Item struct {
	Index int
	Vec   []float64
	Label int
}

// Errors returned by TrainCtx.
var (
	ErrNoItems     = errors.New("cluster: no items to cluster")
	ErrNoLabels    = errors.New("cluster: no labeled items; clustering needs at least one label")
	ErrDimMismatch = errors.New("cluster: items have differing vector dimensions")
)

// Merge records one agglomeration step for the Fig. 8 progression: the two
// cluster roots merged and the linkage distance at which it happened.
type Merge struct {
	A, B     int
	Distance float64
}

// Cluster is one final cluster: its floor label, centroid in embedding
// space, and member item indices.
type Cluster struct {
	Label    int
	Centroid []float64
	Members  []int
}

// Model is the trained classifier.
type Model struct {
	Clusters []Cluster
	// Trace is the full merge sequence, usable to reconstruct the
	// clustering at any intermediate point (Fig. 8).
	Trace []Merge

	// NumItems is the number of items TrainCtx clustered (retained so the
	// model can be serialized and traces replayed).
	NumItems int
}

// condIdx maps an unordered active-root pair (i < j) to its slot in the
// condensed upper-triangular distance store: row i holds the n-1-i entries
// (i,i+1)..(i,n-1), rows packed back to back.
func condIdx(i, j, n int) int {
	return i*(n-1) - i*(i-1)/2 + (j - i - 1)
}

// TrainCtx builds the proximity-based hierarchical clustering of items,
// aborting promptly (with ctx.Err()) once ctx is cancelled — the hook that
// lets a shutting-down server kill an in-flight background refit.
//
// Average linkage is maintained exactly via the Lance–Williams recurrence,
// which for group-average linkage is
//
//	d(k, i∪j) = (|i| d(k,i) + |j| d(k,j)) / (|i| + |j|),
//
// matching the paper's cluster distance (Eq. 11): the mean pairwise
// Euclidean distance between members.
//
// The implementation is the memory-lean replacement for the flat-matrix +
// lazy-heap agglomeration kept as TrainReference: distances live in a
// condensed upper-triangular store (n(n-1)/2 float64, ~4n² bytes — the
// reference needs the full n² matrix plus an O(n²)-entry heap, ~20n²
// bytes), the initial pairwise distances are computed in parallel across
// cores, and the global-minimum merge search runs over per-row
// nearest-neighbor bounds instead of a heap. The bounds are maintained
// lazily: a Lance–Williams update that lowers a pair's distance tightens
// the owning row's bound immediately, while updates that raise it leave a
// stale (too low) bound that is detected and recomputed when the row wins
// the global scan. Forbidden pairs — two labeled clusters, which the paper
// never merges — are excluded from every bound; since labels only spread
// (a cluster that gains a label never loses it), a pair once forbidden
// stays forbidden, so the bound invariant survives constraint changes that
// would break naive nearest-neighbor-chain reducibility.
//
// The result is bit-identical to TrainReference whenever the running
// minimum is unique at every step (true with probability 1 for embeddings
// in general position; the parity tests assert it on randomized inputs).
// Ties are resolved deterministically but by a different rule than the
// reference's heap order: the merge taken is the one whose condensed row
// — scanned in ascending root order — first attains the minimum bound,
// with the row's partner being the earliest discovered among its tied
// candidates.
func TrainCtx(ctx context.Context, items []Item) (*Model, error) {
	n := len(items)
	if n == 0 {
		return nil, ErrNoItems
	}
	dim := len(items[0].Vec)
	labeled := 0
	for i := range items {
		if len(items[i].Vec) != dim {
			return nil, fmt.Errorf("%w: item %d has dim %d, want %d", ErrDimMismatch, i, len(items[i].Vec), dim)
		}
		if items[i].Label != Unlabeled {
			labeled++
		}
	}
	if labeled == 0 {
		return nil, ErrNoLabels
	}

	// Active cluster state. Clusters are identified by their root index.
	active := make([]bool, n)
	size := make([]int, n)
	hasLabel := make([]bool, n)
	label := make([]int, n)
	members := make([][]int, n)
	// lastMerge records the (1-based) step at which a root last survived a
	// merge; 0 means never. It reproduces the reference implementation's
	// Trace orientation: the A side of a merge is the more recently merged
	// root (whose heap push created the winning pair there), or the lower
	// index when both are untouched singletons.
	lastMerge := make([]int, n)
	for i := range items {
		active[i] = true
		size[i] = 1
		hasLabel[i] = items[i].Label != Unlabeled
		label[i] = items[i].Label
		members[i] = []int{i}
	}

	// Condensed pairwise distances, rows computed in parallel. Each slot is
	// written by exactly one row worker, so the values are bit-identical to
	// a sequential fill regardless of core count.
	dist := make([]float64, n*(n-1)/2)
	if err := par.ForEachCtx(ctx, n, func(i int) {
		vi := items[i].Vec
		base := condIdx(i, i+1, n)
		for j := i + 1; j < n; j++ {
			dist[base+j-i-1] = linalg.Distance(vi, items[j].Vec)
		}
	}); err != nil {
		return nil, err
	}

	// Per-row nearest-neighbor bounds over allowed (not both labeled)
	// pairs. nnDist[i] is a lower bound on min_j>i D(i,j); nnBest[i] is the
	// candidate attaining it when fresh. -1/+Inf marks a row with no
	// allowed partner above it.
	nnDist := make([]float64, n)
	nnBest := make([]int32, n)
	recompute := func(i int) {
		best := math.Inf(1)
		bestJ := int32(-1)
		base := condIdx(i, i+1, n)
		for j := i + 1; j < n; j++ {
			if !active[j] || (hasLabel[i] && hasLabel[j]) {
				continue
			}
			if d := dist[base+j-i-1]; d < best {
				best = d
				bestJ = int32(j)
			}
		}
		nnDist[i] = best
		nnBest[i] = bestJ
	}
	if err := par.ForEachCtx(ctx, n, func(i int) { recompute(i) }); err != nil {
		return nil, err
	}

	model := &Model{NumItems: n}
	remaining := n
	step := 0
	for remaining > labeled {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Global scan over row bounds, lazily re-validating the winner: a
		// stale row (partner merged away, pair since forbidden, or the
		// bound undercut by a Lance–Williams increase) is recomputed to its
		// exact minimum and the scan repeats. A row that passes the check
		// holds a true global minimum: every bound is ≤ its row's allowed
		// distances, so a bound equal to a live allowed distance cannot be
		// beaten anywhere.
		x := -1
		for {
			x = -1
			best := math.Inf(1)
			for i := 0; i < n; i++ {
				if active[i] && nnDist[i] < best {
					best = nnDist[i]
					x = i
				}
			}
			if x < 0 {
				break // no allowed pair left anywhere
			}
			y := int(nnBest[x])
			if active[y] && !(hasLabel[x] && hasLabel[y]) && dist[condIdx(x, y, n)] == nnDist[x] {
				break
			}
			recompute(x)
		}
		if x < 0 {
			break
		}
		y := int(nnBest[x])
		d := nnDist[x]

		// Orient the merge like the reference implementation (see
		// lastMerge) so Trace, member order, and centroid summation order
		// all match bit for bit. y > x always (rows only track higher
		// partners), so the two-untouched-singletons case — where the
		// reference puts the lower index first — is already a,b = x,y.
		a, b := x, y
		if lastMerge[y] > lastMerge[x] {
			a, b = y, x
		}
		model.Trace = append(model.Trace, Merge{A: a, B: b, Distance: d})
		step++
		active[b] = false
		lastMerge[a] = step
		merged := hasLabel[a] || hasLabel[b]
		na, nb := float64(size[a]), float64(size[b])
		for k := 0; k < n; k++ {
			if !active[k] || k == a {
				continue
			}
			var dak, dbk int
			if a < k {
				dak = condIdx(a, k, n)
			} else {
				dak = condIdx(k, a, n)
			}
			if b < k {
				dbk = condIdx(b, k, n)
			} else {
				dbk = condIdx(k, b, n)
			}
			nd := (na*dist[dak] + nb*dist[dbk]) / (na + nb)
			dist[dak] = nd
			if merged && hasLabel[k] {
				continue // pair is (and stays) forbidden
			}
			lo := a
			hi := k
			if k < a {
				lo, hi = k, a
			}
			if nd < nnDist[lo] {
				nnDist[lo] = nd
				nnBest[lo] = int32(hi)
			}
		}
		size[a] += size[b]
		members[a] = append(members[a], members[b]...)
		members[b] = nil
		if hasLabel[b] {
			hasLabel[a] = true
			label[a] = label[b]
		}
		remaining--
	}

	for i := 0; i < n; i++ {
		if !active[i] {
			continue
		}
		c := Cluster{Label: Unlabeled, Members: members[i]}
		if hasLabel[i] {
			c.Label = label[i]
		}
		vecs := make([][]float64, 0, len(members[i]))
		for _, m := range members[i] {
			vecs = append(vecs, items[m].Vec)
		}
		c.Centroid = linalg.Mean(vecs)
		model.Clusters = append(model.Clusters, c)
	}
	return model, nil
}

// Predict returns the label of the cluster whose centroid is nearest to
// vec, along with the cluster index and the distance. Clusters that ended
// up unlabeled (possible only when merging was cut short) are skipped.
func (m *Model) Predict(vec []float64) (label, clusterIdx int, distance float64) {
	label = Unlabeled
	clusterIdx = -1
	distance = math.Inf(1)
	for i := range m.Clusters {
		c := &m.Clusters[i]
		if c.Label == Unlabeled {
			continue
		}
		if d := linalg.Distance(vec, c.Centroid); d < distance {
			distance = d
			clusterIdx = i
			label = c.Label
		}
	}
	return label, clusterIdx, distance
}

// MemberLabels returns the virtual label assigned to every item by its
// final cluster (the paper's "labels are virtually predicted" step for the
// unlabeled training samples). The result is indexed like the items slice
// given to TrainCtx.
func (m *Model) MemberLabels() []int {
	out := make([]int, m.NumItems)
	for i := range out {
		out[i] = Unlabeled
	}
	for _, c := range m.Clusters {
		for _, idx := range c.Members {
			out[idx] = c.Label
		}
	}
	return out
}

// AssignmentsAfter replays the merge trace through the first k merges and
// returns, for each item, a representative root index identifying its
// cluster at that point. It reconstructs the Fig. 8 progression without
// retraining.
func (m *Model) AssignmentsAfter(k int) []int {
	if k > len(m.Trace) {
		k = len(m.Trace)
	}
	parent := make([]int, m.NumItems)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < k; i++ {
		a, b := find(m.Trace[i].A), find(m.Trace[i].B)
		if a != b {
			parent[b] = a
		}
	}
	out := make([]int, m.NumItems)
	for i := range out {
		out[i] = find(i)
	}
	return out
}
