// Package rfgraph implements the weighted bipartite graph at the heart of
// GRAFICS (§IV-A of the paper): RF-record nodes on one side, MAC nodes on
// the other, with an edge weighted by f(RSS) wherever a record sensed a
// MAC. The graph is incrementally extendable — new records and MACs can be
// added at any time, and MACs (AP removals) or records can be retired —
// which is what makes the model "highly versatile" for crowdsourced data.
package rfgraph

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
)

// NodeKind distinguishes the two sides of the bipartite graph.
type NodeKind int

// Node kinds. Enums start at one so the zero value is detectably invalid.
const (
	KindRecord NodeKind = iota + 1
	KindMAC
)

func (k NodeKind) String() string {
	switch k {
	case KindRecord:
		return "record"
	case KindMAC:
		return "mac"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// NodeID indexes a node in the graph. IDs are dense and stable: removing a
// node tombstones its slot rather than renumbering.
type NodeID int32

// Halfedge is one adjacency entry: the neighbor and the edge weight.
type Halfedge struct {
	To     NodeID
	Weight float64
}

// WeightFunc maps an RSS value (dBm) to a positive edge weight.
type WeightFunc func(rss float64) float64

// OffsetWeight returns the paper's weight function f(RSS) = RSS + alpha
// (Eq. 2), valid when alpha exceeds the largest possible |RSS|.
func OffsetWeight(alpha float64) WeightFunc {
	return func(rss float64) float64 { return rss + alpha }
}

// DefaultOffset is the offset the paper evaluates with (f(RSS) = RSS+120).
const DefaultOffset = 120.0

// PowerWeight returns the alternative weight function g(RSS) = 10^{RSS/10}
// (milliwatts), which the paper shows performs much worse (Fig. 16).
func PowerWeight() WeightFunc {
	return func(rss float64) float64 { return math.Pow(10, rss/10) }
}

// Errors returned by graph mutations.
var (
	ErrDuplicateRecord = errors.New("rfgraph: record already in graph")
	ErrUnknownNode     = errors.New("rfgraph: unknown node")
	ErrEmptyRecord     = errors.New("rfgraph: record has no readings")
	ErrBadWeight       = errors.New("rfgraph: weight function produced non-positive weight")
)

// Graph is the weighted bipartite graph. It is not safe for concurrent
// mutation; its read methods are safe for concurrent use between
// mutations.
type Graph struct {
	weightFn WeightFunc

	kinds   []NodeKind
	names   []string
	deleted []bool
	adj     [][]Halfedge
	wdeg    []float64

	recordIndex map[string]NodeID
	macIndex    map[string]NodeID

	liveEdges int // number of live undirected edges
}

// New returns an empty graph using the given weight function (nil means
// OffsetWeight(DefaultOffset)).
func New(weightFn WeightFunc) *Graph {
	if weightFn == nil {
		weightFn = OffsetWeight(DefaultOffset)
	}
	return &Graph{
		weightFn:    weightFn,
		recordIndex: make(map[string]NodeID),
		macIndex:    make(map[string]NodeID),
	}
}

// NumNodes returns the total number of node slots, including tombstones.
func (g *Graph) NumNodes() int { return len(g.kinds) }

// NumRecords returns the number of live record nodes.
func (g *Graph) NumRecords() int { return len(g.recordIndex) }

// NumMACs returns the number of live MAC nodes.
func (g *Graph) NumMACs() int { return len(g.macIndex) }

// NumEdges returns the number of live undirected edges.
func (g *Graph) NumEdges() int { return g.liveEdges }

// Kind returns the node kind, or 0 for an out-of-range id.
func (g *Graph) Kind(id NodeID) NodeKind {
	if int(id) < 0 || int(id) >= len(g.kinds) {
		return 0
	}
	return g.kinds[id]
}

// Name returns the record ID or MAC address of a node.
func (g *Graph) Name(id NodeID) string {
	if int(id) < 0 || int(id) >= len(g.names) {
		return ""
	}
	return g.names[id]
}

// Alive reports whether the node exists and has not been removed.
func (g *Graph) Alive(id NodeID) bool {
	return int(id) >= 0 && int(id) < len(g.deleted) && !g.deleted[id]
}

// Neighbors returns the live adjacency of id. The returned slice must not
// be mutated.
func (g *Graph) Neighbors(id NodeID) []Halfedge {
	if !g.Alive(id) {
		return nil
	}
	return g.adj[id]
}

// WeightedDegree returns the sum of edge weights at id.
func (g *Graph) WeightedDegree(id NodeID) float64 {
	if !g.Alive(id) {
		return 0
	}
	return g.wdeg[id]
}

// Degree returns the number of live edges at id.
func (g *Graph) Degree(id NodeID) int {
	if !g.Alive(id) {
		return 0
	}
	return len(g.adj[id])
}

// RecordNode returns the node for a record ID.
func (g *Graph) RecordNode(recordID string) (NodeID, bool) {
	id, ok := g.recordIndex[recordID]
	return id, ok
}

// MACNode returns the node for a MAC address.
func (g *Graph) MACNode(mac string) (NodeID, bool) {
	id, ok := g.macIndex[mac]
	return id, ok
}

// RecordNodes returns the IDs of all live record nodes in insertion order.
func (g *Graph) RecordNodes() []NodeID {
	out := make([]NodeID, 0, len(g.recordIndex))
	for id := range g.kinds {
		nid := NodeID(id)
		if g.kinds[id] == KindRecord && !g.deleted[id] {
			out = append(out, nid)
		}
	}
	return out
}

// MACNodes returns the IDs of all live MAC nodes in insertion order.
func (g *Graph) MACNodes() []NodeID {
	out := make([]NodeID, 0, len(g.macIndex))
	for id := range g.kinds {
		if g.kinds[id] == KindMAC && !g.deleted[id] {
			out = append(out, NodeID(id))
		}
	}
	return out
}

func (g *Graph) newNode(kind NodeKind, name string) NodeID {
	id := NodeID(len(g.kinds))
	g.kinds = append(g.kinds, kind)
	g.names = append(g.names, name)
	g.deleted = append(g.deleted, false)
	g.adj = append(g.adj, nil)
	g.wdeg = append(g.wdeg, 0)
	return id
}

// ensureMAC returns the node for mac, creating it if necessary. A
// previously removed MAC that reappears (AP re-installed) gets a fresh
// node.
func (g *Graph) ensureMAC(mac string) NodeID {
	if id, ok := g.macIndex[mac]; ok {
		return id
	}
	id := g.newNode(KindMAC, mac)
	g.macIndex[mac] = id
	return id
}

func (g *Graph) addEdge(a, b NodeID, w float64) {
	g.adj[a] = append(g.adj[a], Halfedge{To: b, Weight: w})
	g.adj[b] = append(g.adj[b], Halfedge{To: a, Weight: w})
	g.wdeg[a] += w
	g.wdeg[b] += w
	g.liveEdges++
}

// bestRSS fills best, which must be empty, with the strongest RSS of each
// MAC in rec, and checks that the weight function maps every one of them
// — known MAC or not — to a usable edge weight.
func (g *Graph) bestRSS(rec *dataset.Record, best map[string]float64) error {
	for _, rd := range rec.Readings {
		if cur, ok := best[rd.MAC]; !ok || rd.RSS > cur {
			best[rd.MAC] = rd.RSS
		}
	}
	for _, rd := range rec.Readings {
		if w := g.weightFn(best[rd.MAC]); badWeight(w) {
			return fmt.Errorf("%w: f(%v) = %v for MAC %q", ErrBadWeight, best[rd.MAC], w, rd.MAC)
		}
	}
	return nil
}

// badWeight reports whether w is unusable as an edge weight.
func badWeight(w float64) bool { return w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) }

// AddRecord inserts a record node and its MAC edges. Duplicate readings of
// the same MAC within one record keep the strongest RSS. It returns the new
// record's node ID.
func (g *Graph) AddRecord(rec *dataset.Record) (NodeID, error) {
	if len(rec.Readings) == 0 {
		return 0, fmt.Errorf("%w: %q", ErrEmptyRecord, rec.ID)
	}
	if _, dup := g.recordIndex[rec.ID]; dup {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateRecord, rec.ID)
	}
	// Validate weights before mutating the graph so failures are atomic.
	best := make(map[string]float64, len(rec.Readings))
	if err := g.bestRSS(rec, best); err != nil {
		return 0, err
	}
	vid := g.newNode(KindRecord, rec.ID)
	g.recordIndex[rec.ID] = vid
	for _, rd := range rec.Readings {
		rss, ok := best[rd.MAC]
		if !ok {
			continue // already consumed by the dedup pass
		}
		delete(best, rd.MAC)
		mid := g.ensureMAC(rd.MAC)
		g.addEdge(mid, vid, g.weightFn(rss))
	}
	return vid, nil
}

// ScanScratch is the reusable state of ScanEdges: a sparse set over node
// IDs that finds a known MAC's edge in O(1) without being cleared, and
// the strongest RSS of each MAC the graph has never seen. The zero value
// is ready to use. Concurrent calls need one each; one serves graphs of
// any size in turn.
type ScanScratch struct {
	// slot[id] is the index of MAC node id's edge in the scan being
	// collected, when that edge's To is id; any other value is stale.
	slot []int32
	best map[string]float64
}

// ScanEdges returns the edges AddRecord would give rec, in the same order
// and after the same validation, less those to MACs the graph has never
// seen, and writes nothing to the graph: the whole of a scan that online
// inference needs. The edges are appended to dst[:0]; sc is the dedup
// scratch (nil allocates one). Each reading's MAC is looked up once. A
// scan with no known MAC yields no edges and no error; on error the
// edges are empty.
func (g *Graph) ScanEdges(dst []Halfedge, rec *dataset.Record, sc *ScanScratch) ([]Halfedge, error) {
	dst = dst[:0]
	if len(rec.Readings) == 0 {
		return dst, fmt.Errorf("%w: %q", ErrEmptyRecord, rec.ID)
	}
	if sc == nil {
		sc = new(ScanScratch)
	}
	if n := len(g.kinds); len(sc.slot) < n {
		sc.slot = make([]int32, n+n/4) // headroom for absorbs to come
	}
	clear(sc.best)
	// Collect each MAC's strongest RSS: a known MAC's in its edge, whose
	// weight holds the RSS until the pass ends, a never-seen MAC's in best.
	for _, rd := range rec.Readings {
		mid, known := g.macIndex[rd.MAC]
		if !known {
			if sc.best == nil {
				sc.best = make(map[string]float64)
			}
			if cur, ok := sc.best[rd.MAC]; !ok || rd.RSS > cur {
				sc.best[rd.MAC] = rd.RSS
			}
			continue
		}
		if e := sc.slot[mid]; int(e) < len(dst) && dst[e].To == mid {
			if rd.RSS > dst[e].Weight {
				dst[e].Weight = rd.RSS
			}
			continue
		}
		sc.slot[mid] = int32(len(dst))
		dst = append(dst, Halfedge{To: mid, Weight: rd.RSS})
	}
	bad := false
	for e := range dst {
		dst[e].Weight = g.weightFn(dst[e].Weight)
		bad = bad || badWeight(dst[e].Weight)
	}
	for _, rss := range sc.best {
		bad = bad || badWeight(g.weightFn(rss))
	}
	if bad {
		// Rare: name the first bad reading exactly as AddRecord does.
		return dst[:0], g.bestRSS(rec, make(map[string]float64, len(rec.Readings)))
	}
	return dst, nil
}

// AddRecords inserts many records, returning the node ID of each.
func (g *Graph) AddRecords(recs []dataset.Record) ([]NodeID, error) {
	out := make([]NodeID, 0, len(recs))
	for i := range recs {
		id, err := g.AddRecord(&recs[i])
		if err != nil {
			return out, fmt.Errorf("rfgraph: record %d: %w", i, err)
		}
		out = append(out, id)
	}
	return out, nil
}

// removeNode tombstones id and detaches it from all neighbors.
func (g *Graph) removeNode(id NodeID) {
	for _, he := range g.adj[id] {
		nbr := he.To
		kept := g.adj[nbr][:0]
		for _, back := range g.adj[nbr] {
			if back.To == id {
				g.wdeg[nbr] -= back.Weight
				g.liveEdges--
				continue
			}
			kept = append(kept, back)
		}
		g.adj[nbr] = kept
	}
	g.adj[id] = nil
	g.wdeg[id] = 0
	g.deleted[id] = true
}

// RemoveMAC retires a MAC node (AP removed from the environment). Records
// that sensed it keep their other edges.
func (g *Graph) RemoveMAC(mac string) error {
	id, ok := g.macIndex[mac]
	if !ok {
		return fmt.Errorf("%w: MAC %q", ErrUnknownNode, mac)
	}
	g.removeNode(id)
	delete(g.macIndex, mac)
	return nil
}

// RemoveRecord retires a record node.
func (g *Graph) RemoveRecord(recordID string) error {
	id, ok := g.recordIndex[recordID]
	if !ok {
		return fmt.Errorf("%w: record %q", ErrUnknownNode, recordID)
	}
	g.removeNode(id)
	delete(g.recordIndex, recordID)
	return nil
}

// DirectedEdge is one directed edge (Src -> Dst) with its weight. The
// trainer samples these proportionally to weight.
type DirectedEdge struct {
	Src, Dst NodeID
	Weight   float64
}

// DirectedEdges materializes both directions of every live undirected edge,
// as required by LINE's second-order formulation over undirected graphs.
func (g *Graph) DirectedEdges() []DirectedEdge {
	out := make([]DirectedEdge, 0, 2*g.liveEdges)
	for id := range g.adj {
		if g.deleted[id] {
			continue
		}
		src := NodeID(id)
		for _, he := range g.adj[id] {
			out = append(out, DirectedEdge{Src: src, Dst: he.To, Weight: he.Weight})
		}
	}
	return out
}

// TotalWeight returns the sum of weights over live undirected edges.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for id := range g.wdeg {
		if !g.deleted[id] {
			s += g.wdeg[id]
		}
	}
	return s / 2
}
