// The attribution index: one inverted MAC → buildings postings table
// that both a node's Portfolio and a fleet router attribute scans with.

package portfolio

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"

	"repro/internal/dataset"
)

// MACIndex is the inverted attribution index: for every MAC, the
// buildings whose MAC set holds it (its postings). Attributing a scan
// reads only the postings of the scan's own MACs, however many buildings
// are registered. Every building also belongs to a group — the shard
// group that serves it in a fleet, 0 on a single node — so the same
// index attributes a scan within one portfolio (Attribute) and routes it
// across a fleet (Route).
//
// A MACIndex is not synchronized. Lookups may run concurrently with each
// other but not with a mutation: a Portfolio guards its index with its
// own lock, and a fleet router publishes a freshly built index that is
// never mutated again.
type MACIndex struct {
	version  uint64
	names    []string           // building ID → name
	groups   []int              // building ID → group
	sizes    []int32            // building ID → MACs in its set
	ids      map[string]int32   // name → building ID
	postings map[string][]int32 // MAC → IDs of the buildings holding it
	nGroups  int
}

// NewMACIndex returns an empty index. Its version starts at a random
// nonzero value, so a restarted node never reuses a version it reported
// before; values stay below 2^53 to survive any JSON decoder.
func NewMACIndex() *MACIndex {
	return &MACIndex{
		version:  rand.Uint64N(1<<52) + 1,
		ids:      make(map[string]int32),
		postings: make(map[string][]int32),
	}
}

// Version identifies the MAC sets: it changes whenever a mutation
// changes some building's set, and only then.
func (x *MACIndex) Version() uint64 { return x.version }

// Set makes macs, which must not repeat, the MAC set of building and
// places the building in group, registering it if it is new.
func (x *MACIndex) Set(building string, group int, macs []string) {
	id, ok := x.ids[building]
	switch {
	case !ok:
		id = int32(len(x.names))
		x.ids[building] = id
		x.names = append(x.names, building)
		x.groups = append(x.groups, group)
		x.sizes = append(x.sizes, 0)
	case x.groups[id] == group && x.holdsExactly(id, macs):
		return
	default:
		x.groups[id] = group
		x.drop(id)
	}
	x.nGroups = max(x.nGroups, group+1)
	for _, mac := range macs {
		x.add(id, mac)
	}
	x.version++
}

// Add puts mac into a registered building's set.
func (x *MACIndex) Add(building, mac string) {
	if id, ok := x.ids[building]; ok && x.add(id, mac) {
		x.version++
	}
}

// Remove takes mac out of every set and returns the buildings that held
// it, in registration order.
func (x *MACIndex) Remove(mac string) []string {
	ids := x.postings[mac]
	if len(ids) == 0 {
		return nil
	}
	delete(x.postings, mac)
	holders := make([]string, len(ids))
	for i, id := range ids {
		holders[i] = x.names[id]
		x.sizes[id]--
	}
	x.version++
	return holders
}

// Buildings returns the registered buildings' names, sorted.
func (x *MACIndex) Buildings() []string {
	out := slices.Clone(x.names)
	sort.Strings(out)
	return out
}

// Sets returns every building's MAC set, each sorted.
func (x *MACIndex) Sets() map[string][]string {
	out := make(map[string][]string, len(x.names))
	for id, name := range x.names {
		out[name] = make([]string, 0, x.sizes[id])
	}
	for mac, ids := range x.postings {
		for _, id := range ids {
			out[x.names[id]] = append(out[x.names[id]], mac)
		}
	}
	for _, macs := range out {
		sort.Strings(macs)
	}
	return out
}

func (x *MACIndex) add(id int32, mac string) bool {
	ids := x.postings[mac]
	if slices.Contains(ids, id) {
		return false
	}
	x.postings[mac] = append(ids, id)
	x.sizes[id]++
	return true
}

// drop empties building id's set. It walks every posting; only a model
// swap that changes a building's MACs comes here.
func (x *MACIndex) drop(id int32) {
	for mac, ids := range x.postings {
		if i := slices.Index(ids, id); i >= 0 {
			if ids = slices.Delete(ids, i, i+1); len(ids) == 0 {
				delete(x.postings, mac)
			} else {
				x.postings[mac] = ids
			}
		}
	}
	x.sizes[id] = 0
}

// holdsExactly reports whether building id's set is exactly macs.
func (x *MACIndex) holdsExactly(id int32, macs []string) bool {
	if int(x.sizes[id]) != len(macs) {
		return false
	}
	for _, mac := range macs {
		if !slices.Contains(x.postings[mac], id) {
			return false
		}
	}
	return true
}

// scratch is one lookup's working memory, pooled so that a lookup
// allocates nothing once the pool is warm.
type scratch struct {
	hits    []int32 // by building ID; all zero between lookups
	touched []int32 // the IDs with nonzero hits, first touched first
	n       int     // len of the touched prefix in use
	tops    []top   // by group
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// top is the two best buildings of one group so far, ranked by hits and
// then by name, so that a tie names its buildings in sorted-name order.
type top struct {
	best, second         int32 // building IDs, meaningful once their hits are > 0
	bestHits, secondHits int32
}

// offer ranks building b, which holds h of the scan's MACs.
//
//grafics:hotpath
func (t *top) offer(x *MACIndex, b, h int32) {
	switch {
	case h > t.bestHits || (h == t.bestHits && x.names[b] < x.names[t.best]):
		t.second, t.secondHits = t.best, t.bestHits
		t.best, t.bestHits = b, h
	case h > t.secondHits || (h == t.secondHits && x.names[b] < x.names[t.second]):
		t.second, t.secondHits = b, h
	}
}

// count fills s with, for every building holding one of the scan's MACs,
// how many of the scan's distinct MACs it holds, and returns the number
// of distinct MACs. A scan carries tens of readings, so repeats are found
// by scanning the readings before each one rather than with a set.
//
//grafics:hotpath
func (x *MACIndex) count(readings []dataset.Reading, s *scratch) int {
	if n := len(x.names); cap(s.hits) < n {
		s.hits = make([]int32, n)
		s.touched = make([]int32, n)
	}
	hits, touched := s.hits[:len(x.names)], s.touched[:len(x.names)]
	distinct, n := 0, 0
	for i := range readings {
		mac := readings[i].MAC
		if heard(readings[:i], mac) {
			continue
		}
		distinct++
		for _, b := range x.postings[mac] {
			if hits[b] == 0 {
				touched[n] = b
				n++
			}
			hits[b]++
		}
	}
	s.n = n
	return distinct
}

// release zeroes the counters count set and returns s to the pool.
//
//grafics:hotpath
func (s *scratch) release() {
	for _, b := range s.touched[:s.n] {
		s.hits[b] = 0
	}
	s.n = 0
	scratchPool.Put(s)
}

// heard reports whether readings include mac.
//
//grafics:hotpath
func heard(readings []dataset.Reading, mac string) bool {
	for i := range readings {
		if readings[i].MAC == mac {
			return true
		}
	}
	return false
}

// Attribute names the building a scan was taken in: the one whose set
// holds the largest share of the scan's distinct MACs, over every group.
// It requires a strict winner with at least minOverlap (0 means any
// positive overlap). A tie returns ErrAmbiguousMatch naming the first
// two tied buildings in sorted-name order.
//
//grafics:hotpath
func (x *MACIndex) Attribute(id string, readings []dataset.Reading, minOverlap float64) (Match, error) {
	if len(readings) == 0 {
		return Match{}, fmt.Errorf("%w: empty scan %q", ErrUnattributable, id)
	}
	s := scratchPool.Get().(*scratch)
	distinct := x.count(readings, s)
	var t top
	for _, b := range s.touched[:s.n] {
		t.offer(x, b, s.hits[b])
	}
	s.release()
	var m Match
	m.Overlap = float64(t.bestHits) / float64(distinct)
	if m.Overlap <= 0 || m.Overlap < minOverlap {
		return Match{}, fmt.Errorf("%w: %q (best overlap %.2f)", ErrUnattributable, id, m.Overlap)
	}
	if t.secondHits == t.bestHits {
		return Match{}, fmt.Errorf("%w: %q (%q vs %q at %.2f)", ErrAmbiguousMatch, id, x.names[t.best], x.names[t.second], m.Overlap)
	}
	m.Building = x.names[t.best]
	m.RunnerUp = float64(t.secondHits) / float64(distinct)
	return m, nil
}

// Route picks the group a fleet sends a scan to: the group whose answer
// asking every group would relay, given each group's own Attribute. Of
// the groups with a strict winner, that is the one with the highest
// overlap, the lowest on equal overlap. Failing that, it is the lowest
// group whose best buildings tie, which refuses the scan as ambiguous
// itself. ok is false when no group holds any of the scan's MACs.
//
//grafics:hotpath
func (x *MACIndex) Route(readings []dataset.Reading) (group int, ok bool) {
	s := scratchPool.Get().(*scratch)
	x.count(readings, s)
	if cap(s.tops) < x.nGroups {
		s.tops = make([]top, x.nGroups)
	}
	tops := s.tops[:x.nGroups]
	clear(tops)
	for _, b := range s.touched[:s.n] {
		tops[x.groups[b]].offer(x, b, s.hits[b])
	}
	win, tie := -1, -1
	for g := range tops {
		t := &tops[g]
		switch {
		case t.bestHits == 0:
		case t.secondHits == t.bestHits:
			if tie < 0 {
				tie = g
			}
		case win < 0 || t.bestHits > tops[win].bestHits:
			win = g
		}
	}
	s.release()
	if win < 0 {
		win = tie
	}
	return win, win >= 0
}
