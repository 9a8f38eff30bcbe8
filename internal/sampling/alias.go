// Package sampling provides the discrete-sampling machinery used by the
// embedding trainers: Vose's alias method for O(1) draws from a fixed
// categorical distribution (edge sampling proportional to weight, negative
// sampling proportional to degree^{3/4}) and a deterministic splittable RNG
// so parallel SGD workers stay reproducible.
package sampling

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrEmptyDistribution is returned when an alias table is requested over no
// outcomes or all-zero weights.
var ErrEmptyDistribution = errors.New("sampling: empty or all-zero distribution")

// Alias is a Vose alias table supporting O(1) sampling from a categorical
// distribution over n outcomes. It is immutable after construction and safe
// for concurrent use as long as each goroutine supplies its own *rand.Rand.
type Alias struct {
	prob  []float64
	alias []int32
	// thresh is prob scaled to 2^32 (rounded up), so DrawFast's coin
	// flip is a single integer compare instead of an int→float convert
	// plus float compare. uint32(u) < thresh[i] holds exactly when
	// float64(uint32(u))/2^32 < prob[i]: the division is exact, and
	// ceil(prob*2^32) is the first integer the real comparison excludes.
	thresh []uint64
}

// NewAlias builds an alias table for the (unnormalized, non-negative)
// weights. Negative weights are rejected. The table holds only its own
// columns: the builder's work buffers are garbage once it returns.
func NewAlias(weights []float64) (*Alias, error) {
	var b AliasBuilder
	a, err := b.Rebuild(weights)
	if err != nil {
		return nil, err
	}
	table := *a
	return &table, nil
}

// AliasBuilder builds alias tables into reusable storage, so hot paths
// that construct a fresh table per request (the per-scan incident-edge
// distribution of online inference) stop paying five allocations each
// time. The table returned by Rebuild aliases the builder's buffers: it is
// valid until the next Rebuild and must not be shared across goroutines.
// The zero value is ready to use.
type AliasBuilder struct {
	table  Alias
	scaled []float64
	small  []int32
	large  []int32
}

// Rebuild fills the builder's table for the (unnormalized, non-negative)
// weights and returns it. The result is bit-identical to NewAlias on the
// same weights.
func (b *AliasBuilder) Rebuild(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, ErrEmptyDistribution
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("sampling: negative weight %v at index %d", w, i)
		}
		total += w
	}
	if total == 0 {
		return nil, ErrEmptyDistribution
	}
	a := &b.table
	a.prob = resizeF64(a.prob, n)
	a.alias = resizeI32(a.alias, n)
	// Scaled probabilities: p_i * n.
	scaled := resizeF64(b.scaled, n)
	b.scaled = scaled
	small := b.small[:0]
	large := b.large[:0]
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		a.prob[l] = 1
		a.alias[l] = l
	}
	for _, s := range small {
		a.prob[s] = 1
		a.alias[s] = s
	}
	// Keep the grown work stacks for the next Rebuild.
	b.small, b.large = small[:0], large[:0]
	if cap(a.thresh) < n {
		a.thresh = make([]uint64, n)
	}
	a.thresh = a.thresh[:n]
	for i, p := range a.prob {
		a.thresh[i] = uint64(math.Ceil(p * (1 << 32)))
	}
	return a, nil
}

// resizeF64 returns s with length n, reusing its backing array when large
// enough. Contents are unspecified.
func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// resizeI32 returns s with length n, reusing its backing array when large
// enough. Contents are unspecified.
func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Draw samples one outcome index using rng.
func (a *Alias) Draw(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// DrawFast samples one outcome index using a Fast RNG. It is the
// inference-hot-path sibling of Draw: one RNG step serves both the slot
// choice (high 32 bits) and the coin flip (low bits).
//
//grafics:hotpath
func (a *Alias) DrawFast(rng *Fast) int {
	u := rng.Uint64()
	i := int((uint64(uint32(u>>32)) * uint64(len(a.thresh))) >> 32)
	if uint64(uint32(u)) < a.thresh[i] {
		return i
	}
	return int(a.alias[i])
}

// Tables returns the columns DrawFast reads: the coin threshold and the
// alias of each slot. They let an assembly loop draw exactly as DrawFast
// does; the caller must not modify them.
func (a *Alias) Tables() (thresh []uint64, alias []int32) {
	return a.thresh, a.alias
}

// Len returns the number of outcomes.
func (a *Alias) Len() int { return len(a.prob) }
