//go:build !amd64

package embed

import "repro/internal/rfgraph"

// hasAVX2 is false off amd64: every sample takes the Go kernels.
const hasAVX2 = false

// elineStep8 declines every sample off amd64.
func elineStep8(ego, ctx []float64, i, j rfgraph.NodeID, zs []rfgraph.NodeID, nlr float64, gs []float64) bool {
	return false
}
