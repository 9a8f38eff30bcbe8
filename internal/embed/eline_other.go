//go:build !amd64

package embed

import "repro/internal/rfgraph"

// hasAVX2 is false off amd64: every chunk takes the Go loop.
const hasAVX2 = false

// elineDraw is never called off amd64.
func elineDraw(tab *drawTables, seed int64, n int, buf []rfgraph.NodeID) int {
	panic("embed: elineDraw needs amd64")
}

// elineApply is never called off amd64.
func elineApply(ego, ctx []float64, samples []rfgraph.NodeID, stride int, nlr float64, gs []float64) int {
	panic("embed: elineApply needs amd64")
}
