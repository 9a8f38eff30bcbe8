// Core's observability instruments, registered against the process-wide
// obs registry at init. The classify stage histograms are resolved to
// their children here, once, so the hot path observes through plain
// pointers — no label lookup, no allocation (hotpathalloc-checked).

package core

import "repro/internal/obs"

// Stage indices of the classify StageClock, in pipeline order: the scan's
// edges into the frozen graph (labeled "overlay", the name dashboards and
// perfbench read), ego embedding, per-floor reduction + softmax.
const (
	stageOverlay = iota
	stageEmbed
	stageReduce
)

var (
	// classifyTotal counts read-only classifications; absorbsTotal the
	// write-path ones (kept scans).
	classifyTotal = obs.Default().Counter("grafics_core_classify_total",
		"Read-only classifications served by the core pipeline.")
	absorbsTotal = obs.Default().Counter("grafics_core_absorbs_total",
		"Absorbing classifications (scans kept in the graph).")

	// classifyStageSeconds breaks one classification into its §V stages.
	classifyStageSeconds = obs.Default().HistogramVec("grafics_core_classify_stage_seconds",
		"Classify hot-path stage timings.", obs.TimeBuckets, "stage")
	stageOverlayHist = classifyStageSeconds.With("overlay")
	stageEmbedHist   = classifyStageSeconds.With("embed")
	stageReduceHist  = classifyStageSeconds.With("reduce")
)
