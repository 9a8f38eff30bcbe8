// Package fault is the deterministic fault-injection layer behind the
// chaos suite. It wraps the two boundaries where GRAFICS touches the
// outside world — files (the WAL and follower mirrors) and HTTP (fleet
// replication and routing) — and injects the failures a crowd-grown
// fleet actually meets: write errors after N successes, torn writes,
// ENOSPC, slow or failing fsync, network partitions, request hangs and
// 5xx bursts.
//
// Every fault schedule is counter-based rather than wall-clock
// probabilistic, so a chaos test replays the same faults on every
// run: "the 3rd write tears" is reproducible, "2% of writes
// tear" is not. Faults are armed and healed at runtime, which is how a
// scenario models recovery (the disk fills, the operator frees space,
// the node resumes).
//
// Production code never imports this package's injectors directly; it
// accepts the narrow seams (an open-file hook, an http.RoundTripper)
// and defaults to the real thing. Every injected fault increments
// grafics_fault_injected_total{kind} so a chaos run is auditable from
// the metrics surface alone.
package fault

import "repro/internal/obs"

var faultInjectedTotal = obs.Default().CounterVec("grafics_fault_injected_total",
	"Faults injected by the internal/fault layer, by kind.", "kind")

// injected records one injected fault of the given kind.
func injected(kind string) { faultInjectedTotal.With(kind).Inc() }

// Kinds reported in grafics_fault_injected_total. Exported so tests and
// the metrics e2e can assert on the exact label values.
const (
	KindWriteErr  = "write_err"  // write failed after the armed budget of successes
	KindTornWrite = "torn_write" // write persisted only a prefix, then failed
	KindENOSPC    = "enospc"     // write exhausted the disk-space budget
	KindSyncErr   = "sync_err"   // fsync failed
	KindSlowSync  = "slow_sync"  // fsync delayed
	KindHTTPCut   = "http_cut"   // request refused (partition, fail-fast)
	KindHTTPHang  = "http_hang"  // request blackholed until its context expired
	KindHTTP5xx   = "http_5xx"   // request answered with an injected 5xx
)
