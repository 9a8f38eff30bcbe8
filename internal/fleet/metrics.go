// Fleet observability instruments, covering both sides of replication
// and the routing tier. Replication lag and ack-wait time are the
// operator's early warning for a follower falling behind; routed reads,
// retries and failover counts describe what clients experience through
// the router.

package fleet

import "repro/internal/obs"

var (
	// Primary / source side.
	walShippedBytesTotal = obs.Default().Counter("grafics_fleet_wal_shipped_bytes_total",
		"WAL bytes shipped to followers over /v2/repl/wal.")
	snapshotsServedTotal = obs.Default().Counter("grafics_fleet_snapshots_served_total",
		"Bootstrap snapshots streamed to followers.")
	ackWaitSeconds = obs.Default().Histogram("grafics_fleet_ack_wait_seconds",
		"Time a semi-sync write waited for its follower quorum.", obs.TimeBuckets)

	// Follower side.
	replLagBytes = obs.Default().Gauge("grafics_fleet_repl_lag_bytes",
		"Byte gap between the primary's committed WAL position and what this follower has applied.")
	appliedRecordsTotal = obs.Default().Counter("grafics_fleet_applied_records_total",
		"Mirrored WAL records applied to the local portfolio.")
	bootstrapsTotal = obs.Default().Counter("grafics_fleet_bootstraps_total",
		"Snapshot bootstraps performed (first start and epoch changes).")
	syncErrorsTotal = obs.Default().Counter("grafics_fleet_sync_errors_total",
		"Failed follower sync cycles (fetch, mirror, or apply).")

	// Router tier.
	routedReadsTotal = obs.Default().Counter("grafics_fleet_routed_reads_total",
		"Reads the router sent to the one group its MAC index picks.")
	breakerStateGauge = obs.Default().GaugeVec("grafics_fleet_breaker_state",
		"Per-peer circuit breaker state: 0 closed, 2 open.", "peer")
	breakerOpensTotal = obs.Default().Counter("grafics_fleet_breaker_opens_total",
		"Circuit breaker transitions into the open state.")
	retriesTotal = obs.Default().CounterVec("grafics_fleet_retries_total",
		"Retry attempts by operation: read failovers to another replica and forwarded write retries.", "op")
	forwardedWritesTotal = obs.Default().Counter("grafics_fleet_forwarded_writes_total",
		"Absorbs forwarded to an owning group's primary.")
	failoversTotal = obs.Default().Counter("grafics_fleet_failovers_total",
		"Automatic or manual promotions completed through the router.")
	healthPollFailuresTotal = obs.Default().Counter("grafics_fleet_health_poll_failures_total",
		"Member status polls that failed.")

	// Node role transitions.
	promotionsTotal = obs.Default().Counter("grafics_fleet_promotions_total",
		"Follower-to-primary promotions completed on this node.")
)
