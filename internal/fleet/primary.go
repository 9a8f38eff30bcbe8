package fleet

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/portfolio"
	"repro/internal/server"
)

// Primary wraps a lifecycle.Manager as the write-side of a replicated
// shard. Reads pass straight through. Writes (absorbs, MAC retirements)
// additionally wait — when MinSyncAcks > 0 — until enough followers have
// durably mirrored the journaled record, so a positive response survives
// the primary's death.
type Primary struct {
	m       *lifecycle.Manager
	src     *Source
	minAcks int
	ackWait time.Duration
}

// PrimaryOptions tunes semi-synchronous replication.
type PrimaryOptions struct {
	// MinSyncAcks is how many followers must mirror a write before it is
	// acknowledged. 0 (the default) replicates asynchronously.
	MinSyncAcks int
	// AckTimeout bounds the wait; on expiry the write is still durable
	// locally but the client gets ErrReplicationLag.
	AckTimeout time.Duration
}

var _ server.Router = (*Primary)(nil)

// NewPrimary builds the primary role over an already-open manager.
func NewPrimary(m *lifecycle.Manager, src *Source, opts PrimaryOptions) *Primary {
	return &Primary{
		m:       m,
		src:     src,
		minAcks: opts.MinSyncAcks,
		ackWait: nonZero(opts.AckTimeout, defaultAckTimeout),
	}
}

// Manager exposes the underlying lifecycle manager (admin surface,
// shutdown snapshotting).
func (pr *Primary) Manager() *lifecycle.Manager { return pr.m }

// waitReplicated gates a just-journaled write on the follower quorum.
// The position is read after the write, so waiting for it covers the
// write's record (and possibly later ones, which only strengthens the
// guarantee).
func (pr *Primary) waitReplicated(ctx context.Context) error {
	if pr.minAcks <= 0 {
		return nil
	}
	epoch, pos, ok := pr.m.WALPosition()
	if !ok {
		return nil
	}
	start := time.Now()
	err := pr.src.WaitReplicated(ctx, epoch, pos, pr.minAcks, pr.ackWait)
	ackWaitSeconds.Observe(time.Since(start).Seconds())
	return err
}

func (pr *Primary) ClassifyRouted(ctx context.Context, rec *dataset.Record, opts ...core.Option) (portfolio.Routed, error) {
	routed, err := pr.m.ClassifyRouted(ctx, rec, opts...)
	if err == nil && core.NewRequest(rec, opts...).Absorb() {
		err = pr.waitReplicated(ctx)
	}
	return routed, err
}

func (pr *Primary) RemoveMAC(ctx context.Context, mac string) (int, error) {
	n, err := pr.m.RemoveMAC(ctx, mac)
	if err == nil && n > 0 {
		err = pr.waitReplicated(ctx)
	}
	return n, err
}

// replInfo feeds /v2/healthz and /v2/stats on a primary node.
func (pr *Primary) replInfo() server.ReplInfo {
	ri := server.ReplInfo{Role: string(RolePrimary), Ready: true}
	if epoch, pos, ok := pr.m.WALPosition(); ok {
		ri.Epoch = epoch
		ri.Applied = pos
		ri.Mirrored = pos
		ri.Source = pos
	}
	if degraded, _ := pr.m.Degraded(); degraded {
		ri.Degraded = true
	}
	return ri
}
