// Package lifecycle exercises walorder: discarded journal errors,
// mutations on the error branch, mutations inside the unresolved-error
// window, and the idioms that are always fine (direct return, checked
// error, per-record error slices). The fixture is named "lifecycle" so
// the analyzer's package filter applies, as it does to the real
// internal/lifecycle.
package lifecycle

type rec struct{ mac string }

// Log stands in for wal.Log: Append journals a record durably.
type Log struct{}

func (l *Log) Append(r rec) error {
	_ = r
	return nil
}

type portfolio struct{}

func (p *portfolio) AbsorbBuilding(id string) error { return nil }
func (p *portfolio) RemoveMAC(mac string) error     { return nil }

// system stands in for core.System: Carry absorbs a refit's drained
// records into the new model.
type system struct{}

func (s *system) Carry(old *system, n int) error { return nil }

type Manager struct {
	log *Log
	p   *portfolio
}

func (m *Manager) journal(r rec) error {
	return m.log.Append(r)
}

func (m *Manager) BadDiscard(r rec) error {
	m.log.Append(r) // want `WAL append error discarded`
	return m.p.AbsorbBuilding(r.mac)
}

func (m *Manager) BadBlankAssign(r rec) error {
	_ = m.log.Append(r) // want `assigned to _`
	return m.p.AbsorbBuilding(r.mac)
}

func (m *Manager) BadMutateBeforeCheck(r rec) error {
	err := m.log.Append(r)
	if e2 := m.p.AbsorbBuilding(r.mac); e2 != nil { // want `before the journal append error is checked`
		return e2
	}
	return err
}

func (m *Manager) BadMutateOnErrBranch(r rec) error {
	err := m.log.Append(r)
	if err != nil {
		_ = m.p.RemoveMAC(r.mac) // want `error branch of journal append`
		return err
	}
	return m.p.AbsorbBuilding(r.mac)
}

func (m *Manager) BadCarryBeforeCheck(r rec, next, old *system) error {
	err := m.log.Append(r)
	_ = next.Carry(old, 0) // want `before the journal append error is checked`
	return err
}

func (m *Manager) GoodDirectReturn(r rec) error {
	return m.log.Append(r)
}

func (m *Manager) GoodChecked(r rec) error {
	if err := m.log.Append(r); err != nil {
		return err
	}
	return m.p.AbsorbBuilding(r.mac)
}

func (m *Manager) GoodPerRecordErrs(recs []rec) error {
	errs := make([]error, len(recs))
	for i, r := range recs {
		errs[i] = m.journal(r)
	}
	for i, r := range recs {
		if errs[i] != nil {
			continue
		}
		_ = m.p.AbsorbBuilding(r.mac)
	}
	return nil
}

func (m *Manager) GoodSuppressedReplay(r rec) error {
	err := m.log.Append(r)
	// grafics:walok replay reapplies state; journal health handled by caller
	_ = m.p.AbsorbBuilding(r.mac)
	return err
}
