package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/embed"
)

// snapshot is the serialized form of a trained System. The bipartite graph
// is not stored directly: replaying its history — the training records,
// then the absorbed records interleaved with the RemoveMAC events at
// their original positions (RetireLog) — reproduces the exact node
// numbering, so only the records, the events, the learned vectors, and
// the cluster model are needed. The interleaving matters: a retired MAC
// re-introduced by a later absorb occupies a fresh node slot, which a
// retire-at-the-end replay would not reproduce. Nodes is the node-slot
// count at save time, checked after the rebuild as an alignment
// invariant. The new fields decode as zero from snapshots written before
// they existed, which skips the corresponding replay steps.
type snapshot struct {
	Config       Config
	TrainRecords []dataset.Record
	Absorbed     []dataset.Record
	RetireLog    []RetireEvent
	Nodes        int
	Dim          int
	Ego          [][]float64
	Ctx          [][]float64
	Model        cluster.Model
	// AbsorbSeq is the absorb count that names absorbed records. It
	// decodes as 0 from snapshots written before it existed, whose
	// records were named by a sequence that reads also advanced; an
	// absorb skips any name such a corpus already holds.
	AbsorbSeq int64
}

// Save serializes a trained system to w with encoding/gob. Save is a
// reader: concurrent predictions proceed while the snapshot is encoded.
func (s *System) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.trained {
		return ErrNotTrained
	}
	snap := snapshot{
		Config:       s.cfg,
		TrainRecords: s.trainRecords,
		Absorbed:     s.absorbed,
		RetireLog:    s.retireLog,
		Nodes:        s.graph.NumNodes(),
		Dim:          s.emb.Dim,
		Ego:          s.emb.Ego,
		Ctx:          s.emb.Ctx,
		Model:        *s.model,
		AbsorbSeq:    s.absorbSeq,
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	return nil
}

// Load deserializes a trained system previously written by Save.
func Load(r io.Reader) (*System, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	s := New(snap.Config)
	if err := s.AddTraining(snap.TrainRecords); err != nil {
		return nil, fmt.Errorf("core: rebuild graph: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Replay the crowd history after the training records: absorbed scans
	// in absorption order, with the RemoveMAC events applied at their
	// original positions in that stream. The learned vectors are already
	// present in the Ego/Ctx tables at the matching node slots, so no
	// re-embedding happens and a loaded system classifies identically to
	// the one that was saved.
	events := snap.RetireLog
	for i := 0; i <= len(snap.Absorbed); i++ {
		for len(events) > 0 && events[0].After <= i {
			mac := events[0].MAC
			events = events[1:]
			if err := s.graph.RemoveMAC(mac); err != nil {
				return nil, fmt.Errorf("core: replay retirement of %q: %w", mac, err)
			}
			s.retired[mac] = struct{}{}
			s.retireLog = append(s.retireLog, RetireEvent{MAC: mac, After: i})
		}
		if i == len(snap.Absorbed) {
			break
		}
		rec := &snap.Absorbed[i]
		// Mirror absorbClassify: MACs this scan (re)introduces are live
		// again and leave the retirement set.
		for _, rd := range rec.Readings {
			if _, ok := s.graph.MACNode(rd.MAC); !ok {
				delete(s.retired, rd.MAC)
			}
		}
		if _, err := s.graph.AddRecord(rec); err != nil {
			return nil, fmt.Errorf("core: rebuild absorbed record %d (%s): %w", i, rec.ID, err)
		}
	}
	s.absorbed = snap.Absorbed
	if snap.Nodes != 0 && s.graph.NumNodes() != snap.Nodes {
		return nil, fmt.Errorf("core: rebuilt graph has %d node slots, snapshot had %d; embeddings would misalign", s.graph.NumNodes(), snap.Nodes)
	}
	if len(snap.Ego) < s.graph.NumNodes() {
		return nil, fmt.Errorf("core: snapshot has %d embeddings for %d nodes", len(snap.Ego), s.graph.NumNodes())
	}
	s.emb = &embed.Embedding{Dim: snap.Dim, Ego: snap.Ego, Ctx: snap.Ctx}
	neg, err := embed.NewNegativeSampler(s.graph, s.emb)
	if err != nil {
		return nil, fmt.Errorf("core: negative sampler: %w", err)
	}
	s.neg = neg
	model := snap.Model
	s.model = &model
	s.fidx = newFloorIndex(s.model)
	s.absorbSeq = snap.AbsorbSeq
	s.trained = true
	return s, nil
}

// SaveFile writes the trained system to path.
func (s *System) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("core: close %s: %w", path, cerr)
		}
	}()
	return s.Save(f)
}

// LoadFile reads a trained system from path.
func LoadFile(path string) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", path, err)
	}
	defer f.Close()
	return Load(f)
}
