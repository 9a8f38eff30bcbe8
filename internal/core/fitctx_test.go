package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestFitCtxCancelled: a cancelled context aborts Fit cleanly — error is
// the context's, the system stays untrained, and a later Fit with a live
// context succeeds (no partial state left behind).
func TestFitCtxCancelled(t *testing.T) {
	train, _ := campusSplit(t, 30, 4, 11)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.FitCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitCtx(cancelled) = %v, want context.Canceled", err)
	}
	if s.Trained() {
		t.Fatal("cancelled fit left the system trained")
	}
	if err := s.FitCtx(context.Background()); err != nil {
		t.Fatalf("FitCtx after cancelled attempt: %v", err)
	}
	if !s.Trained() {
		t.Fatal("system not trained after successful FitCtx")
	}
}

// TestRetireEveryMACSaveLoad: retiring every MAC leaves a graph with no
// live trained edge, whose negative sampler is empty. That state must
// save and load like any other, and the loaded system must answer the
// building's own scans as out of building, as the live one does.
func TestRetireEveryMACSaveLoad(t *testing.T) {
	s, test := trainedSystem(t)
	for _, mac := range s.MACs() {
		if err := s.RemoveMAC(mac); err != nil {
			t.Fatalf("RemoveMAC(%s): %v", mac, err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load after every MAC was retired: %v", err)
	}
	if st := loaded.Stats(); st.MACs != 0 || st.Edges != 0 {
		t.Errorf("loaded stats %+v, want no MACs and no edges", st)
	}
	for _, sys := range []*System{s, loaded} {
		if _, err := sys.Classify(context.Background(), &test[0]); !errors.Is(err, ErrOutOfBuilding) {
			t.Errorf("classify after every MAC was retired: %v, want ErrOutOfBuilding", err)
		}
	}
}
