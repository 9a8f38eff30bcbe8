// The /v2/admin surface: operator controls for the durable model
// lifecycle. These routes exist only when the handler was built with
// Options.Lifecycle set; a plain in-memory deployment has nothing to
// administer and answers 404.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/portfolio"
)

// SnapshotResponse is the reply to POST /v2/admin/snapshot.
type SnapshotResponse struct {
	StateDir string `json:"state_dir,omitempty"`
	// Skipped is true when no state directory is configured (nothing was
	// written).
	Skipped    bool    `json:"skipped,omitempty"`
	Buildings  int     `json:"buildings"`
	DurationMS float64 `json:"duration_ms"`
}

// RefitResponse is the reply to POST /v2/admin/refit. Started lists the
// buildings whose background refit this request launched; buildings
// already refitting are omitted.
type RefitResponse struct {
	Started []string `json:"started"`
}

// registerAdmin mounts the lifecycle admin routes.
func registerAdmin(mux *http.ServeMux, m *lifecycle.Manager) {
	handle(mux, "POST /v2/admin/snapshot", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if err := m.Snapshot(); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("snapshot: %w", err))
			return
		}
		st := m.Status()
		writeJSON(w, http.StatusOK, SnapshotResponse{
			StateDir:   st.StateDir,
			Skipped:    st.StateDir == "",
			Buildings:  len(st.Buildings),
			DurationMS: float64(time.Since(start).Microseconds()) / 1000,
		})
	})
	handle(mux, "POST /v2/admin/refit", func(w http.ResponseWriter, r *http.Request) {
		building := r.URL.Query().Get("building")
		started, err := m.ForceRefit(building)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, portfolio.ErrUnknownBuilding) {
				status = http.StatusNotFound
			}
			writeError(w, status, err)
			return
		}
		// 202: the refit runs in the background; poll /v2/admin/lifecycle
		// for completion.
		if started == nil {
			started = []string{}
		}
		writeJSON(w, http.StatusAccepted, RefitResponse{Started: started})
	})
	handle(mux, "GET /v2/admin/lifecycle", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Status())
	})
}
