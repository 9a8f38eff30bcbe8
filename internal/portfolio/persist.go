// Portfolio-wide persistence: one manifest plus one core snapshot per
// building under a state directory. The manifest carries the building
// names, their snapshot file names, and the attribution MAC index, and is
// written last via rename, so a crash mid-save can never leave a
// loadable-but-inconsistent state directory: either the old manifest (and
// the old snapshots it points at, which are never overwritten in place)
// or the complete new one.
package portfolio

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/par"
)

// ManifestName is the manifest file name inside a state directory.
const ManifestName = "manifest.json"

// ErrNoManifest reports a state directory without a manifest — nothing to
// load, which callers typically treat as a cold start.
var ErrNoManifest = errors.New("portfolio: no manifest in state dir")

// manifest is the JSON index of a portfolio state directory.
type manifest struct {
	Version   int                `json:"version"`
	Buildings []manifestBuilding `json:"buildings"`
}

// manifestBuilding records one building: its snapshot file and the MACs
// of its attribution index.
type manifestBuilding struct {
	Name string   `json:"name"`
	File string   `json:"file"`
	MACs []string `json:"macs"`
}

// manifestVersion is bumped on incompatible manifest changes.
const manifestVersion = 1

// Save writes the whole portfolio under dir: per-building core snapshots
// first, the manifest last (atomically, via rename). Save holds the
// portfolio read lock throughout, so building registration and hot-swaps
// wait, while classifications — including absorbs into individual
// buildings — continue; the per-building core.Save takes each system's
// read lock, giving every building a consistent point-in-time snapshot.
func (p *Portfolio) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("portfolio: create state dir: %w", err)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	names := make([]string, 0, len(p.systems))
	for name := range p.systems {
		names = append(names, name)
	}
	sort.Strings(names)
	sets := p.macs.Sets()
	man := manifest{Version: manifestVersion}
	for _, name := range names {
		// The file name is derived from the building name, so if a crash
		// lands between the per-building writes and the manifest rename,
		// the surviving (old) manifest still points every name at a
		// complete snapshot of that same building — old or new version,
		// both valid. Files are replaced via temp + rename, never torn.
		file := snapshotFileName(name)
		if err := writeFileAtomic(filepath.Join(dir, file), func(f *os.File) error {
			return p.systems[name].Save(f)
		}); err != nil {
			return fmt.Errorf("portfolio: save building %q: %w", name, err)
		}
		man.Buildings = append(man.Buildings, manifestBuilding{Name: name, File: file, MACs: sets[name]})
	}
	if err := writeFileAtomic(filepath.Join(dir, ManifestName), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(&man)
	}); err != nil {
		return fmt.Errorf("portfolio: save manifest: %w", err)
	}
	removeStaleSnapshots(dir, man)
	return nil
}

// snapshotFileName maps a building name to its snapshot file. A hash
// keeps arbitrary names (spaces, unicode) filesystem-safe.
func snapshotFileName(name string) string {
	h := fnv.New64a()
	h.Write([]byte(name))
	return fmt.Sprintf("building-%016x.gob", h.Sum64())
}

// writeFileAtomic writes path via a temp file in the same directory plus
// rename, fsyncing the file before the rename (so the named file is
// never torn) and the directory after it (so the rename itself survives
// power loss — without the latter, a post-snapshot WAL truncation could
// outlive a rolled-back manifest rename and strand the absorbs in
// neither).
func writeFileAtomic(path string, write func(*os.File) error) (err error) {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// removeStaleSnapshots deletes building files the new manifest no longer
// references (buildings renamed away, or leftovers of a larger fleet).
// Best effort: a leftover file is wasted disk, not a correctness problem.
func removeStaleSnapshots(dir string, man manifest) {
	live := make(map[string]struct{}, len(man.Buildings)+1)
	live[ManifestName] = struct{}{}
	for _, b := range man.Buildings {
		live[b.File] = struct{}{}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if _, ok := live[name]; ok {
			continue
		}
		if strings.HasPrefix(name, "building-") && strings.HasSuffix(name, ".gob") {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// LoadPortfolio restores a portfolio previously written by Save. cfg
// configures buildings registered after the load (each restored building
// carries its own configuration inside its snapshot). A directory without
// a manifest returns ErrNoManifest so callers can distinguish a cold
// start from a corrupt state dir.
func LoadPortfolio(dir string, cfg core.Config) (*Portfolio, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNoManifest, dir)
		}
		return nil, fmt.Errorf("portfolio: read manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("portfolio: decode manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("portfolio: manifest version %d, want %d", man.Version, manifestVersion)
	}
	// Nobody else can see p until it is returned, so holding its lock
	// throughout costs nothing.
	p := New(cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range man.Buildings {
		if err := validateName(b.Name); err != nil {
			return nil, fmt.Errorf("portfolio: manifest: %w", err)
		}
		if _, dup := p.systems[b.Name]; dup {
			return nil, fmt.Errorf("portfolio: manifest: %w: %q", ErrDuplicateName, b.Name)
		}
		p.systems[b.Name] = nil // placeholder: claimed, loaded below
	}
	// Per-building snapshot loads are independent (each rebuilds its own
	// graph and replays its own absorbs), so a warm restart of a large
	// fleet restores across cores instead of one building at a time. The
	// pool is bounded at GOMAXPROCS.
	systems := make([]*core.System, len(man.Buildings))
	errs := make([]error, len(man.Buildings))
	par.ForEach(len(man.Buildings), func(i int) {
		b := man.Buildings[i]
		sys, err := core.LoadFile(filepath.Join(dir, b.File))
		if err != nil {
			errs[i] = fmt.Errorf("portfolio: load building %q: %w", b.Name, err)
			return
		}
		systems[i] = sys
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, b := range man.Buildings {
		p.systems[b.Name] = systems[i]
		p.macs.Set(b.Name, 0, b.MACs)
	}
	return p, nil
}
