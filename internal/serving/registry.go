package serving

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"diagnet/internal/core"
)

// Registry holds named model versions and the atomically swappable serving
// snapshot. Admin operations (Add, Promote, Rollback, SetSpecialized) are
// serialized by a mutex; the serving hot path only ever does one atomic
// pointer load per micro-batch, so diagnoses never wait on a swap and a
// swap never observes a half-updated model set — the race the old
// analysis.Server.SetSpecialized had by mutating its specialized-model map
// under a lock the Diagnose path also had to take.
type Registry struct {
	mu       sync.Mutex
	versions map[string]*core.Bundle
	order    []string // insertion order, for stable listings
	history  []string // promotion history; last entry is the active version
	persist  *Persistence

	cur atomic.Pointer[snapshot]
	// shadowCur is the candidate version under shadow evaluation (nil =
	// none). A shadow never serves client traffic: the engine tees a
	// sampled copy of already-answered requests through it so a gate can
	// compare it against the incumbent before promotion. Shadows are
	// deliberately not persisted — a restart drops the candidate and the
	// continual plane re-derives it from journaled samples.
	shadowCur atomic.Pointer[snapshot]
}

// snapshot is one immutable, warmed serving configuration: a version
// name and its models. Models are read-only at inference, so every worker
// serves straight from the snapshot's bundle; nothing in a snapshot is
// ever mutated after Store, so readers need no locks.
type snapshot struct {
	version string
	bundle  *core.Bundle
}

// modelFor returns the model serving a service, falling back to the
// general model, plus the service it specializes (-1 = general).
func (s *snapshot) modelFor(serviceID int) (*core.Model, int) {
	if m, ok := s.bundle.Specialized[serviceID]; ok {
		return m, serviceID
	}
	return s.bundle.General, -1
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{versions: map[string]*core.Bundle{}}
}

// current returns the active snapshot (nil before the first promotion).
func (r *Registry) current() *snapshot { return r.cur.Load() }

// shadow returns the shadow snapshot (nil when no candidate is installed).
func (r *Registry) shadow() *snapshot { return r.shadowCur.Load() }

// InstallShadow builds a snapshot of a registered version and installs it
// as the shadow candidate, replacing any previous one. The same warm-up as
// a promotion applies: a candidate that cannot produce a finite
// distribution is rejected here, before any teed traffic reaches it.
// Installing the active version is rejected — shadowing a model against
// itself can only ever say "promote".
func (r *Registry) InstallShadow(version string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.versions[version]
	if !ok {
		return fmt.Errorf("serving: unknown version %q", version)
	}
	if cur := r.cur.Load(); cur != nil && cur.version == version {
		return fmt.Errorf("serving: version %q is already active", version)
	}
	snap, err := buildSnapshot(version, b)
	if err != nil {
		return err
	}
	r.shadowCur.Store(snap)
	mShadowInstalls.Inc()
	return nil
}

// DropShadow removes the shadow candidate (no-op when none is installed).
func (r *Registry) DropShadow() {
	r.shadowCur.Store(nil)
}

// ShadowVersion names the installed shadow candidate ("" when none).
func (r *Registry) ShadowVersion() string {
	if snap := r.shadowCur.Load(); snap != nil {
		return snap.version
	}
	return ""
}

// Add registers a version without serving it. Version names are
// caller-chosen identifiers ("boot", "v2", "retrain-2026-08-06"); adding
// an existing name is an error (versions are immutable once registered —
// register the retrain under a new name and Promote it).
func (r *Registry) Add(version string, b *core.Bundle) error {
	if version == "" {
		return fmt.Errorf("serving: empty version name")
	}
	if b == nil || b.General == nil {
		return fmt.Errorf("serving: version %q has no general model", version)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.versions[version]; ok {
		return fmt.Errorf("serving: version %q already registered", version)
	}
	r.versions[version] = b
	r.order = append(r.order, version)
	return nil
}

// AddModel registers a bare general model as a version.
func (r *Registry) AddModel(version string, m *core.Model) error {
	if m == nil {
		return fmt.Errorf("serving: version %q has no general model", version)
	}
	return r.Add(version, core.NewBundle(m))
}

// Promote warms every model of the named version up with one real
// inference and atomically swaps the version in. In-flight batches finish
// on the snapshot they started with; the warm-up means the first post-swap
// request never pays first-touch costs, and a model that cannot produce a
// finite distribution is rejected before any traffic reaches it.
func (r *Registry) Promote(version string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoteLocked(version, true)
}

// promoteLocked is Promote with r.mu held. record=false suppresses the
// state journal (recovery replays, rollback — which journals its own
// record).
func (r *Registry) promoteLocked(version string, record bool) error {
	b, ok := r.versions[version]
	if !ok {
		return fmt.Errorf("serving: unknown version %q", version)
	}
	snap, err := buildSnapshot(version, b)
	if err != nil {
		return err
	}
	// WAL discipline: the journal acknowledges the promotion before the
	// swap is visible. A crash between the two replays the promotion at
	// recovery — harmless; the reverse order could acknowledge a
	// promotion a restart forgets.
	if record && r.persist != nil {
		if err := r.persist.recordPromote(version); err != nil {
			return fmt.Errorf("serving: journal promotion: %w", err)
		}
	}
	r.cur.Store(snap)
	// A candidate that just graduated must stop shadowing itself.
	if sh := r.shadowCur.Load(); sh != nil && sh.version == version {
		r.shadowCur.Store(nil)
	}
	if n := len(r.history); n == 0 || r.history[n-1] != version {
		r.history = append(r.history, version)
	}
	mSwaps.Inc()
	return nil
}

// History returns the promotion history, oldest first; the last entry is
// the active version.
func (r *Registry) History() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.history...)
}

// AttachPersistence wires a state log into the registry: every
// subsequent promotion, rollback and specialization is journaled before
// it is acknowledged. Attach before Recover so a restarted process
// replays into the same log it then appends to.
func (r *Registry) AttachPersistence(p *Persistence) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.persist = p
}

// restoreState installs a recovered promotion history and re-promotes
// the recovered active version without journaling (the journal already
// says so).
func (r *Registry) restoreState(history []string, active string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.history
	r.history = append([]string(nil), history...)
	if err := r.promoteLocked(active, false); err != nil {
		r.history = old
		return err
	}
	return nil
}

// restoreSpecialized reinstalls a recovered specialized model into a
// registered (not yet promoted) version's bundle without journaling.
func (r *Registry) restoreSpecialized(version string, serviceID int, m *core.Model) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.versions[version]
	if !ok {
		return fmt.Errorf("serving: unknown version %q", version)
	}
	r.versions[version] = withSpecialized(b, serviceID, m)
	return nil
}

// Rollback re-promotes the previously active version and reports which
// version is active afterwards. Repeated rollbacks walk further back
// through the promotion history.
func (r *Registry) Rollback() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.history) < 2 {
		return "", fmt.Errorf("serving: no previous version to roll back to")
	}
	prev := r.history[len(r.history)-2]
	if r.persist != nil {
		if err := r.persist.recordRollback(prev); err != nil {
			return "", fmt.Errorf("serving: journal rollback: %w", err)
		}
	}
	r.history = r.history[:len(r.history)-2]
	if err := r.promoteLocked(prev, false); err != nil {
		return "", err
	}
	return prev, nil
}

// SetSpecialized installs (or replaces) a per-service specialized model in
// the active version via copy-on-write: the new model is warmed up, then a
// new bundle and snapshot are built and swapped atomically, so concurrent
// diagnoses see either the old or the new model set, never a map
// mid-mutation.
func (r *Registry) SetSpecialized(serviceID int, m *core.Model) error {
	if m == nil {
		return fmt.Errorf("serving: nil specialized model for service %d", serviceID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.cur.Load()
	if cur == nil {
		return ErrNoModel
	}
	nb := withSpecialized(r.versions[cur.version], serviceID, m)
	if err := warmup(m); err != nil {
		return fmt.Errorf("serving: version %q service %d: %w", cur.version, serviceID, err)
	}
	if r.persist != nil {
		if err := r.persist.recordSpecialize(cur.version, serviceID, m); err != nil {
			return fmt.Errorf("serving: journal specialization: %w", err)
		}
	}
	r.versions[cur.version] = nb
	r.cur.Store(&snapshot{version: cur.version, bundle: nb})
	return nil
}

// withSpecialized returns a copy of b with m serving serviceID. Bundles
// are copied, never mutated, because snapshots serve straight from them.
func withSpecialized(b *core.Bundle, serviceID int, m *core.Model) *core.Bundle {
	nb := core.NewBundle(b.General)
	for id, sm := range b.Specialized {
		nb.Specialized[id] = sm
	}
	nb.Specialized[serviceID] = m
	return nb
}

// buildSnapshot warms every model of a version up once and wraps them
// into a snapshot.
func buildSnapshot(version string, b *core.Bundle) (*snapshot, error) {
	if err := warmup(b.General); err != nil {
		return nil, fmt.Errorf("serving: version %q general model: %w", version, err)
	}
	for id, m := range b.Specialized {
		if err := warmup(m); err != nil {
			return nil, fmt.Errorf("serving: version %q service %d: %w", version, id, err)
		}
	}
	return &snapshot{version: version, bundle: b}, nil
}

// warmup runs one inference through a model: it touches every weight
// matrix and proves the model still produces a finite coarse distribution
// before promotion exposes it to traffic.
func warmup(m *core.Model) error {
	d := m.Diagnose(make([]float64, m.TrainLayout.NumFeatures()), m.TrainLayout)
	for _, p := range d.Coarse {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("warm-up produced a non-finite coarse distribution")
		}
	}
	mWarmups.Inc()
	return nil
}

// Active returns the live version name ("" before the first promotion).
func (r *Registry) Active() string {
	if snap := r.cur.Load(); snap != nil {
		return snap.version
	}
	return ""
}

// ActiveBundle returns the active version's models and name, for
// validation and introspection (the bundle is read-only by convention).
func (r *Registry) ActiveBundle() (*core.Bundle, string, error) {
	snap := r.cur.Load()
	if snap == nil {
		return nil, "", ErrNoModel
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.versions[snap.version], snap.version, nil
}

// VersionInfo describes one registered version.
type VersionInfo struct {
	Name        string `json:"name"`
	Active      bool   `json:"active"`
	Specialized []int  `json:"specialized_services"`
	TotalParams int    `json:"total_params"`
}

// Versions lists registered versions in registration order.
func (r *Registry) Versions() []VersionInfo {
	active := r.Active()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]VersionInfo, 0, len(r.order))
	for _, name := range r.order {
		b := r.versions[name]
		info := VersionInfo{Name: name, Active: name == active}
		info.TotalParams, _ = b.General.ParamCount()
		for id := range b.Specialized {
			info.Specialized = append(info.Specialized, id)
		}
		sort.Ints(info.Specialized)
		out = append(out, info)
	}
	return out
}

// LoadFile registers one model or bundle file as a version. Bare models
// and bundles share the same gob envelope trick diagnetd used: try the
// bundle decoder first, then fall back to a single general model.
func (r *Registry) LoadFile(version, path string) error {
	b, err := loadBundleOrModel(path)
	if err != nil {
		return err
	}
	return r.Add(version, b)
}

// LoadDir registers every *.gob file in dir as a version named after the
// file (base name without extension), in sorted order, and returns the
// version names. Nothing is promoted — the caller picks.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serving: model dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".gob") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	versions := make([]string, 0, len(names))
	for _, name := range names {
		version := strings.TrimSuffix(name, ".gob")
		if err := r.LoadFile(version, filepath.Join(dir, name)); err != nil {
			return versions, err
		}
		versions = append(versions, version)
	}
	return versions, nil
}

// loadBundleOrModel reads a file as a bundle, falling back to a single
// general model wrapped in a fresh bundle.
func loadBundleOrModel(path string) (*core.Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	if b, err := core.LoadBundle(bytes.NewReader(data)); err == nil {
		return b, nil
	}
	m, err := core.Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("serving: %s is neither a bundle nor a model: %w", path, err)
	}
	return core.NewBundle(m), nil
}
