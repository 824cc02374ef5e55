package serving

import (
	"reflect"
	"testing"

	"diagnet/internal/durable"
)

// openPersistent simulates one diagnetd boot: a fresh registry with the
// named versions registered, persistence attached, and recovery run.
// Returns the recovered active version.
func openPersistent(t *testing.T, dir string, versions ...string) (*Registry, *Persistence, string) {
	t.Helper()
	m, _ := fixture(t)
	reg := NewRegistry()
	for _, v := range versions {
		if err := reg.AddModel(v, m); err != nil {
			t.Fatal(err)
		}
	}
	p, err := OpenPersistence(dir, durable.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	reg.AttachPersistence(p)
	active, err := p.Recover(reg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, p, active
}

func TestRegistryRecoveryAfterRestart(t *testing.T) {
	dir := t.TempDir()
	reg, _, active := openPersistent(t, dir, "v1", "v2", "v3")
	if active != "" {
		t.Fatalf("fresh state dir recovered %q", active)
	}
	for _, v := range []string{"v1", "v2"} {
		if err := reg.Promote(v); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": a new registry over the same state dir recovers the last
	// acknowledged promotion and the full history.
	reg2, _, active2 := openPersistent(t, dir, "v1", "v2", "v3")
	if active2 != "v2" || reg2.Active() != "v2" {
		t.Fatalf("recovered active = %q / %q, want v2", active2, reg2.Active())
	}
	if h := reg2.History(); !reflect.DeepEqual(h, []string{"v1", "v2"}) {
		t.Fatalf("recovered history = %v", h)
	}
	// Rollback still works across the restart (satellite requirement).
	prev, err := reg2.Rollback()
	if err != nil || prev != "v1" {
		t.Fatalf("rollback after restart = %q, %v", prev, err)
	}
	// And the rollback itself survives the next restart.
	reg3, _, active3 := openPersistent(t, dir, "v1", "v2", "v3")
	if active3 != "v1" || reg3.Active() != "v1" {
		t.Fatalf("post-rollback recovery = %q / %q, want v1", active3, reg3.Active())
	}
}

func TestRegistryPromoteCrashPostSyncSurvives(t *testing.T) {
	dir := t.TempDir()
	reg, _, _ := openPersistent(t, dir, "v1", "v2")
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	// The promotion record reaches fsync (the acknowledgement point),
	// then the process dies before the in-memory swap.
	durable.SetCrashPoint(durable.CrashPostSync)
	defer durable.ClearCrashPoint()
	crashed := false
	func() {
		defer durable.RecoverCrash(&crashed)
		reg.Promote("v2")
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	_, _, active := openPersistent(t, dir, "v1", "v2")
	if active != "v2" {
		t.Fatalf("fsync-acknowledged promotion lost: recovered %q", active)
	}
}

func TestRegistryPromoteCrashPreSyncKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	reg, _, _ := openPersistent(t, dir, "v1", "v2")
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	durable.SetCrashPoint(durable.CrashPreSync)
	defer durable.ClearCrashPoint()
	crashed := false
	func() {
		defer durable.RecoverCrash(&crashed)
		reg.Promote("v2")
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	// The v2 promotion was never acknowledged. Recovery may or may not
	// see its record (the write happened; only the sync was skipped), but
	// must serve a version — and if it serves v1, history must be intact.
	reg2, _, active := openPersistent(t, dir, "v1", "v2")
	if active != "v1" && active != "v2" {
		t.Fatalf("recovered active = %q", active)
	}
	if reg2.Active() != active {
		t.Fatalf("registry active %q != recovered %q", reg2.Active(), active)
	}
}

func TestRegistryPromoteCrashMidAppendTornRecordDropped(t *testing.T) {
	dir := t.TempDir()
	reg, _, _ := openPersistent(t, dir, "v1", "v2")
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	durable.SetCrashPoint(durable.CrashMidAppend)
	defer durable.ClearCrashPoint()
	crashed := false
	func() {
		defer durable.RecoverCrash(&crashed)
		reg.Promote("v2")
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	// A torn record is truncated at recovery: the unacknowledged v2
	// promotion is gone, v1 serves.
	_, _, active := openPersistent(t, dir, "v1", "v2")
	if active != "v1" {
		t.Fatalf("torn promotion should be dropped; recovered %q", active)
	}
}

func TestRegistryCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	reg, p, _ := openPersistent(t, dir, "v1", "v2", "v3")
	for _, v := range []string{"v1", "v2"} {
		if err := reg.Promote(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Lifecycle continues after the checkpoint; recovery folds journal
	// records on top of the checkpointed state.
	if err := reg.Promote("v3"); err != nil {
		t.Fatal(err)
	}
	reg2, _, active := openPersistent(t, dir, "v1", "v2", "v3")
	if active != "v3" {
		t.Fatalf("recovered %q, want v3", active)
	}
	if h := reg2.History(); !reflect.DeepEqual(h, []string{"v1", "v2", "v3"}) {
		t.Fatalf("recovered history = %v", h)
	}
}

func TestRegistryCheckpointCrashPreRenameRecovers(t *testing.T) {
	dir := t.TempDir()
	reg, p, _ := openPersistent(t, dir, "v1", "v2")
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("v2"); err != nil {
		t.Fatal(err)
	}
	durable.SetCrashPoint(durable.CrashPreRename)
	defer durable.ClearCrashPoint()
	crashed := false
	func() {
		defer durable.RecoverCrash(&crashed)
		p.Checkpoint()
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	// The new checkpoint generation was never published; the old one plus
	// the journal suffix must still recover v2. (The journal rotated
	// before the checkpoint died, but DropBefore never ran, so the
	// records survive.)
	_, _, active := openPersistent(t, dir, "v1", "v2")
	if active != "v2" {
		t.Fatalf("recovered %q after checkpoint crash, want v2", active)
	}
}

func TestRegistrySpecializedModelRecovered(t *testing.T) {
	dir := t.TempDir()
	m, _ := fixture(t)
	reg, _, _ := openPersistent(t, dir, "v1")
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetSpecialized(3, m); err != nil {
		t.Fatal(err)
	}
	reg2, _, active := openPersistent(t, dir, "v1")
	if active != "v1" {
		t.Fatalf("recovered %q", active)
	}
	var specialized []int
	for _, v := range reg2.Versions() {
		if v.Name == "v1" {
			specialized = v.Specialized
		}
	}
	if !reflect.DeepEqual(specialized, []int{3}) {
		t.Fatalf("specialized models not recovered: %v", specialized)
	}
	// The recovered snapshot actually serves the specialized model.
	snap := reg2.current()
	if snap == nil {
		t.Fatal("no snapshot after recovery")
	}
	if _, svc := snap.modelFor(3); svc != 3 {
		t.Fatalf("service 3 not served by the specialized model (got %d)", svc)
	}
}

// TestRegistryRecoveryMissingVersion pins the degraded path: the journal
// names an active version whose model file is gone. Recover must fail
// loudly (the caller falls back to its default promotion) rather than
// serve nothing or panic.
func TestRegistryRecoveryMissingVersion(t *testing.T) {
	dir := t.TempDir()
	reg, _, _ := openPersistent(t, dir, "v1", "v2")
	if err := reg.Promote("v2"); err != nil {
		t.Fatal(err)
	}
	m, _ := fixture(t)
	reg2 := NewRegistry()
	if err := reg2.AddModel("v1", m); err != nil { // v2's file "disappeared"
		t.Fatal(err)
	}
	p, err := OpenPersistence(dir, durable.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reg2.AttachPersistence(p)
	if _, err := p.Recover(reg2); err == nil {
		t.Fatal("want recovery error for missing active version")
	}
}
