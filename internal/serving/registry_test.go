package serving

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diagnet/internal/core"
)

func TestRegistryAddRejectsDuplicatesAndEmpty(t *testing.T) {
	m, _ := fixture(t)
	r := NewRegistry()
	if err := r.AddModel("", m); err == nil {
		t.Fatal("empty version name accepted")
	}
	if err := r.AddModel("v1", m); err != nil {
		t.Fatal(err)
	}
	if err := r.AddModel("v1", m); err == nil {
		t.Fatal("duplicate version accepted; versions must be immutable")
	}
	if err := r.Add("v2", nil); err == nil {
		t.Fatal("nil bundle accepted")
	}
}

func TestRegistryPromoteAndRollbackWalkHistory(t *testing.T) {
	m, _ := fixture(t)
	r := NewRegistry()
	if err := r.Promote("ghost"); err == nil {
		t.Fatal("promoted an unregistered version")
	}
	for _, v := range []string{"v1", "v2", "v3"} {
		if err := r.AddModel(v, m); err != nil {
			t.Fatal(err)
		}
		if err := r.Promote(v); err != nil {
			t.Fatal(err)
		}
		if got := r.Active(); got != v {
			t.Fatalf("active %q after promoting %q", got, v)
		}
	}
	// Repeated rollbacks walk back through the promotion history.
	if v, err := r.Rollback(); err != nil || v != "v2" {
		t.Fatalf("rollback -> %q, %v; want v2", v, err)
	}
	if v, err := r.Rollback(); err != nil || v != "v1" {
		t.Fatalf("second rollback -> %q, %v; want v1", v, err)
	}
	if _, err := r.Rollback(); err == nil {
		t.Fatal("rollback past the first promotion succeeded")
	}
	if got := r.Active(); got != "v1" {
		t.Fatalf("active %q after exhausting history", got)
	}
}

func TestRegistrySetSpecializedNeedsActiveVersion(t *testing.T) {
	m, _ := fixture(t)
	r := NewRegistry()
	if err := r.SetSpecialized(0, m); err != ErrNoModel {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
	if err := r.AddModel("v1", m); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	if err := r.SetSpecialized(3, m); err != nil {
		t.Fatal(err)
	}
	infos := r.Versions()
	if len(infos) != 1 || !infos[0].Active {
		t.Fatalf("versions: %+v", infos)
	}
	if len(infos[0].Specialized) != 1 || infos[0].Specialized[0] != 3 {
		t.Fatalf("specialized set %v, want [3]", infos[0].Specialized)
	}
	// The specialized model is actually routed to.
	snap := r.current()
	if _, svc := snap.modelFor(3); svc != 3 {
		t.Fatal("specialized model not routed")
	}
	if _, svc := snap.modelFor(7); svc != -1 {
		t.Fatal("unknown service must fall back to general")
	}
}

func TestRegistryLoadDir(t *testing.T) {
	m, _ := fixture(t)
	dir := t.TempDir()
	for _, name := range []string{"v2.gob", "v1.gob"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Save(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	// A bundle file loads through the same path.
	bf, err := os.Create(filepath.Join(dir, "v3-bundle.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewBundle(m).Save(bf); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	// Non-gob files are ignored.
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("x"), 0o644)

	r := NewRegistry()
	versions, err := r.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"v1", "v2", "v3-bundle"}
	if strings.Join(versions, ",") != strings.Join(want, ",") {
		t.Fatalf("versions %v, want %v", versions, want)
	}
	if r.Active() != "" {
		t.Fatal("LoadDir must not promote anything")
	}
	if err := r.Promote("v3-bundle"); err != nil {
		t.Fatal(err)
	}
	if b, name, err := r.ActiveBundle(); err != nil || name != "v3-bundle" || b.General == nil {
		t.Fatalf("active bundle %q, %v", name, err)
	}
}

func TestRegistryLoadFileRejectsGarbage(t *testing.T) {
	r := NewRegistry()
	path := filepath.Join(t.TempDir(), "junk.gob")
	os.WriteFile(path, []byte("not a gob stream"), 0o644)
	if err := r.LoadFile("junk", path); err == nil {
		t.Fatal("garbage file registered as a model")
	}
	if err := r.LoadFile("missing", filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("missing file registered as a model")
	}
}
