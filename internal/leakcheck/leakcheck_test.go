package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// withRetryDeadline shortens the retry window (default 2s) so checks
// that expect a report fail fast.
func withRetryDeadline(d time.Duration) Option {
	return func(o *opts) { o.maxWait = d }
}

func TestFindCleanProcess(t *testing.T) {
	if err := Find(); err != nil {
		t.Fatalf("clean process reported a leak: %v", err)
	}
}

func TestFindDetectsLeak(t *testing.T) {
	stop := make(chan struct{})
	go func() { <-stop }() // deliberate leak for the duration of the check
	err := Find(withRetryDeadline(50 * time.Millisecond))
	if err == nil {
		close(stop)
		t.Fatal("Find missed a parked goroutine")
	}
	if !strings.Contains(err.Error(), "TestFindDetectsLeak") {
		t.Errorf("leak report does not name the leaking site:\n%v", err)
	}
	close(stop)
	if err := Find(); err != nil {
		t.Fatalf("leak persisted after release: %v", err)
	}
}

func TestFindRetriesUntilExit(t *testing.T) {
	// A goroutine that exits on its own inside the retry window must not
	// be reported: Find races teardown and is expected to absorb it.
	go time.Sleep(30 * time.Millisecond)
	if err := Find(); err != nil {
		t.Fatalf("short-lived goroutine reported as leak: %v", err)
	}
}

func TestIgnoreCurrent(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	time.Sleep(5 * time.Millisecond) // let it park
	opt := IgnoreCurrent()
	if err := Find(opt, withRetryDeadline(50*time.Millisecond)); err != nil {
		t.Fatalf("IgnoreCurrent did not absorb the pre-existing goroutine: %v", err)
	}
}

func TestIgnoreAnyFunction(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	go parkedHelper(stop)
	err := Find(
		IgnoreAnyFunction("diagnet/internal/leakcheck.parkedHelper"),
		withRetryDeadline(50*time.Millisecond),
	)
	if err != nil {
		t.Fatalf("IgnoreAnyFunction did not filter the helper: %v", err)
	}
}

func parkedHelper(stop chan struct{}) { <-stop }

func TestAllowlist(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	go allowedHelper(stop)
	Allow("leakcheck.allowedHelper")
	defer func() {
		allowMu.Lock()
		allowList = nil
		allowMu.Unlock()
	}()
	if err := Find(withRetryDeadline(50 * time.Millisecond)); err != nil {
		t.Fatalf("allowlisted goroutine still reported: %v", err)
	}
}

func allowedHelper(stop chan struct{}) { <-stop }

func TestParse(t *testing.T) {
	dump := `goroutine 1 [running]:
main.main()
	/src/main.go:10 +0x64

goroutine 18 [chan receive, 5 minutes]:
diagnet/internal/cluster.(*Pool).run(0xc000100000)
	/src/pool.go:85 +0x9c
created by diagnet/internal/cluster.NewPool in goroutine 1
	/src/pool.go:48 +0x1f4
`
	gs := parse(dump)
	if len(gs) != 2 {
		t.Fatalf("parsed %d goroutines, want 2", len(gs))
	}
	g := gs[1]
	if g.ID != 18 {
		t.Errorf("ID = %d, want 18", g.ID)
	}
	if g.State != "chan receive" {
		t.Errorf("State = %q, want %q", g.State, "chan receive")
	}
	if g.FirstFunc != "diagnet/internal/cluster.(*Pool).run" {
		t.Errorf("FirstFunc = %q", g.FirstFunc)
	}
	if g.CreatedBy != "diagnet/internal/cluster.NewPool" {
		t.Errorf("CreatedBy = %q", g.CreatedBy)
	}
	if gs[0].State != "running" || gs[0].FirstFunc != "main.main" {
		t.Errorf("first goroutine parsed as %+v", gs[0])
	}
}

func TestCountFDs(t *testing.T) {
	n := CountFDs()
	if n == -1 {
		t.Skip("proc filesystem unavailable")
	}
	if n <= 0 {
		t.Fatalf("CountFDs = %d, want > 0 (stdin/stdout/stderr at minimum)", n)
	}
}

func TestMain(m *testing.M) {
	VerifyTestMain(m)
}
