// Package leakcheck is a zero-dependency goroutine-leak detector for the
// repo's e2e and integration suites (DESIGN.md §17). Every runtime plane
// (serving, cluster, continual, obs, durable, collector) owns background
// goroutines; a Close/Stop path that forgets one turns a long-lived
// monitoring process into the resource leak it is supposed to diagnose —
// the dominant operational failure mode reported by production RCA
// deployments.
//
// The model is snapshot-and-filter: runtime.Stack(·, true) captures every
// goroutine, known runtime/testing frames are filtered out, and anything
// left is a suspected leak. Because goroutine exits are asynchronous
// (a Close may return before a worker's final deferred statements run),
// Find retries with exponential backoff before declaring a leak.
//
// Entry points:
//
//	leakcheck.VerifyNone(t)          // end of one test
//	leakcheck.VerifyTestMain(m)      // whole package, in TestMain
//	leakcheck.Find(opts...)          // plumbing; soak harness uses it
//
// Intentionally process-lived goroutines (a package-level cache janitor,
// a metrics flusher) are declared once with Allow, or per-call with the
// Ignore* options.
package leakcheck

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Goroutine is one parsed stack from a snapshot.
type Goroutine struct {
	// ID is the runtime's goroutine id.
	ID int
	// State is the wait reason from the header line ("chan receive",
	// "IO wait", "running", ...), without any ", N minutes" suffix.
	State string
	// FirstFunc is the topmost function on the stack.
	FirstFunc string
	// CreatedBy is the "created by" function, when present.
	CreatedBy string
	// Stack is the goroutine's full stack text, including the header.
	Stack string
}

// String renders a one-line summary.
func (g Goroutine) String() string {
	return fmt.Sprintf("goroutine %d [%s] %s (created by %s)", g.ID, g.State, g.FirstFunc, g.CreatedBy)
}

// opts collects the effective options of one Find call.
type opts struct {
	ignoreIDs   map[int]bool
	ignoreTop   []string
	ignoreAny   []string
	maxRetries  int
	maxWait     time.Duration
	cleanupHTTP bool
}

// Option customizes one verification.
type Option func(*opts)

// IgnoreCurrent snapshots the goroutines alive right now and excludes
// them from the later verification — the option for mid-process checks
// where pre-existing background goroutines are someone else's business.
func IgnoreCurrent() Option {
	ids := map[int]bool{}
	for _, g := range interesting(stacks(), defaultOpts()) {
		ids[g.ID] = true
	}
	return func(o *opts) {
		for id := range ids {
			o.ignoreIDs[id] = true
		}
	}
}

// IgnoreTopFunction excludes goroutines whose topmost frame is the given
// fully-qualified function (e.g. "internal/poll.runtime_pollWait").
func IgnoreTopFunction(f string) Option {
	return func(o *opts) { o.ignoreTop = append(o.ignoreTop, f) }
}

// IgnoreAnyFunction excludes goroutines with the given fully-qualified
// function anywhere on the stack (including the created-by frame).
func IgnoreAnyFunction(f string) Option {
	return func(o *opts) { o.ignoreAny = append(o.ignoreAny, f) }
}

// NoHTTPCleanup disables the default closing of http.DefaultTransport's
// idle connections before the first snapshot. The cleanup exists because
// tests that exercised a server through the default transport otherwise
// leave persistConn read loops parked for the 90s idle timeout — a true
// keep-alive, not a leak.
func NoHTTPCleanup() Option {
	return func(o *opts) { o.cleanupHTTP = false }
}

// allowlist holds process-lived goroutine declarations (Allow).
var (
	allowMu   sync.Mutex
	allowList []string
)

// Allow declares a function substring whose goroutines are intentionally
// process-lived and never reported (e.g. a package-level janitor started
// in init). Applies to every later verification in the process.
func Allow(funcSubstring string) {
	allowMu.Lock()
	allowList = append(allowList, funcSubstring)
	allowMu.Unlock()
}

func defaultOpts() *opts {
	return &opts{
		ignoreIDs:   map[int]bool{},
		maxRetries:  20,
		maxWait:     2 * time.Second,
		cleanupHTTP: true,
	}
}

func buildOpts(options ...Option) *opts {
	o := defaultOpts()
	for _, opt := range options {
		opt(o)
	}
	return o
}

// stacks captures every goroutine's stack text, growing the buffer until
// the dump fits.
func stacks() []Goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return parse(string(buf))
}

// parse splits a full runtime.Stack dump into goroutines.
func parse(dump string) []Goroutine {
	var out []Goroutine
	for _, block := range strings.Split(dump, "\n\n") {
		block = strings.TrimSpace(block)
		if block == "" {
			continue
		}
		g, ok := parseOne(block)
		if ok {
			out = append(out, g)
		}
	}
	return out
}

// parseOne parses one "goroutine N [state]:" block.
func parseOne(block string) (Goroutine, bool) {
	lines := strings.Split(block, "\n")
	header := lines[0]
	if !strings.HasPrefix(header, "goroutine ") {
		return Goroutine{}, false
	}
	rest := strings.TrimPrefix(header, "goroutine ")
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return Goroutine{}, false
	}
	id, err := strconv.Atoi(rest[:sp])
	if err != nil {
		return Goroutine{}, false
	}
	state := rest[sp+1:]
	state = strings.TrimPrefix(state, "[")
	state = strings.TrimSuffix(strings.TrimSuffix(state, ":"), "]")
	// Drop wait-duration suffixes: "chan receive, 3 minutes".
	if i := strings.IndexByte(state, ','); i >= 0 {
		state = state[:i]
	}
	g := Goroutine{ID: id, State: state, Stack: block}
	for _, line := range lines[1:] {
		if strings.HasPrefix(line, "\t") {
			continue // file:line frame detail
		}
		fn := funcName(line)
		if fn == "" {
			continue
		}
		if strings.HasPrefix(line, "created by ") {
			g.CreatedBy = fn
			continue
		}
		if g.FirstFunc == "" {
			g.FirstFunc = fn
		}
	}
	return g, true
}

// funcName strips the argument list and "created by" prefix from a stack
// frame's function line.
func funcName(line string) string {
	line = strings.TrimPrefix(line, "created by ")
	if i := strings.Index(line, " in goroutine "); i >= 0 {
		line = line[:i]
	}
	if i := strings.LastIndexByte(line, '('); i >= 0 && strings.HasSuffix(line, ")") {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// runtimeOwned reports stacks the Go runtime, the testing harness, or the
// OS-signal plumbing own — never leaks, whatever the suite does.
func runtimeOwned(g Goroutine) bool {
	for _, prefix := range []string{
		"testing.",
		"runtime.",
		"os/signal.",
		"runtime/pprof.",
		"runtime/trace.",
	} {
		if strings.HasPrefix(g.FirstFunc, prefix) {
			return true
		}
	}
	// The goroutine running the check itself.
	if g.State == "running" {
		return true
	}
	return false
}

// interesting filters a snapshot down to suspected leaks.
func interesting(gs []Goroutine, o *opts) []Goroutine {
	allowMu.Lock()
	allowed := append([]string(nil), allowList...)
	allowMu.Unlock()

	var out []Goroutine
next:
	for _, g := range gs {
		if runtimeOwned(g) || o.ignoreIDs[g.ID] {
			continue
		}
		for _, f := range o.ignoreTop {
			if g.FirstFunc == f {
				continue next
			}
		}
		for _, f := range o.ignoreAny {
			if g.FirstFunc == f || g.CreatedBy == f || strings.Contains(g.Stack, f+"(") {
				continue next
			}
		}
		for _, sub := range allowed {
			if strings.Contains(g.Stack, sub) {
				continue next
			}
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Interesting returns the goroutines a verification would report right
// now, without retrying — the soak harness samples this for its growth
// envelope.
func Interesting(options ...Option) []Goroutine {
	return interesting(stacks(), buildOpts(options...))
}

// Find reports an error when goroutines outside the filter set survive
// the retry window. Exits are asynchronous, so the check backs off
// (1ms, 2ms, 4ms, ... capped at 100ms) until the set drains or the
// deadline passes.
func Find(options ...Option) error {
	o := buildOpts(options...)
	if o.cleanupHTTP {
		// Idle keep-alive connections through the shared default transport
		// park a readLoop for the transport's 90s idle timeout; they are
		// connection-pool state, not leaks.
		http.DefaultClient.CloseIdleConnections()
	}
	var leaked []Goroutine
	deadline := time.Now().Add(o.maxWait)
	backoff := time.Millisecond
	for i := 0; ; i++ {
		leaked = interesting(stacks(), o)
		if len(leaked) == 0 {
			return nil
		}
		if i >= o.maxRetries || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "found %d unexpected goroutine(s):", len(leaked))
	for _, g := range leaked {
		fmt.Fprintf(&b, "\n\n%s\n%s", g.String(), g.Stack)
	}
	return fmt.Errorf("leakcheck: %s", b.String())
}

// TestingT is the subset of *testing.T VerifyNone needs.
type TestingT interface {
	Error(args ...any)
	Helper()
}

// VerifyNone fails the test when goroutines leak past the filter set.
// Call it at the end of a test (or defer it) after every component the
// test started has been closed.
func VerifyNone(t TestingT, options ...Option) {
	t.Helper()
	if err := Find(options...); err != nil {
		t.Error(err)
	}
}

// testMain is the subset of *testing.M VerifyTestMain needs.
type testMain interface {
	Run() int
}

// VerifyTestMain wraps a package's TestMain: it runs the suite and, when
// the suite passed, fails the package if goroutines survived it.
//
//	func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
//
// Never returns: it exits with the suite's code, or 1 on a leak.
func VerifyTestMain(m testMain, options ...Option) {
	code := m.Run()
	if code == 0 {
		if err := Find(options...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}
