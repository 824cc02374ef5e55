package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// appendN appends records "rec-0".."rec-(n-1)".
func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// replayAll reopens dir and returns every surviving record as strings.
func replayAll(t *testing.T, dir string) []string {
	t.Helper()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	var out []string
	if err := j.Replay(func(p []byte) error {
		out = append(out, string(p))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 10)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 10 || got[0] != "rec-0" || got[9] != "rec-9" {
		t.Fatalf("replay mismatch: %v", got)
	}
}

// TestJournalAppendBatchSyncsOnce: a batch under FsyncAlways is written
// in order and acknowledged with a single sync.
func TestJournalAppendBatchSyncsOnce(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var batch [][]byte
	var want []string
	for i := 0; i < 32; i++ {
		rec := fmt.Sprintf("rec-%d", i)
		batch = append(batch, []byte(rec))
		want = append(want, rec)
	}
	before := mSyncs.Value()
	if err := j.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if d := mSyncs.Value() - before; d != 1 {
		t.Fatalf("AppendBatch of %d records cost %d syncs, want 1", len(batch), d)
	}
	if err := j.AppendBatch([][]byte{[]byte("ok"), nil}); err == nil {
		t.Fatal("a batch with an empty record was accepted")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	j, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 20)
	if j.Segment() == 0 {
		t.Fatal("expected rotation past segment 0")
	}
	j.Close()
	if got := replayAll(t, dir); len(got) != 20 {
		t.Fatalf("want 20 records across segments, got %d", len(got))
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 5)
	j.Close()
	// Simulate a torn write: append garbage that looks like a partial
	// record (header promising more bytes than exist).
	path := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()

	got := replayAll(t, dir)
	if len(got) != 5 {
		t.Fatalf("want the 5 intact records, got %d", len(got))
	}
	// The repair must also have physically truncated the tail so the
	// journal can append cleanly again.
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append([]byte("after-repair")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	got = replayAll(t, dir)
	if len(got) != 6 || got[5] != "after-repair" {
		t.Fatalf("post-repair append lost: %v", got)
	}
}

func TestJournalBitFlipStopsReplayAtCorruption(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 8)
	j.Close()
	// Flip one payload byte in the middle of the segment: records before
	// the flip survive, the flipped one and everything after are dropped.
	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(segMagic) + 3*(recHeaderBytes+len("rec-0")) + recHeaderBytes + 2
	data[mid] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 3 {
		t.Fatalf("want 3 pre-corruption records, got %d: %v", len(got), got)
	}
}

func TestJournalCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 20) // spans several segments
	j.Close()
	// Corrupt segment 1's first record: segment 0 survives, segments ≥1
	// are truncated/dropped — replay order would otherwise be violated.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+recHeaderBytes] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	for i, rec := range got {
		if rec != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("record %d out of order: %q", i, rec)
		}
	}
	// Everything from the corrupt record on must be gone.
	if len(got) == 0 || len(got) >= 20 {
		t.Fatalf("unexpected survivor count %d", len(got))
	}
	j2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	segs, err := j2.segments()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs[:len(segs)-1] {
		if s > 1 {
			t.Fatalf("post-corruption segment %d survived repair", s)
		}
	}
}

func TestJournalCrashMidAppendTornWriteRecovered(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 3)
	SetCrashPoint(CrashMidAppend)
	defer ClearCrashPoint()
	crashed := false
	func() {
		defer RecoverCrash(&crashed)
		j.Append([]byte("torn-record-that-half-lands"))
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	// The unacknowledged record half-landed; recovery must drop it and
	// keep the 3 acknowledged ones.
	got := replayAll(t, dir)
	if len(got) != 3 {
		t.Fatalf("want 3 acknowledged records, got %v", got)
	}
}

func TestJournalCrashPreSyncLosesOnlyUnacknowledged(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 3)
	SetCrashPoint(CrashPreSync)
	defer ClearCrashPoint()
	crashed := false
	func() {
		defer RecoverCrash(&crashed)
		j.Append([]byte("not-yet-acked"))
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	// Pre-fsync the record may survive (page cache flushed anyway in this
	// process) or not — but the acknowledged prefix must be intact and in
	// order, and nothing may be torn.
	got := replayAll(t, dir)
	if len(got) < 3 {
		t.Fatalf("lost acknowledged records: %v", got)
	}
	for i := 0; i < 3; i++ {
		if got[i] != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("acknowledged record %d corrupted: %q", i, got[i])
		}
	}
}

func TestJournalCrashPostSyncKeepsAcknowledged(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	SetCrashPoint(CrashPostSync)
	defer ClearCrashPoint()
	crashed := false
	func() {
		defer RecoverCrash(&crashed)
		j.Append([]byte("acked"))
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	got := replayAll(t, dir)
	if len(got) != 1 || got[0] != "acked" {
		t.Fatalf("fsync-acknowledged record lost: %v", got)
	}
}

func TestJournalDropBefore(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 20)
	cur, err := j.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.DropBefore(cur); err != nil {
		t.Fatal(err)
	}
	segs, err := j.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != cur {
		t.Fatalf("want only segment %d after compaction, got %v", cur, segs)
	}
	j.Close()
	if got := replayAll(t, dir); len(got) != 0 {
		t.Fatalf("compacted journal should be empty, got %v", got)
	}
}

func TestJournalBatchFsyncPolicy(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Fsync: FsyncBatch, BatchAppends: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 10)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := replayAll(t, dir); len(got) != 10 {
		t.Fatalf("want 10, got %d", len(got))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "": FsyncAlways,
		"batch": FsyncBatch, "never": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("want error for bogus policy")
	}
}
