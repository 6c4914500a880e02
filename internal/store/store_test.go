package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"syscall"
	"testing"

	"lisa/internal/faultinject"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func putFlush(t *testing.T, s *Store, ns, key string, val []byte) {
	t.Helper()
	s.Put(ns, key, val)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func logBytes(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	return b
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	putFlush(t, s, "a", "k1", []byte("v1"))
	putFlush(t, s, "a", "k2", []byte("v2"))
	putFlush(t, s, "b", "k1", []byte("other-ns"))

	if v, ok := s.Get("a", "k1"); !ok || string(v) != "v1" {
		t.Fatalf("Get a/k1 = %q, %v", v, ok)
	}
	if v, ok := s.Get("b", "k1"); !ok || string(v) != "other-ns" {
		t.Fatalf("Get b/k1 = %q, %v", v, ok)
	}
	if _, ok := s.Get("a", "nope"); ok {
		t.Fatal("Get of absent key succeeded")
	}
	s.Close()

	// A fresh open rebuilds the index from the log.
	s2 := openT(t, dir)
	for _, tc := range []struct{ ns, key, want string }{
		{"a", "k1", "v1"}, {"a", "k2", "v2"}, {"b", "k1", "other-ns"},
	} {
		if v, ok := s2.Get(tc.ns, tc.key); !ok || string(v) != tc.want {
			t.Fatalf("after reopen Get %s/%s = %q, %v (want %q)", tc.ns, tc.key, v, ok, tc.want)
		}
	}
	if st := s2.Stats(); st.Records != 3 {
		t.Fatalf("records = %d, want 3", st.Records)
	}
}

func TestLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	putFlush(t, s, "a", "k", []byte("first"))
	putFlush(t, s, "a", "k", []byte("second"))
	if v, ok := s.Get("a", "k"); !ok || string(v) != "second" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	s.Close()
	s2 := openT(t, dir)
	if v, ok := s2.Get("a", "k"); !ok || string(v) != "second" {
		t.Fatalf("after reopen Get = %q, %v", v, ok)
	}
}

func TestIdenticalPutNotRewritten(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	putFlush(t, s, "a", "k", []byte("same"))
	before := logBytes(t, dir)
	putFlush(t, s, "a", "k", []byte("same"))
	after := logBytes(t, dir)
	if !bytes.Equal(before, after) {
		t.Fatalf("identical re-put grew the log: %d -> %d bytes", len(before), len(after))
	}
}

// TestTornTailRecovery truncates the log mid-record (a crashed writer's
// torn tail) and checks that reopening recovers: the torn record is
// dropped, every earlier record survives, and new writes land cleanly.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	putFlush(t, s, "a", "keep1", []byte("alpha"))
	putFlush(t, s, "a", "keep2", []byte("beta"))
	putFlush(t, s, "a", "torn", []byte("this record will be cut in half"))
	s.Close()

	path := filepath.Join(dir, logName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	if st := s2.Stats(); st.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", st.Recoveries)
	}
	if v, ok := s2.Get("a", "keep1"); !ok || string(v) != "alpha" {
		t.Fatalf("keep1 = %q, %v", v, ok)
	}
	if v, ok := s2.Get("a", "keep2"); !ok || string(v) != "beta" {
		t.Fatalf("keep2 = %q, %v", v, ok)
	}
	if _, ok := s2.Get("a", "torn"); ok {
		t.Fatal("torn record survived recovery")
	}
	// The tail is clean again: appends work and survive another reopen.
	putFlush(t, s2, "a", "torn", []byte("recomputed"))
	s2.Close()
	s3 := openT(t, dir)
	if v, ok := s3.Get("a", "torn"); !ok || string(v) != "recomputed" {
		t.Fatalf("recomputed torn = %q, %v", v, ok)
	}
}

// TestTornTailGarbage dumps raw garbage on the tail instead of a clean
// truncation; recovery must still find the frame boundary.
func TestTornTailGarbage(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	putFlush(t, s, "a", "keep", []byte("alpha"))
	s.Close()

	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("\x00\x01garbage that is no frame"))
	f.Close()

	s2 := openT(t, dir)
	if st := s2.Stats(); st.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", st.Recoveries)
	}
	if v, ok := s2.Get("a", "keep"); !ok || string(v) != "alpha" {
		t.Fatalf("keep = %q, %v", v, ok)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.compactMin = 64 // lower the dead-byte floor so a small test compacts
	val := make([]byte, 128)
	for i := 0; i < 32; i++ {
		for j := range val {
			val[j] = byte(i + j)
		}
		putFlush(t, s, "a", "churn", val)
		putFlush(t, s, "a", fmt.Sprintf("live%d", i%4), val)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}
	if st.DeadBytes > st.LiveBytes {
		t.Fatalf("dead %d > live %d after compaction", st.DeadBytes, st.LiveBytes)
	}
	// Everything live is still readable, here and after a reopen.
	if v, ok := s.Get("a", "churn"); !ok || !bytes.Equal(v, val) {
		t.Fatalf("churn after compaction = %v, %v", v, ok)
	}
	s.Close()
	s2 := openT(t, dir)
	if v, ok := s2.Get("a", "churn"); !ok || !bytes.Equal(v, val) {
		t.Fatalf("churn after reopen = %v, %v", v, ok)
	}
	for i := 0; i < 4; i++ {
		if _, ok := s2.Get("a", fmt.Sprintf("live%d", i)); !ok {
			t.Fatalf("live%d missing after compaction+reopen", i)
		}
	}

	// One more compaction, forced: it keeps the live set in log order,
	// and a reopen rebuilds exactly the index it leaves behind.
	before := indexOf(s2)
	s2.mu.Lock()
	if err := s2.flock(syscall.LOCK_EX); err != nil {
		s2.mu.Unlock()
		t.Fatal(err)
	}
	s2.compactLocked()
	s2.funlock()
	s2.mu.Unlock()
	after := indexOf(s2)
	if got := s2.Stats().Compactions; got != 1 {
		t.Fatalf("forced compaction did not run: %d compactions", got)
	}
	if a, b := keysInLogOrder(before), keysInLogOrder(after); !slices.Equal(a, b) {
		t.Fatalf("compaction reordered the live set:\n before %q\n after  %q", a, b)
	}
	s2.Close()
	if got := indexOf(openT(t, dir)); !reflect.DeepEqual(got, after) {
		t.Fatalf("reopen after compaction rebuilt index %v, want %v", got, after)
	}
}

// indexOf copies the store's in-memory index.
func indexOf(s *Store) map[string]indexEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.index)
}

// keysInLogOrder lists an index's keys by frame offset.
func keysInLogOrder(index map[string]indexEntry) []string {
	keys := slices.Collect(maps.Keys(index))
	slices.SortFunc(keys, func(a, b string) int { return cmp.Compare(index[a].off, index[b].off) })
	return keys
}

// TestCorruptionDetected flips a byte in a stored value on disk; the CRC
// must catch it and Get must answer miss, not wrong data.
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	putFlush(t, s, "a", "k", []byte("pristine"))
	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // last byte of the only value
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("a", "k"); ok {
		t.Fatalf("corrupted Get returned data: %q", v)
	}
	if st := s.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
}

// TestFaultinjectRead arms the store.read Corrupt point: reads must fail
// the CRC check and fall back to miss while armed, and recover after.
func TestFaultinjectRead(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	putFlush(t, s, "a", "k", []byte("pristine"))

	faultinject.Arm(faultinject.NewPlan(1).Set(FaultPointRead, faultinject.Corrupt))
	defer faultinject.Disarm()
	if v, ok := s.Get("a", "k"); ok {
		t.Fatalf("injected-corrupt Get returned data: %q", v)
	}
	if st := s.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
	faultinject.Disarm()
	if v, ok := s.Get("a", "k"); !ok || string(v) != "pristine" {
		t.Fatalf("post-disarm Get = %q, %v", v, ok)
	}
}

// TestArmedPutSkipped: writes issued while a faultinject plan is armed
// never reach the disk tier — the log stays byte-identical.
func TestArmedPutSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	putFlush(t, s, "a", "k", []byte("clean"))
	before := logBytes(t, dir)

	faultinject.Arm(faultinject.NewPlan(1).Set("something.else", faultinject.Panic))
	s.Put("a", "k2", []byte("poisoned"))
	s.Put("a", "k", []byte("poisoned overwrite"))
	faultinject.Disarm()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	if after := logBytes(t, dir); !bytes.Equal(before, after) {
		t.Fatalf("armed puts reached the store: %d -> %d bytes", len(before), len(after))
	}
	if st := s.Stats(); st.ArmedSkips != 2 {
		t.Fatalf("armed skips = %d, want 2", st.ArmedSkips)
	}
	if v, ok := s.Get("a", "k"); !ok || string(v) != "clean" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
}

// TestTwoStoresOneProcess exercises cross-handle sharing through the
// locked tail rescan: two Store handles on one directory observe each
// other's writes without reopening.
func TestTwoStoresOneProcess(t *testing.T) {
	dir := t.TempDir()
	s1 := openT(t, dir)
	s2 := openT(t, dir)
	putFlush(t, s1, "a", "from1", []byte("one"))
	if v, ok := s2.Get("a", "from1"); !ok || string(v) != "one" {
		t.Fatalf("s2 missed s1's write: %q, %v", v, ok)
	}
	putFlush(t, s2, "a", "from2", []byte("two"))
	if v, ok := s1.Get("a", "from2"); !ok || string(v) != "two" {
		t.Fatalf("s1 missed s2's write: %q, %v", v, ok)
	}
}

// TestStoreHelperProcess is not a test: it is the second process of
// TestTwoProcessSharing, run via exec of the test binary.
func TestStoreHelperProcess(t *testing.T) {
	if os.Getenv("LISA_STORE_HELPER") != "1" {
		t.Skip("helper process for TestTwoProcessSharing")
	}
	dir := os.Getenv("LISA_STORE_DIR")
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("helper Open: %v", err)
	}
	defer s.Close()
	v, ok := s.Get("t", "parent")
	if !ok {
		t.Fatal("helper could not read parent's record")
	}
	s.Put("t", "child", append(v, []byte(" seen by child")...))
	if err := s.Flush(); err != nil {
		t.Fatalf("helper Flush: %v", err)
	}
}

// TestTwoProcessSharing spawns a second OS process on the same store
// directory: the child must see the parent's record through the log, and
// the parent must pick up the child's append through the tail rescan —
// the advisory flock is what keeps the interleaving safe.
func TestTwoProcessSharing(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	putFlush(t, s, "t", "parent", []byte("hello"))

	cmd := exec.Command(os.Args[0], "-test.run", "^TestStoreHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "LISA_STORE_HELPER=1", "LISA_STORE_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process failed: %v\n%s", err, out)
	}
	if v, ok := s.Get("t", "child"); !ok || string(v) != "hello seen by child" {
		t.Fatalf("parent missed child's write: %q, %v", v, ok)
	}
}

// TestStoreHammer drives one store from 8 goroutines with mixed
// put/get/flush traffic; run under -race by verify.sh. Every key must
// hold one of the values some goroutine wrote for it, and a reopen must
// agree.
func TestStoreHammer(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.compactMin = 256 // let the hammer cross the compaction path too
	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("k%d", r%10)
				s.Put("h", key, []byte(fmt.Sprintf("g%d-r%d", g, r)))
				if v, ok := s.Get("h", key); ok && len(v) == 0 {
					t.Errorf("empty value for %s", key)
				}
				if r%17 == 0 {
					s.Flush()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(st *Store, label string) {
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("k%d", i)
			v, ok := st.Get("h", key)
			if !ok {
				t.Fatalf("%s: %s missing", label, key)
			}
			var g, r int
			if _, err := fmt.Sscanf(string(v), "g%d-r%d", &g, &r); err != nil {
				t.Fatalf("%s: %s holds garbage %q", label, key, v)
			}
		}
	}
	check(s, "live")
	s.Close()
	s2 := openT(t, dir)
	check(s2, "reopened")
	if st := s2.Stats(); st.Corruptions != 0 {
		t.Fatalf("hammer caused corruption reports: %+v", st)
	}
}

// TestStoreScopedPutsPersist: a store-scoped plan (faults aimed at the
// storage layer itself) must NOT trip the "never persist under injection"
// guard — the computation above the store is clean, and dropping writes
// would leave the chaos campaign nothing to crash.
func TestStoreScopedPutsPersist(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)

	faultinject.Arm(faultinject.NewPlan(1).
		Set(FaultPointCompact, faultinject.Budget). // never visited here
		ScopeStore())
	defer faultinject.Disarm()
	s.Put("a", "k", []byte("persisted"))
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st := s.Stats(); st.ArmedSkips != 0 {
		t.Fatalf("store-scoped put was skipped: %+v", st)
	}
	faultinject.Disarm()
	s.Close()
	s2 := openT(t, dir)
	if v, ok := s2.Get("a", "k"); !ok || string(v) != "persisted" {
		t.Fatalf("store-scoped put did not persist: %q, %v", v, ok)
	}
}

// TestInjectedWriteFailureSurfaced: a Budget fault at store.write loses
// the put like a full disk would, and the loss must be *visible* — Flush
// returns the error, Stats and the per-namespace counter record it.
func TestInjectedWriteFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	putFlush(t, s, "a", "kept", []byte("before faults"))

	faultinject.Arm(faultinject.NewPlan(1).
		Set(FaultPointWrite, faultinject.Budget).
		ScopeStore())
	s.Put("a", "lost", []byte("never lands"))
	err := s.Flush()
	faultinject.Disarm()
	if err == nil {
		t.Fatal("Flush after failed append returned nil")
	}
	st := s.Stats()
	if st.WriteErrors != 1 {
		t.Fatalf("WriteErrors = %d, want 1", st.WriteErrors)
	}
	if st.LastWriteError == "" {
		t.Fatal("LastWriteError empty after failed append")
	}
	if n := s.NamespaceWriteErrors("a"); n != 1 {
		t.Fatalf("NamespaceWriteErrors(a) = %d, want 1", n)
	}
	if n := s.NamespaceWriteErrors("other"); n != 0 {
		t.Fatalf("NamespaceWriteErrors(other) = %d, want 0", n)
	}
	// The failed put is gone; earlier data is untouched; the next Flush
	// barrier is clean again.
	if _, ok := s.Get("a", "lost"); ok {
		t.Fatal("failed put is readable")
	}
	if v, ok := s.Get("a", "kept"); !ok || string(v) != "before faults" {
		t.Fatalf("pre-fault record = %q, %v", v, ok)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("clean Flush still reports old error: %v", err)
	}
}

// TestInjectedCorruptWriteDetected: a Corrupt fault at store.write lands
// the frame with a rotted byte. Reads must detect the bad CRC and serve a
// miss, and a reopen must drop the frame in tail recovery — corrupted
// data is never served either way.
func TestInjectedCorruptWriteDetected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	putFlush(t, s, "a", "good", []byte("intact"))

	faultinject.Arm(faultinject.NewPlan(1).
		Set(FaultPointWrite, faultinject.Corrupt).
		ScopeStore())
	putFlush(t, s, "a", "rotten", []byte("bitrot"))
	faultinject.Disarm()

	if v, ok := s.Get("a", "rotten"); ok {
		t.Fatalf("corrupted record served: %q", v)
	}
	if st := s.Stats(); st.Corruptions == 0 {
		t.Fatal("corruption not counted")
	}
	if v, ok := s.Get("a", "good"); !ok || string(v) != "intact" {
		t.Fatalf("clean record = %q, %v", v, ok)
	}
	s.Close()
	s2 := openT(t, dir)
	if v, ok := s2.Get("a", "rotten"); ok {
		t.Fatalf("corrupted record survived reopen: %q", v)
	}
	if v, ok := s2.Get("a", "good"); !ok || string(v) != "intact" {
		t.Fatalf("clean record after reopen = %q, %v", v, ok)
	}
}

// TestInjectedSyncFailureSurfaced: a Budget fault at store.flush fails the
// batch's sync — every put in the batch counts as a write error and the
// Flush barrier reports it.
func TestInjectedSyncFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)

	faultinject.Arm(faultinject.NewPlan(1).
		Set(FaultPointFlush, faultinject.Budget).
		ScopeStore())
	s.Put("a", "k1", []byte("v1"))
	s.Put("a", "k2", []byte("v2"))
	err := s.Flush()
	faultinject.Disarm()
	if err == nil {
		t.Fatal("Flush after failed sync returned nil")
	}
	if st := s.Stats(); st.WriteErrors != 2 {
		t.Fatalf("WriteErrors = %d, want 2 (whole batch)", st.WriteErrors)
	}
}

// TestInjectedCompactAborted: a Budget fault at store.compact models "no
// room for the temp file" — compaction backs off, the log keeps its dead
// weight, and every live record stays readable.
func TestInjectedCompactAborted(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.compactMin = 64
	faultinject.Arm(faultinject.NewPlan(1).
		Set(FaultPointCompact, faultinject.Budget).
		ScopeStore())
	defer faultinject.Disarm()
	val := make([]byte, 128)
	for i := 0; i < 16; i++ {
		for j := range val {
			val[j] = byte(i + j)
		}
		putFlush(t, s, "a", "churn", val)
	}
	st := s.Stats()
	if st.Compactions != 0 {
		t.Fatalf("aborted compaction still ran: %+v", st)
	}
	if st.DeadBytes <= st.LiveBytes {
		t.Fatalf("expected dead > live with compaction suppressed: %+v", st)
	}
	if v, ok := s.Get("a", "churn"); !ok || !bytes.Equal(v, val) {
		t.Fatalf("churn = %v, %v", v, ok)
	}
}

// TestSetAfterWritesThenFails: SetAfter lets the first N appends land and
// fails sticky from then on — the knob the crash campaign turns to vary
// where in the write stream the process dies.
func TestSetAfterWritesThenFails(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	faultinject.Arm(faultinject.NewPlan(1).
		SetAfter(FaultPointWrite, faultinject.Budget, 2).
		ScopeStore())
	defer faultinject.Disarm()
	for i := 0; i < 4; i++ {
		s.Put("a", fmt.Sprintf("k%d", i), []byte{byte(i)})
		err := s.Flush()
		if i < 2 && err != nil {
			t.Fatalf("Flush %d (before fault armed): %v", i, err)
		}
		if i >= 2 && err == nil {
			t.Fatalf("Flush %d (fault armed) returned nil", i)
		}
	}
	if st := s.Stats(); st.WriteErrors != 2 {
		t.Fatalf("WriteErrors = %d, want 2 (skip=2 of 4 appends)", st.WriteErrors)
	}
	for i := 0; i < 2; i++ {
		if _, ok := s.Get("a", fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d (before fault armed) missing", i)
		}
	}
	for i := 2; i < 4; i++ {
		if _, ok := s.Get("a", fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("k%d (after fault armed) landed", i)
		}
	}
}

// rec is one record of a hand-built log.
type rec struct {
	key string
	val []byte
}

func (r rec) frame() []byte { return encodeFrame("s"+nsSep+r.key, r.val) }

// TestScanPaths opens hand-built logs that drive each branch of the
// buffered scan: frames larger than the scan buffer, frames straddling a
// buffer boundary, and damage in the middle of the log. Open must index
// exactly the frames before the first damaged one, truncate the log there,
// and serve only what it indexed; a second Open must then find the same
// records without a recovery.
func TestScanPaths(t *testing.T) {
	small := make([]rec, 6)
	for i := range small {
		small[i] = rec{fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("small value %d", i))}
	}
	big := rec{"big", bytes.Repeat([]byte{0xb7}, 3*scanBufSize/2)}
	// Frames of 3 KB and varying length, so frame starts drift across every
	// multiple of the buffer size.
	var straddle []rec
	for i := 0; i < 60; i++ {
		straddle = append(straddle, rec{fmt.Sprintf("st%d", i), bytes.Repeat([]byte{byte(i)}, 2980+i)})
	}
	badCRC := small[3].frame()
	badCRC[len(badCRC)-1] ^= 0xff
	// A header whose lengths pass every bound but run past the end of the
	// file: the scan must stop there without reading or allocating them.
	pastEOF := make([]byte, headerSize+20)
	pastEOF[4] = recordVersion
	binary.LittleEndian.PutUint32(pastEOF[5:9], 6)
	binary.LittleEndian.PutUint32(pastEOF[9:13], maxValLen)

	cases := []struct {
		name       string
		good       []rec  // frames Open must index, in log order
		bad        []byte // a damaged tail after them
		lost       []rec  // records in the damaged tail
		recoveries uint64
	}{
		{name: "value larger than the buffer", good: []rec{small[0], big, small[1]}},
		{name: "frames straddle buffer boundaries", good: straddle},
		{
			name:       "bad CRC mid-log",
			good:       small[:3],
			bad:        slices.Concat(badCRC, small[4].frame(), small[5].frame()),
			lost:       small[3:],
			recoveries: 1,
		},
		{
			name:       "lengths past end of file",
			good:       small[:3],
			bad:        pastEOF,
			recoveries: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var good []byte
			for _, r := range tc.good {
				good = append(good, r.frame()...)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, logName)
			if err := os.WriteFile(path, append(slices.Clone(good), tc.bad...), 0o644); err != nil {
				t.Fatal(err)
			}
			check := func(s *Store, label string, recoveries uint64) {
				t.Helper()
				if st := s.Stats(); st.Recoveries != recoveries || st.Records != len(tc.good) {
					t.Fatalf("%s: recoveries %d, records %d; want %d, %d", label, st.Recoveries, st.Records, recoveries, len(tc.good))
				}
				if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(good)) {
					t.Fatalf("%s: log is %v bytes (%v), want %d", label, fi.Size(), err, len(good))
				}
				for _, r := range tc.good {
					if v, ok := s.Get("s", r.key); !ok || !bytes.Equal(v, r.val) {
						t.Fatalf("%s: Get %s = %d bytes, %v; want its %d bytes", label, r.key, len(v), ok, len(r.val))
					}
				}
				for _, r := range tc.lost {
					if _, ok := s.Get("s", r.key); ok {
						t.Fatalf("%s: %s after the damage was served", label, r.key)
					}
				}
			}
			s := openT(t, dir)
			check(s, "first open", tc.recoveries)
			index := indexOf(s)
			s.Close()
			s2 := openT(t, dir)
			check(s2, "second open", 0)
			if got := indexOf(s2); !reflect.DeepEqual(got, index) {
				t.Fatalf("second open indexed %v, first %v", got, index)
			}
		})
	}
	off, crossed := 0, false
	for _, r := range straddle {
		n := len(r.frame())
		crossed = crossed || off/scanBufSize != (off+n-1)/scanBufSize
		off += n
	}
	if !crossed {
		t.Fatal("no straddle frame crosses a multiple of the buffer size")
	}
}

// writeWarmLog writes a store.log shaped like the one a pass of cold
// `lisa gate -store` processes over the corpus leaves behind, and returns
// its frame count: 600 frames, 270 of them snapshot records of 9–18 KB (180
// keys; every third snapshot frame rewrites an earlier key, as a snapshot
// is written again once its call graph is built) and 330 small solver and
// fingerprint records.
func writeWarmLog(tb testing.TB, dir string) int {
	tb.Helper()
	const frames = 600
	var log []byte
	var snaps, smalls int
	for i := 0; i < frames; i++ {
		var key string
		var size int
		if i%20 < 9 {
			// Of every three snapshot frames, the first two add keys and
			// the third rewrites the first.
			id := snaps/3*2 + snaps%3
			if snaps%3 == 2 {
				id -= 2
			}
			key, size = fmt.Sprintf("snap.v2%s%064x", nsSep, id), 9000+snaps*7919%9000
			snaps++
		} else {
			key, size = fmt.Sprintf("fp.v1%s%064x", nsSep, smalls), []int{60, 60, 200, 550}[smalls%4]
			smalls++
		}
		val := make([]byte, size)
		for j := range val {
			val[j] = byte(i + j*7)
		}
		log = append(log, encodeFrame(key, val)...)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
		tb.Fatal(err)
	}
	return frames
}

// TestOpenAllocs guards what opening a warm store costs a cold process:
// Open plus Close of a writeWarmLog store allocates at most one object per
// frame (its index key) plus 64 for the handle, the files, the scan buffer
// and the index map.
func TestOpenAllocs(t *testing.T) {
	dir := t.TempDir()
	frames := writeWarmLog(t, dir)
	allocs := testing.AllocsPerRun(10, func() {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	if limit := float64(frames + 64); allocs > limit {
		t.Fatalf("Open+Close allocates %.0f objects on a %d-frame log, want at most %.0f", allocs, frames, limit)
	}
}

// BenchmarkStoreOpen times Open plus Close of a writeWarmLog store, the
// store's share of every cold `lisa gate -store` process.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	writeWarmLog(b, dir)
	b.ReportAllocs()
	for b.Loop() {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
