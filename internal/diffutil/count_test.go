package diffutil_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lisa/internal/corpus"
	"lisa/internal/diffutil"
)

// TestCountLargeAppendAllocs: counting zk-ephemeral's head against the
// head with 4,000 classes (12,000 lines) appended allocates under 1 MB.
func TestCountLargeAppendAllocs(t *testing.T) {
	head := corpus.Load().Get("zk-ephemeral").Head()
	var grown strings.Builder
	grown.WriteString(head)
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&grown, "class Pad%d {\n\tint f;\n}\n", i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := diffutil.Count(head, grown.String())
	runtime.ReadMemStats(&after)
	if s.Added != 12000 || s.Removed != 0 {
		t.Fatalf("Count = %+v, want 12000 lines added and none removed", s)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Count allocated %d bytes, want under 1 MB", alloc)
	}
}
