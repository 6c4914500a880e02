package diffutil_test

import (
	"fmt"

	"lisa/internal/diffutil"
)

func ExampleUnified() {
	before := "if (s == null) {\n\tthrow;\n}\ncreate(path, s);\n"
	after := "if (s == null || s.isClosing()) {\n\tthrow;\n}\ncreate(path, s);\n"
	fmt.Print(diffutil.Unified("prep.mj", diffutil.Diff(before, after), 0))
	// Output:
	// --- a/prep.mj
	// +++ b/prep.mj
	// @@ -1,1 +1,1 @@
	// -if (s == null) {
	// +if (s == null || s.isClosing()) {
}

func ExampleCount() {
	s := diffutil.Count("a\nb\nc\n", "a\nX\nc\nd\n")
	fmt.Printf("+%d -%d =%d\n", s.Added, s.Removed, s.Kept)
	// Output: +2 -1 =2
}
