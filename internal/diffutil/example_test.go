package diffutil_test

import (
	"fmt"

	"lisa/internal/diffutil"
)

func ExampleCount() {
	s := diffutil.Count("a\nb\nc\n", "a\nX\nc\nd\n")
	fmt.Printf("+%d -%d =%d\n", s.Added, s.Removed, s.Kept)
	// Output: +2 -1 =2
}
