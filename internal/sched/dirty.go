package sched

import (
	"sort"

	"lisa/internal/diffutil"
	"lisa/internal/minij"
	"lisa/internal/program"
)

// Dirty is the impact set of one proposed change: the methods whose
// behavior the change can affect. The incremental gate uses it to report
// which jobs the diff can reach; jobs outside the set are candidates for
// cache service. The classification is conservative: anything the analysis
// cannot localize (compile failures, class/field/signature changes, which
// can reshape resolution and the call graph arbitrarily) marks everything
// dirty.
type Dirty struct {
	// All means the change could not be localized to method bodies.
	All bool
	// Methods maps qualified method names ("Class.method") whose canonical
	// body text changed.
	Methods map[string]bool
	// Stat summarizes the textual diff.
	Stat diffutil.Stats
}

// ComputeDirtySnapshots diffs two loaded versions of a system source and
// localizes the change to method bodies. Whitespace-only edits produce an
// empty set: method identity is canonical AST text, not source text. The
// result is a pure function of the two versions, so it is memoized on the
// change's snapshot, keyed by the base's content address: the scheduler's
// dirty set and the gate's diff stat share one diff, and a resubmitted
// change diffs nothing. The returned Dirty is shared and read-only.
func ComputeDirtySnapshots(old, new *program.Snapshot) *Dirty {
	return program.Memo(new, "sched.dirty\x00"+old.Hash(), func() *Dirty {
		d := &Dirty{Methods: map[string]bool{}}
		d.Stat = diffutil.Count(old.Source(), new.Source())
		if d.Stat.Added+d.Stat.Removed > 0 {
			localizeDirty(d, old, new)
		}
		return d
	})
}

// localizeDirty compares two compiled versions: an unchanged declaration
// skeleton localizes the diff to the method bodies whose canonical digest
// differs; a reshaped skeleton marks everything dirty.
func localizeDirty(d *Dirty, old, new *program.Snapshot) {
	if old.Shape() != new.Shape() {
		d.All = true
		return
	}
	for _, m := range new.Program().Methods() {
		if old.MethodDigest(m) != new.MethodDigest(m) {
			d.Methods[m.FullName()] = true
		}
	}
}

// Any reports whether the change affects anything at all.
func (d *Dirty) Any() bool { return d.All || len(d.Methods) > 0 }

// Contains reports whether the named method is dirty.
func (d *Dirty) Contains(fullName string) bool { return d.All || d.Methods[fullName] }

// SortedMethods lists the dirty methods in deterministic order.
func (d *Dirty) SortedMethods() []string {
	out := make([]string, 0, len(d.Methods))
	for name := range d.Methods {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// impactsClosure reports whether any method in a site job's read closure
// is dirty — i.e. whether the diff can reach that job.
func (d *Dirty) impactsClosure(closure []*minij.Method) bool {
	if d.All {
		return true
	}
	for _, m := range closure {
		if d.Methods[m.FullName()] {
			return true
		}
	}
	return false
}
