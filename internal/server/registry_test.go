package server

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/faultinject"
	"lisa/internal/program"
	"lisa/internal/store"
	"lisa/internal/ticket"
)

var update = flag.Bool("update", false, "rewrite testdata/registry.golden from the current inference")

const registryGolden = "testdata/registry.golden"

// corpusRegistries renders every corpus case's registry record payload,
// inferred on a fresh engine by the code a case runtime's build runs, in
// corpus order, each under an "== case <id>" line.
func corpusRegistries(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, cs := range corpus.Load().Cases {
		e := core.New()
		registered, err := inferRegistry(e, cs)
		if err != nil {
			t.Fatalf("%s: %v", cs.ID, err)
		}
		sb.WriteString("== case " + cs.ID + "\n")
		sb.Write(encodeRegistry(registered, e.Registry))
	}
	return sb.String()
}

// TestRegistryGolden pins every corpus case's registry record: the
// registration lines, the rules' spec and their origins. A change to
// inference or to the cross-check that alters any of them fails here;
// rerun with -update only when the change is intended, and then set
// registryVersion to the new golden's hash.
func TestRegistryGolden(t *testing.T) {
	got := corpusRegistries(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(registryGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(registryGolden)
	if err != nil {
		t.Fatal(err)
	}
	want, gotLines := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(want) || i < len(gotLines); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("registry records differ from %s at line %d:\n got: %s\nwant: %s\n(rerun with -update only when the change is intended, then set registryVersion)", registryGolden, i+1, g, w)
		}
	}
}

// TestRegistryVersionIsGoldenHash: registryVersion, which every registry
// record's key carries, is the hash of the golden of every corpus record.
// A change that regenerates the golden therefore re-keys every record, and
// a record written before it reads as absent.
func TestRegistryVersionIsGoldenHash(t *testing.T) {
	raw, err := os.ReadFile(registryGolden)
	if err != nil {
		t.Fatal(err)
	}
	if h := program.Hash(string(raw)); registryVersion != h {
		t.Fatalf("registryVersion = %s, but %s hashes to %s: set registryVersion to the golden's hash", registryVersion, registryGolden, h)
	}
}

// TestRegistryRestoreEqualsInferred: for every corpus case, restoring the
// record of an inferred registry gives a registry deeply equal to it,
// origins included, and the same registration lines.
func TestRegistryRestoreEqualsInferred(t *testing.T) {
	for _, cs := range corpus.Load().Cases {
		e := core.New()
		registered, err := inferRegistry(e, cs)
		if err != nil {
			t.Fatalf("%s: %v", cs.ID, err)
		}
		reg, lines, ok := restoreRegistry(encodeRegistry(registered, e.Registry))
		if !ok {
			t.Fatalf("%s: its own record does not restore", cs.ID)
		}
		if !reflect.DeepEqual(reg, e.Registry) {
			t.Errorf("%s: restored registry differs from the inferred one:\n%s\nwant:\n%s", cs.ID, reg.Summary(), e.Registry.Summary())
		}
		if lines != registered {
			t.Errorf("%s: restored registration lines %q, want %q", cs.ID, lines, registered)
		}
	}
}

// registryRow is the server's registry tier row.
func registryRow(srv *Server) store.TierStats { return srv.registryTier.TierStats() }

// coldRuntime builds cs's runtime on a new server over st, as the first
// request of a cold process does.
func coldRuntime(t *testing.T, st *store.Store, cs *ticket.Case) (*Server, *caseRuntime) {
	t.Helper()
	srv := New(Config{Corpus: corpus.Load(), Store: st})
	rt, err := srv.runtime(cs.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return srv, rt
}

// TestRegistryRecordMisses: a registry record that fails to restore is a
// miss. The server infers the case's rules again, exactly as without a
// store, and (when no fault plan is armed) writes the record again, so the
// next cold server restores it.
func TestRegistryRecordMisses(t *testing.T) {
	cs := corpusCase(t, "zk-sync-serialize")
	twin := localTwin(t, cs)
	wantLines, err := inferRegistry(core.New(), cs)
	if err != nil {
		t.Fatal(err)
	}
	good := encodeRegistry(wantLines, twin.Registry)
	var rec registryRecord
	if err := json.Unmarshal(good, &rec); err != nil {
		t.Fatal(err)
	}
	record := func(mut func(*registryRecord)) []byte {
		r := rec
		r.Origins = append([][]string(nil), rec.Origins...)
		mut(&r)
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	key := registryKey(registryVersion, cs)
	for _, tt := range []struct {
		name string
		key  string
		raw  []byte
		plan *faultinject.Plan // armed while the first server builds
	}{
		{"store-read-corrupt", key, good, faultinject.NewPlan(1).Set(store.FaultPointRead, faultinject.Corrupt)},
		{"spec-does-not-parse", key, record(func(r *registryRecord) { r.Spec = "rule broken\ntarget: \n" }), nil},
		{"origin-count-mismatch", key, record(func(r *registryRecord) { r.Origins = append(r.Origins, []string{"ZKS-0"}) }), nil},
		{"other-version-key", registryKey("another-version", cs), good, nil},
	} {
		t.Run(tt.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			st.Put(registryNamespace, tt.key, tt.raw)
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}

			if tt.plan != nil {
				faultinject.Arm(tt.plan)
			}
			srv, rt := coldRuntime(t, st, cs)
			faultinject.Disarm()
			row := registryRow(srv)
			if row.DiskHits != 0 || row.DiskMisses != 1 {
				t.Errorf("first server's registry row %+v, want 0 disk hits and 1 miss", row)
			}
			wantWrites := uint64(1)
			if tt.plan != nil {
				wantWrites = 0 // nothing is written under an armed plan
			}
			if row.DiskWrites != wantWrites {
				t.Errorf("first server wrote %d registry records, want %d", row.DiskWrites, wantWrites)
			}
			if !reflect.DeepEqual(rt.engine.Registry, twin.Registry) || rt.registered != wantLines {
				t.Errorf("inferred again:\n%s%s\nwant:\n%s%s", rt.registered, rt.engine.Registry.Summary(), wantLines, twin.Registry.Summary())
			}

			srv, rt = coldRuntime(t, st, cs)
			if row := registryRow(srv); row.DiskHits != 1 || row.DiskMisses != 0 || row.DiskWrites != 0 {
				t.Errorf("next cold server's registry row %+v, want 1 disk hit and nothing else", row)
			}
			if !reflect.DeepEqual(rt.engine.Registry, twin.Registry) || rt.registered != wantLines {
				t.Errorf("restored:\n%s%s\nwant:\n%s%s", rt.registered, rt.engine.Registry.Summary(), wantLines, twin.Registry.Summary())
			}
		})
	}
}

// TestArmedPlanWritesNoRegistry: a registry inferred while a fault plan is
// armed is never written, whether the plan targets the computation (a
// solver fault inside the cross-check or the equivalence check changes
// which rules register) or is store-scoped, which store.Put lets through.
// The next cold server infers the clean registry and writes that.
func TestArmedPlanWritesNoRegistry(t *testing.T) {
	cs := corpusCase(t, "zk-ephemeral")
	twin := localTwin(t, cs)
	for _, tt := range []struct {
		name string
		plan *faultinject.Plan
		// degraded: the plan changes the rules that register. A failed
		// equivalence check registers the second ticket's rule separately.
		degraded bool
	}{
		{"solver-budget", faultinject.NewPlan(1).Set("smt.solve", faultinject.Budget), true},
		{"store-scoped", faultinject.NewPlan(1).ScopeStore(), false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			faultinject.Arm(tt.plan)
			srv, armed := coldRuntime(t, st, cs)
			faultinject.Disarm()
			if same := reflect.DeepEqual(armed.engine.Registry, twin.Registry); same == tt.degraded {
				t.Errorf("armed build registered (degraded: %v):\n%s", tt.degraded, armed.engine.Registry.Summary())
			}
			if row := registryRow(srv); row.DiskWrites != 0 {
				t.Errorf("armed build wrote %d registry records", row.DiskWrites)
			}
			if _, ok := st.Get(registryNamespace, registryKey(registryVersion, cs)); ok {
				t.Fatal("the store holds a registry record inferred under an armed plan")
			}

			srv, rt := coldRuntime(t, st, cs)
			if row := registryRow(srv); row.DiskHits != 0 || row.DiskWrites != 1 {
				t.Errorf("clean build's registry row %+v, want a miss and one write", row)
			}
			if !reflect.DeepEqual(rt.engine.Registry, twin.Registry) {
				t.Errorf("clean build registered:\n%s\nwant:\n%s", rt.engine.Registry.Summary(), twin.Registry.Summary())
			}
			if _, ok := st.Get(registryNamespace, registryKey(registryVersion, cs)); !ok {
				t.Error("the clean build wrote no registry record")
			}
		})
	}
}
