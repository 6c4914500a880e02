package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"lisa/internal/ci"
	"lisa/internal/core"
)

// tracer keeps the spans of a traced run in memory; they are written out
// as Chrome trace-event JSON when the run ends. A span is named
// "<layer>.<call>", where the layer is one of the layers the per-layer
// metrics cover. Spans of one operation share its index (the request ID)
// and a child names the span that caused it. Spans are recorded from the
// benchmark's own code, around its calls into each layer. A tracer is
// used from one goroutine at a time.
type tracer struct {
	origin time.Time
	spans  []span
}

type span struct {
	name       string
	op         int // operation index
	parent     int // index of the causing span, -1 for none
	client     int // closed-loop client; 0 for the single-client replay
	start, end time.Duration
	allocs     uint64 // heap objects allocated inside the span
	allocBytes uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (s span) dur() time.Duration { return s.end - s.start }

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

// do runs f as a span of operation op and returns the span's index.
func (t *tracer) do(name string, op int, f func()) int {
	b0, o0 := allocCounters()
	t0 := time.Now()
	f()
	t1 := time.Now()
	b1, o1 := allocCounters()
	return t.add(span{name: name, op: op, parent: -1,
		start: t0.Sub(t.origin), end: t1.Sub(t.origin), allocs: o1 - o0, allocBytes: b1 - b0})
}

func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// addLoop records each operation of an untraced closed loop as a span of
// its measured round trip.
func (t *tracer) addLoop(name string, l *loop) {
	for i := range l.lat {
		start := l.begin.Sub(t.origin) + l.start[i]
		t.add(span{name: name, op: i, parent: -1, client: l.client[i], start: start, end: start + l.lat[i]})
	}
}

// layerTotals is one layer's share of a traced run.
type layerTotals struct {
	spans  int
	self   time.Duration // span time not covered by child spans
	allocs int64         // heap objects allocated outside child spans
}

// layers sums self time and allocations per layer.
func (t *tracer) layers() map[string]*layerTotals {
	childDur := make([]time.Duration, len(t.spans))
	childAllocs := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.dur()
			childAllocs[s.parent] += s.allocs
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		lt := out[s.layer()]
		if lt == nil {
			lt = &layerTotals{}
			out[s.layer()] = lt
		}
		lt.spans++
		lt.self += s.dur() - childDur[i]
		lt.allocs += int64(s.allocs) - int64(childAllocs[i])
	}
	return out
}

// table renders the per-layer self-time and allocation table.
func (t *tracer) table(ops int) []string {
	totals := t.layers()
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("%-10s %8s %14s %12s %14s", "layer", "spans", "self ms", "self ms/op", "allocs/op")}
	for _, name := range names {
		lt := totals[name]
		self := ms(lt.self)
		lines = append(lines, fmt.Sprintf("%-10s %8d %14.3f %12.4f %14.1f",
			name, lt.spans, self, self/float64(ops), float64(lt.allocs)/float64(ops)))
	}
	return lines
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceFileOps bounds how many operations' spans a trace file holds (the
// set-up spans are always written); the per-layer table and metrics
// cover every operation.
const traceFileOps = 1000

// writeTrace saves the spans as Chrome trace-event JSON; pid separates
// the workloads of one file.
func writeTrace(path string, runs map[string]*tracer) error {
	var events []traceEvent
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	for pid, name := range names {
		for i, s := range runs[name].spans {
			if s.op >= traceFileOps {
				continue
			}
			events = append(events, traceEvent{
				Name: s.name, Cat: s.layer(), Ph: "X",
				TS:  float64(s.start) / float64(time.Microsecond),
				Dur: float64(s.dur()) / float64(time.Microsecond),
				PID: pid + 1, TID: s.client,
				Args: map[string]any{"workload": name, "span": i, "op": s.op, "parent": s.parent, "allocs": s.allocs, "alloc_bytes": s.allocBytes},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stageLayers maps the engine's stage-timing names to layers.
var stageLayers = map[string]string{
	"compile":           "program",
	"callgraph":         "callgraph",
	"exec-tree":         "callgraph",
	"dirty-set":         "sched",
	"plan":              "sched",
	"match":             "contract",
	"structural":        "contract",
	"static-paths":      "concolic",
	"test-index":        "concolic",
	"test-select":       "concolic",
	"concolic":          "concolic",
	"structural-replay": "concolic",
}

// addStages lays the stage timings of a call out as consecutive child
// spans of span parent, in name order. The engine reports per-stage
// totals, not intervals, so the children carry measured durations at
// derived positions; at one worker the stages do not overlap, which keeps
// the layout right for self-time accounting. solve, the solver time
// measured around the call, becomes an smt child of the static-paths
// stage.
func (t *tracer) addStages(parent int, tm core.StageTimings, solve time.Duration) {
	p := t.spans[parent]
	at := p.start
	names := make([]string, 0, len(tm))
	for name := range tm {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		layer := stageLayers[name]
		if layer == "" {
			layer = "core"
		}
		d := tm[name]
		id := t.add(span{name: layer + "." + name, op: p.op, parent: parent, client: p.client, start: at, end: at + d})
		if name == "static-paths" && solve > 0 {
			t.add(span{name: "smt.solve", op: p.op, parent: id, client: p.client, start: at + d - min(solve, d), end: at + d})
		}
		at += d
	}
}

// spanMetrics names the per-layer metric each directly timed call
// contributes to.
var spanMetrics = map[string]string{
	"process.corpus_load": "process.corpus_load_ms",
	"store.open":          "store.open_ms",
	"infer.register_case": "infer.process_ticket_ms",
	"program.load":        "program.load_ms",
	"ci.gate":             "ci.gate_ms",
	"ci.render":           "ci.render_ms",
	"contract.match":      "contract.match_ms",
	"contract.structural": "contract.structural_ms",
	"callgraph.exec_tree": "callgraph.exec_tree_ms",
	"concolic.replay":     "concolic.replay_ms",
}

// perOp sums per-operation layer quantities of a traced replay; each is
// reported as its mean over the operations.
type perOp map[string]float64

func (p perOp) add(name string, v float64) { p[name] += v }

// timed runs f as a span of operation op, adds its duration to the span's
// metric, and returns the span's index.
func (p perOp) timed(t *tracer, name string, op int, f func()) int {
	id := t.do(name, op, f)
	p.addSpans(t, []int{id})
	return id
}

// addSpans adds the durations of directly timed calls to their metrics.
func (p perOp) addSpans(t *tracer, ids []int) {
	for _, id := range ids {
		if m, ok := spanMetrics[t.spans[id].name]; ok {
			p.add(m, ms(t.spans[id].dur()))
		}
	}
}

// addGate accounts one traced ci.GateWith call: span g timed it, and
// solve is the solver time measured around it. The engine's stage
// timings split the gate by layer; what they do not cover is the
// scheduler's own overhead (planning aside, which is a stage).
func (p perOp) addGate(t *tracer, g int, res *ci.Result, solve time.Duration) {
	p.add("smt.solve_ms", ms(solve))
	if res.Report == nil {
		return // the change does not build: no stage ran
	}
	tm := res.Report.StageTimings
	t.addStages(g, tm, solve)
	var stages time.Duration
	for _, d := range tm {
		stages += d
	}
	p.add("sched.overhead_ms", ms(t.spans[g].dur()-stages))
	p.add("program.load_ms", ms(tm["compile"]))
	p.add("callgraph.graph_ms", ms(tm["callgraph"]))
	p.add("callgraph.exec_tree_ms", ms(tm["exec-tree"]))
	p.add("contract.match_ms", ms(tm["match"]))
	p.add("contract.structural_ms", ms(tm["structural"]))
	// The engine does not split solver time by stage; solver calls made
	// during replay are subtracted from the walk too.
	p.add("concolic.walk_ms", ms(tm["static-paths"]-min(solve, tm["static-paths"])))
	p.add("concolic.replay_ms", ms(tm["test-select"]+tm["concolic"]+tm["structural-replay"]))
	p.addReport(res.Report)
}

// addReport counts the work a report shows.
func (p perOp) addReport(rep *core.AssertReport) {
	for _, sr := range rep.Semantics {
		for _, site := range sr.Sites {
			p.add("callgraph.chains_per_op", float64(len(site.Chains)))
			p.add("concolic.paths_per_op", float64(len(site.Paths)))
		}
	}
	p.add("concolic.tests_run_per_op", float64(rep.TestsRun))
}

// record sets each accumulated metric to its mean over ops operations.
func (p perOp) record(r *result, ops int) {
	for name, sum := range p {
		r.set(name, unitOf(name), sum/float64(ops))
	}
}

// loadBoth loads a gate's change and its base through the engine's
// snapshot cache, as ci.GateWith does first.
func loadBoth(e *core.Engine, change, base string) {
	e.LoadSnapshot(change)
	e.LoadSnapshot(base)
}
