package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: what the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are printed above the result line for a human reader (sample
	// counts, p99, tracing overhead); they are not metrics.
	notes []string
	// firstErr describes the first failed operation.
	firstErr string
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation.
func (r *result) fail(err error) {
	r.Failed++
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

// loop is the outcome of one closed-loop measurement; the slices are
// indexed by operation. They hold no pointers, so the collector does not
// scan them while the system under test runs in the same heap.
type loop struct {
	begin  time.Time
	start  []time.Duration // since begin
	lat    []time.Duration
	client []int
	failed []bool
	errs   map[int]error // the failed operations' errors
	wall   time.Duration
}

func newLoop(n int) *loop {
	return &loop{start: make([]time.Duration, n), lat: make([]time.Duration, n), client: make([]int, n), failed: make([]bool, n)}
}

// run measures operations 0..n-1 in a closed loop from the given number
// of clients: a client takes the next operation only when its previous
// one has returned, the way a CI runner blocks on its verdict. op returns
// the latency of its timed part (work around it, such as building the
// request, is not timed) and reports a wrong answer or a transport
// failure as an error; such an operation still counts as attempted and
// its latency is kept.
func (l *loop) run(clients int, op func(i int) (time.Duration, error)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	l.errs = map[int]error{}
	l.begin = time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(l.lat) {
					return
				}
				lat, err := op(i)
				l.lat[i], l.client[i] = lat, c
				l.start[i] = time.Since(l.begin) - lat
				if err != nil {
					l.failed[i] = true
					mu.Lock()
					l.errs[i] = err
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	l.wall = time.Since(l.begin)
}

// record adds the loop's end-to-end latency and throughput metrics and
// its failures to r.
func (l *loop) record(r *result) {
	r.Attempted += len(l.lat)
	for i, failed := range l.failed {
		if failed {
			r.fail(l.errs[i])
		}
	}
	ms := durationsMS(l.lat)
	r.set("latency_p90_ms", "ms", percentile(ms, 90))
	r.set("throughput_ops_s", "ops/s", float64(len(l.lat))/l.wall.Seconds())
	r.note("latency over %d ops: p50 %.4f ms, p90 %.4f ms (%d samples above), p99 %.4f ms (%d above; printed only)",
		len(ms), percentile(ms, 50), percentile(ms, 90), samplesAbove(len(ms), 90), percentile(ms, 99), samplesAbove(len(ms), 99))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// percentile is the nearest-rank percentile of xs (xs is not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func samplesAbove(n int, p float64) int { return n - int(math.Ceil(p/100*float64(n))) }

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is this process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rssMB(&ru)
}

// childRSSMB is an exited child process's resident-set high-water mark.
func childRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return rssMB(ru)
	}
	return 0
}

func rssMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 } // Linux reports kilobytes

// command is exec.Command for a child process of the benchmark. The
// kernel kills the child if the benchmark dies first, so a run that is
// killed leaves no process behind; on every other path the benchmark
// waits for each child it starts.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// procSample is a reading of the process counters the runtime layer
// metrics are differences of.
type procSample struct {
	at           time.Time
	cpu          time.Duration // user+system time of this process and its waited-for children
	allocBytes   uint64
	allocObjects uint64
	gcCPU        float64 // seconds of CPU the runtime attributes to GC
	usedCPU      float64 // seconds of CPU the runtime attributes to GC, scavenging and Go code
}

// allocCounters reads the cumulative heap allocation counters.
func allocCounters() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func sampleProc() procSample {
	s := procSample{at: time.Now()}
	rs := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/scavenge/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	metrics.Read(rs)
	s.allocBytes = rs[0].Value.Uint64()
	s.allocObjects = rs[1].Value.Uint64()
	s.gcCPU = rs[2].Value.Float64()
	s.usedCPU = s.gcCPU + rs[3].Value.Float64() + rs[4].Value.Float64()
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			s.cpu += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return s
}

// recordRuntime sets the runtime layer metrics from two process samples
// taken around ops operations.
func recordRuntime(r *result, before, after procSample, ops int) {
	r.set("runtime.alloc_mb_per_op", "MB/op", float64(after.allocBytes-before.allocBytes)/(1<<20)/float64(ops))
	r.set("runtime.allocs_per_op", "count/op", float64(after.allocObjects-before.allocObjects)/float64(ops))
	r.set("runtime.gc_cpu_share", "ratio", ratio(after.gcCPU-before.gcCPU, after.usedCPU-before.usedCPU))
	r.set("runtime.cpu_util", "ratio", cpuUtil(before, after))
}

// cpuUtil is the share of the GOMAXPROCS cores the process and its
// children kept busy between two samples.
func cpuUtil(before, after procSample) float64 {
	wall := after.at.Sub(before.at).Seconds()
	return ratio((after.cpu - before.cpu).Seconds(), wall*float64(runtime.GOMAXPROCS(0)))
}

// setupRounds splits a workload's n set-ups into the rounds run before
// and after its measured loop. Half run after it, so that the median
// set-up time, like the loop's own metrics, samples the host across the
// whole run rather than at its start; at least one runs before, because
// the loop uses its product.
func setupRounds(n int) (before, after int) {
	after = n / 2
	return n - after, after
}

// timedSetups runs setup n times, each from a collected heap, and appends
// each one's duration in seconds to secs. It returns the last product and
// releases the others.
func timedSetups[T any](n int, secs *[]float64, setup func() (T, error), release func(T)) (T, error) {
	var kept, zero T
	for i := 0; i < n; i++ {
		if i > 0 {
			release(kept)
			kept = zero
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return zero, err
		}
		*secs = append(*secs, time.Since(t0).Seconds())
		kept = v
	}
	return kept, nil
}

// moreSetups runs the set-ups that follow the measured loop and releases
// every product.
func moreSetups[T any](n int, secs *[]float64, setup func() (T, error), release func(T)) error {
	if n == 0 {
		return nil
	}
	v, err := timedSetups(n, secs, setup, release)
	if err == nil {
		release(v)
	}
	return err
}
