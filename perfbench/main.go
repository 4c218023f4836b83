// Command perfbench is the end-to-end benchmark of the protected-memory
// stack. It runs one named workload against the public APIs of serve,
// netfleet, pmem and fleet at the E7 geometry, checks every answer, and
// prints its metrics as one JSON object on the last line of stdout:
//
//	perfbench --workload serve-write --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (BENCHMARK.json); with
// --trace 1 it times the workload with spans, then climbs the per-layer
// ladder (ladder.go) and reports the per-layer metrics. The exit code is
// 0 only when every correctness check passed. See README.md for the
// workloads, the metrics and which layer each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/pmem"
)

// workloads maps each workload name to its setup.
var workloads = map[string]func(seed int64, f *failures) (bench, error){
	"serve-write": setupServeWrite,
	"compute-mix": setupComputeMix,
	"campaign":    setupCampaign,
}

// epochs is how many times an untraced run builds the workload afresh and
// measures it for an equal share of --seconds. Every metric is the median
// over the epochs. Twelve freshly built machines in one process ran the
// same compute at medians anywhere from 76 to 136 µs (where their arrays
// landed, or what the host was doing meanwhile); one build per run let
// that draw, not the code, decide compute-mix's figures.
const epochs = 16

// extraSetups is how many more times the run builds (and closes) the
// workload after the last epoch; setup_s is the median of all builds.
const extraSetups = 5

// procs is the GOMAXPROCS every run uses. The clients and the server's
// workers then hand off on one processor instead of waking another, so a
// call's latency holds the program's own work rather than the host's
// vCPU wake-ups, and a neighbour that takes one of the host's cores leaves
// the run its other one. On a shared 2-vCPU host two sets of ten runs at
// GOMAXPROCS=2 spread 42% (serve-write) to 54% (campaign) in throughput.
const procs = 1

// tracedCalls caps each client's traced calls in a traced run, so every
// span fits its tracer.
const tracedCalls = 1 << 16

// traceOrder is the sequence of untraced (false) and traced (true) windows
// of a traced run. Alternating them ABBA, in short windows, cancels a
// drift over the run — the first windows after warm-up run slower — out
// of the overhead ratio.
var traceOrder = []bool{
	false, true, true, false, false, true, true, false,
	false, true, true, false, false, true, true, false,
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span files ("" = do not write)

	// tamper, when set, corrupts the memory after the timed phase and
	// before the final checks (the benchmark's own negative test).
	tamper func(*pmem.Memory)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: serve-write, compute-mix or campaign")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every input the benchmark generates")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory the span files of traced runs are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok || o.seconds <= 0 || (trace != 0 && trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of serve-write, compute-mix, campaign), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o.trace = trace == 1
	return execute(o, stdout, stderr)
}

// execute runs one benchmark and prints provenance, detail and result
// lines; it returns the process exit code.
func execute(o options, stdout, stderr io.Writer) int {
	prov := provenance(o)
	f := &failures{}
	var res result
	var detail map[string]any
	var err error
	if o.trace {
		res, detail, err = tracedRun(o, f)
	} else {
		res, detail, err = timedRun(o, f)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	// Every failure also left a message; some (in warm-up or setup) have
	// no counted op, so the messages bound the failed count from below.
	res.Failed = max(res.Failed, f.n)
	res.Correct = res.Failed == 0
	detail["error_rate"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	detail["failures"] = f.msgs
	for _, line := range []any{map[string]any{"provenance": prov}, map[string]any{"detail": detail}, res} {
		b, _ := json.Marshal(line)
		fmt.Fprintln(stdout, string(b))
	}
	if !res.Correct {
		for _, m := range f.msgs {
			fmt.Fprintf(stderr, "perfbench: %s: FAIL: %s\n", o.workload, m)
		}
		return 1
	}
	return 0
}

// phaseStats aggregates one timed phase over its clients.
type phaseStats struct {
	res     [numKinds][]*reservoir // one reservoir per client
	calls   int64
	ops     int64
	failed  int64
	elapsed time.Duration
	mallocs uint64
}

func (p *phaseStats) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// runPhase drives the bench's clients in a closed loop for dur, or until
// each has made maxCalls calls (0 = no cap): each client issues its next
// call only after the previous one returned. heap, when set, samples the
// live heap while the clients run.
func runPhase(b bench, dur time.Duration, maxCalls int64, seed int64, tracers []*tracer, heap *heapSampler) *phaseStats {
	n := b.clients()
	p := &phaseStats{}
	for k := range p.res {
		for c := 0; c < n; c++ {
			p.res[k] = append(p.res[k], newReservoir(uint64(seed)<<8|uint64(k)<<4|uint64(c)))
		}
	}
	type counts struct{ calls, ops, failed int64 }
	per := make([]counts, n)
	var wg sync.WaitGroup
	m0 := mallocs()
	heap.start()
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if tracers != nil {
				tr = tracers[c]
			}
			st := &per[c]
			for time.Since(start) < dur && (maxCalls == 0 || st.calls < maxCalls) {
				s := b.call(c, tr)
				p.res[s.kind][c].add(s.dur.Nanoseconds())
				st.calls++
				st.ops += s.ops
				st.failed += s.failed
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	heap.stop()
	p.mallocs = mallocs() - m0
	for _, st := range per {
		p.calls += st.calls
		p.ops += st.ops
		p.failed += st.failed
	}
	return p
}

// warmup is the untimed traffic run after a build, before its timed phase.
func warmup(timed time.Duration) time.Duration {
	return min(max(timed/20, 50*time.Millisecond), time.Second)
}

// primaryKind is the call p50_us summarizes: the one the workload's
// mechanism serves — a write on serve-write, a compute on compute-mix, a
// pass on campaign.
func primaryKind(workload string) opKind {
	switch workload {
	case "compute-mix":
		return kindCompute
	case "campaign":
		return kindPass
	}
	return kindWrite
}

func setupOnce(o options, f *failures) (bench, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	b, err := workloads[o.workload](o.seed, f)
	return b, time.Since(t0), err
}

// epochSeed derives epoch e's input seed from the run's seed.
func epochSeed(seed int64, e int) int64 { return seed + int64(e)<<32 }

// timedRun is the untraced run: it reports the end-to-end metrics, each
// the median over epochs. Every epoch sits between two host probes; its
// timings are scaled by their mean over refProbeNs (hostspeed.go).
func timedRun(o options, f *failures) (result, map[string]any, error) {
	primary := primaryKind(o.workload)
	dur := time.Duration(o.seconds * float64(time.Second) / epochs)
	var setups, rawRate, rawP50, slows, heap []float64
	hs := newHeapSampler()
	kinds := map[string][]float64{}
	var calls, ops, failed, checked, allocs int64
	probes := []float64{hostProbe()}
	for e := 0; e < epochs; e++ {
		eo := o
		eo.seed = epochSeed(o.seed, e)
		b, d, err := setupOnce(eo, f)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		runPhase(b, warmup(dur), 0, eo.seed^0x3a3a, nil, nil)
		b.begin()
		p := runPhase(b, dur, 0, eo.seed, nil, hs)
		heap = append(heap, hs.liveMB()-reservoirMB(p))
		c, bad := b.finish(o.tamper)
		b.close()
		probes = append(probes, hostProbe())
		slows = append(slows, (probes[e]+probes[e+1])/2/refProbeNs)

		calls += p.calls
		ops += p.ops
		failed += p.failed + bad
		checked += c
		allocs += int64(p.mallocs)
		rawRate = append(rawRate, p.opsPerSec())
		v, _ := quantile(0.5, p.res[primary]...)
		rawP50 = append(rawP50, v)
		for name, v := range kindLatencies(p) {
			kinds[name] = append(kinds[name], v)
		}
	}
	for i := 0; i < extraSetups; i++ {
		b, d, err := setupOnce(o, f)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		b.close()
		setups = append(setups, d.Seconds())
	}
	probes = append(probes, hostProbe())

	rate := make([]float64, epochs)
	p50 := make([]float64, epochs)
	scaledSetups := make([]float64, len(setups))
	for i := range setups {
		slow := (probes[epochs] + probes[epochs+1]) / 2 / refProbeNs // the extra builds
		if i < epochs {
			slow = slows[i]
			rate[i] = rawRate[i] * slow
			p50[i] = rawP50[i] / slow
		}
		scaledSetups[i] = setups[i] / slow
	}
	detail := map[string]any{
		"calls":           calls,
		"ops":             ops,
		"epoch_ops_per_s": append([]float64(nil), rate...),
		"p50_of":          kindNames[primary],
		"heap_gc_samples": hs.samples,
		"setup_runs_s":    append([]float64(nil), scaledSetups...),
		"host_probe_ns":   append([]float64(nil), probes...),
		"raw_ops_per_s":   median(append([]float64(nil), rawRate...)),
		"raw_p50_us":      median(append([]float64(nil), rawP50...)) / 1e3,
		"raw_setup_s":     median(append([]float64(nil), setups...)),
	}
	for name, vs := range kinds {
		unit := "us"
		if strings.HasSuffix(name, "_ms") {
			unit = "ms"
		}
		detail[name] = metric{median(vs), unit}
	}
	res := result{
		Attempted: ops + checked,
		Failed:    failed,
		Metrics: map[string]metric{
			"ops_per_s":     {median(rate), "1/s"},
			"p50_us":        {median(p50) / 1e3, "us"},
			"allocs_per_op": {float64(allocs) / float64(max(ops, 1)), "count"},
			"heap_live_mb":  {median(heap), "MB"},
			"setup_s":       {median(scaledSetups), "s"},
		},
	}
	return res, detail, nil
}

// kindLatencies reports one phase's per-operation-type percentiles under
// the names the workloads are discussed by (read_p50_us, pass_p90_ms,
// ...), each only where at least ten samples lie beyond it.
func kindLatencies(p *phaseStats) map[string]float64 {
	out := map[string]float64{}
	for k := opKind(0); k < numKinds; k++ {
		unit, scale, tailQ, tailName := "us", 1e3, 0.99, "p99"
		if k == kindPass {
			unit, scale, tailQ, tailName = "ms", 1e6, 0.90, "p90"
		}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {tailName, tailQ}} {
			v, n := quantile(q.q, p.res[k]...)
			if n == 0 || float64(n)*(1-q.q) < 10 {
				continue
			}
			out[fmt.Sprintf("%s_%s_%s", kindNames[k], q.name, unit)] = v / scale
		}
	}
	return out
}

// tracedRun times the workload in alternating windows, untraced and with a
// span around every client call, and then climbs the per-layer ladder. It
// reports the per-layer metrics and the tracing overhead.
func tracedRun(o options, f *failures) (result, map[string]any, error) {
	b, _, err := setupOnce(o, f)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	// The windows share half of --seconds; each ends early once every
	// client has made its share of tracedCalls.
	win := time.Duration(o.seconds * float64(time.Second) / 2 / float64(len(traceOrder)))
	winCalls := int64(tracedCalls * 2 / len(traceOrder))
	runPhase(b, warmup(win*4), 0, o.seed^0x3a3a, nil, nil)
	b.begin()
	t0 := time.Now()
	tracers := make([]*tracer, b.clients())
	for c := range tracers {
		tracers[c] = newTracer(t0, tracedCalls)
	}
	var plain, traced phaseStats
	for i, on := range traceOrder {
		sum, trs := &plain, []*tracer(nil)
		if on {
			sum, trs = &traced, tracers
		}
		p := runPhase(b, win, winCalls, o.seed+int64(i), trs, nil)
		sum.ops += p.ops
		sum.failed += p.failed
		sum.elapsed += p.elapsed
	}
	checked, bad := b.finish(o.tamper)
	b.close()

	lt := newTracer(t0, 1<<16)
	lm, lchecked, lbad, notes, err := runLadder(o.seed, lt, f)
	if err != nil {
		return result{}, nil, fmt.Errorf("ladder: %w", err)
	}
	lm["bench.trace_overhead"] = metric{plain.opsPerSec() / traced.opsPerSec(), "ratio"}
	res := result{
		Attempted: plain.ops + traced.ops + checked + lchecked,
		Failed:    plain.failed + traced.failed + bad + lbad,
		Metrics:   lm,
	}
	detail := map[string]any{
		"untraced_ops_per_s": plain.opsPerSec(),
		"traced_ops_per_s":   traced.opsPerSec(),
		"ladder_notes":       notes,
	}
	if o.out != "" {
		path, n, err := writeSpans(o, append(tracers, lt))
		if err != nil {
			return result{}, nil, fmt.Errorf("write spans: %w", err)
		}
		detail["spans_file"], detail["spans"] = path, n
	}
	var dropped int64
	for _, t := range append(tracers, lt) {
		dropped += t.dropped
	}
	detail["spans_dropped"] = dropped
	return res, detail, nil
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(o options, ts []*tracer) (string, int, error) {
	dir := filepath.Join(o.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	file, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	enc := json.NewEncoder(file)
	n := 0
	for tid, t := range ts {
		for _, s := range t.spans {
			// Parents index within one tracer; tag each span with its
			// tracer so the file stays self-describing.
			if err := enc.Encode(struct {
				Tracer int `json:"tracer"`
				span
			}{tid, s}); err != nil {
				file.Close()
				return "", 0, err
			}
			n++
		}
	}
	return path, n, file.Close()
}
