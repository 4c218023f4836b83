package main

import (
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// reservoirSize bounds the latency samples one reservoir (one client, one
// kind of call, one timed phase) keeps. It is fixed so the benchmark's own
// heap does not grow with throughput; 16384 samples leave 163 beyond p99.
const reservoirSize = 1 << 14

// reservoir is a uniform sample (Algorithm R) of a latency stream, in
// nanoseconds, plus the stream's true length.
type reservoir struct {
	n   int64
	buf []int64
	rng rand.PCG
}

func newReservoir(seed uint64) *reservoir {
	return &reservoir{rng: *rand.NewPCG(seed, 0x5eed)}
}

func (r *reservoir) add(v int64) {
	if r.buf == nil { // kinds a workload never issues cost no memory
		r.buf = make([]int64, 0, reservoirSize)
	}
	r.n++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	if j := r.rng.Uint64() % uint64(r.n); j < uint64(len(r.buf)) {
		r.buf[j] = v
	}
}

// quantile returns the q-quantile (nearest rank) of the union of the
// streams the reservoirs sample, each sample weighted by the share of its
// stream it stands for, and the union's true length.
func quantile(q float64, rs ...*reservoir) (ns float64, n int64) {
	type wv struct {
		v int64
		w float64
	}
	var all []wv
	var total float64
	for _, r := range rs {
		if r == nil || len(r.buf) == 0 {
			continue
		}
		n += r.n
		w := float64(r.n) / float64(len(r.buf))
		for _, v := range r.buf {
			all = append(all, wv{v, w})
		}
		total += float64(r.n)
	}
	if len(all) == 0 {
		return 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	target := q * total
	var cum float64
	for _, s := range all {
		cum += s.w
		if cum >= target {
			return float64(s.v), n
		}
	}
	return float64(all[len(all)-1].v), n
}

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// reservoirMB returns the heap the phase's own latency reservoirs hold,
// so the heap figure can leave the benchmark's bookkeeping out.
func reservoirMB(p *phaseStats) float64 {
	var n int
	for _, rs := range p.res {
		for _, r := range rs {
			n += cap(r.buf)
		}
	}
	return float64(n*8) / 1e6
}

// heapSampler records the live heap each garbage collection marks while a
// timed phase runs: a finalizer, re-armed after every cycle, reads the
// runtime's /gc/heap/live:bytes. Reading at the phase's own collections,
// rather than once after it, sees the workload's transient state too — a
// campaign pass frees its machines before fleet.Run returns.
type heapSampler struct {
	mu      sync.Mutex
	on      bool
	armed   bool   // a sentinel is waiting for the next collection
	cycles0 uint64 // collections completed when the phase started
	mb      []float64
	samples int // samples over all phases
	read    []metrics.Sample
}

// gcSentinel holds a pointer, so it is never tiny-allocated (tiny objects
// may never be finalized).
type gcSentinel struct{ h *heapSampler }

func newHeapSampler() *heapSampler {
	return &heapSampler{
		mb:   make([]float64, 0, 1024),
		read: []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}},
	}
}

func (h *heapSampler) arm() {
	h.armed = true
	runtime.SetFinalizer(&gcSentinel{h}, func(s *gcSentinel) { s.h.sample() })
}

func (h *heapSampler) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.on {
		h.armed = false
		return
	}
	metrics.Read(h.read)
	if h.read[0].Value.Uint64() > h.cycles0 { // not a collection from before the phase
		h.mb = append(h.mb, float64(h.read[1].Value.Uint64())/1e6)
		h.samples++
	}
	h.arm()
}

// start begins a phase's sampling; a nil sampler does nothing.
func (h *heapSampler) start() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.read)
	h.on, h.cycles0, h.mb = true, h.read[0].Value.Uint64(), h.mb[:0]
	if !h.armed {
		h.arm()
	}
}

func (h *heapSampler) stop() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.on = false
	h.mu.Unlock()
}

// liveMB returns the median live heap the last phase's collections marked,
// or, when none ran, the live heap after a forced collection.
func (h *heapSampler) liveMB() float64 {
	h.mu.Lock()
	xs := append([]float64(nil), h.mb...)
	h.mu.Unlock()
	if len(xs) > 0 {
		return median(xs)
	}
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return float64(live[0].Value.Uint64()) / 1e6
}

// span is one timed call at a layer boundary. Parent indexes the span of
// the layer above that issued the same inputs (-1 for a root); spans of
// one logical operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory, up to a fixed capacity (later spans are
// counted as dropped), to be written out when the run ends.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int64
}

func newTracer(t0 time.Time, capacity int) *tracer {
	return &tracer{t0: t0, spans: make([]span, 0, capacity)}
}

// add records a span and returns its index (-1 when dropped).
func (t *tracer) add(name string, start, end time.Time, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Op: op,
	})
	return int32(len(t.spans) - 1)
}

// layerStats derives per-name duration and self-time samples from spans:
// a span's self time is its duration minus the durations of the spans
// that name it as parent (the layer below, run on the same inputs).
type layerStats struct {
	dur  map[string][]float64
	self map[string][]float64
}

func deriveLayers(spans []span) layerStats {
	child := make([]int64, len(spans))
	hasChild := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
			hasChild[s.Parent] = true
		}
	}
	ls := layerStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for i, s := range spans {
		d := float64(s.End - s.Start)
		ls.dur[s.Name] = append(ls.dur[s.Name], d)
		if hasChild[i] {
			ls.self[s.Name] = append(ls.self[s.Name], d-float64(child[i]))
		}
	}
	return ls
}
