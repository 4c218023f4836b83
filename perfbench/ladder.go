package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"time"

	"repro/internal/bitmat"
	"repro/internal/campaign"
	"repro/internal/cmem"
	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/mmpu"
	"repro/internal/pmem"
	"repro/internal/serve"
	"repro/internal/shifter"
	"repro/internal/telemetry"
	"repro/internal/xbar"
)

// The per-layer ladder times calls into each layer's public entry point at
// the E7 geometry. Each rung replays the inputs of the rung above on its
// own replica of the state, one layer down — a serve write, then the
// pmem.WriteWord it becomes, the machine.UpdateRow of each row segment,
// the cmem.UpdateCritical of each, the shifter routes of each — and each
// span names the span above it as parent, so a layer's self time is its
// span minus its children (deriveLayers). Rungs run rung-major, all
// inputs through one layer before the next, so allocations can be charged
// to one layer at a time.
//
// The ladder is the same on every workload; README.md records which
// end-to-end metric on which workload each rung should move.

const (
	ladderWrites   = 2000 // 64-bit writes down the write chain
	ladderReads    = 2000
	ladderBatches  = 400 // 64-slot read batches
	ladderComputes = 120
	ladderScrubs   = 160 // crossbar scrubs, rotating over all 16
	ladderNORRows  = 2000
	ladderBatched  = 1000 // spans of the ns-scale rungs below
	gateBatch      = 64   // NORCols / InitColumnsInRows calls per span
	ladderDecodes  = 4000
	ladderPasses   = 40 // campaign passes at Workers=1
)

type ladder struct {
	tr      *tracer
	rng     *rand.Rand
	f       *failures
	checked int64
	failed  int64
	m       map[string]metric
	notes   []string

	correctedPerPass float64 // campaign faults corrected per fleet.Run pass
}

// holds counts one check and reports whether it held. Callers format the
// failure message only when it did not, so checks inside the
// allocation-counting loops allocate nothing.
func (l *ladder) holds(ok bool) bool {
	l.checked++
	if !ok {
		l.failed++
	}
	return ok
}

// setBits writes the segment's share of a 64-bit word into a row, as
// pmem's range write does.
func setBits(v *bitmat.Vec, s mmpu.Segment, data uint64) {
	for b := 0; b < s.Bits; b++ {
		v.Set(s.Col+b, data>>(uint(s.Off)+uint(b))&1 != 0)
	}
}

// image is the ladder's own model of the E7 data: one matrix per
// crossbar, against which every read is checked.
type image []*bitmat.Mat

func newImage() image {
	img := make(image, e7.Crossbars())
	for i := range img {
		img[i] = bitmat.NewMat(e7.CrossbarN, e7.CrossbarN)
	}
	return img
}

func (img image) word(addr int64) uint64 {
	var w uint64
	_ = e7.ForEachSegment(addr, slotBits, func(s mmpu.Segment) error {
		row := img[e7.CrossbarID(s.Bank, s.Crossbar)].Row(s.Row)
		w |= row.Uint64At(s.Col, s.Bits) << uint(s.Off)
		return nil
	})
	return w
}

// histQuantile reads the q-quantile of a telemetry histogram, interpolated
// linearly within its bucket (Hist.Quantile reports the bucket's upper
// bound, which would read the same on every run).
func histQuantile(h telemetry.Hist, q float64) float64 {
	rank := q * float64(h.N)
	var seen int64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if float64(seen+c) >= rank {
			lo, hi := bucketStart(i), bucketStart(i+1)
			return float64(lo) + (rank-float64(seen))/float64(c)*float64(hi-lo)
		}
		seen += c
	}
	return float64(h.Max)
}

// bucketStart returns the smallest value a telemetry histogram files in
// bucket i or later, found by probing Observe so it follows the
// histogram's own layout.
func bucketStart(i int) int64 {
	bucket := func(v int64) int {
		var h telemetry.Hist
		h.Observe(v)
		for b, c := range h.Buckets {
			if c != 0 {
				return b
			}
		}
		return len(h.Buckets)
	}
	lo, hi := int64(0), int64(1)<<62
	for lo < hi {
		mid := lo + (hi-lo)/2
		if bucket(mid) >= i {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// segWrite is one row segment of a ladder write, with the row before and
// after it.
type segWrite struct {
	seg      mmpu.Segment
	id       int
	data     uint64
	op       int
	old, new *bitmat.Vec
}

// rowWriter is machine.UpdateRow's mutate callback, bound once so the
// machine rung allocates nothing of its own.
type rowWriter struct {
	seg  mmpu.Segment
	data uint64
}

func (w *rowWriter) mutate(v *bitmat.Vec) bool {
	setBits(v, w.seg, w.data)
	return true
}

// runLadder climbs every rung and returns the per-layer metrics, the
// checks it made and those that failed.
func runLadder(seed int64, tr *tracer, f *failures) (map[string]metric, int64, int64, []string, error) {
	l := &ladder{tr: tr, rng: rand.New(rand.NewPCG(uint64(seed), 0x1add)), f: f, m: map[string]metric{}}
	var mems [4]*pmem.Memory // serve, pmem, machine and cmem replicas
	for i := range mems {
		var err error
		if mems[i], err = e7Memory(); err != nil {
			return nil, 0, 0, nil, err
		}
	}
	regP := telemetry.New()
	mems[1].Instrument(regP)
	srv, err := serve.New(serve.Config{Mem: mems[0]})
	if err != nil {
		return nil, 0, 0, nil, err
	}
	img := newImage()
	l.writeChain(srv, mems, img, regP)
	l.readChain(srv, mems[1], img)
	srv.Close()
	regB := telemetry.New()
	if srv, err = serve.New(serve.Config{Mem: mems[0], Telemetry: regB}); err != nil {
		return nil, 0, 0, nil, err
	}
	defer srv.Close()
	if err := l.batchChain(srv, img, regB); err != nil {
		return nil, 0, 0, nil, err
	}
	if err := l.computeChain(srv, mems, regP); err != nil {
		return nil, 0, 0, nil, err
	}
	l.gates()
	l.scrubChain(mems)
	l.decode()
	if err := l.campaignChain(seed); err != nil {
		return nil, 0, 0, nil, err
	}
	l.spanMetrics()
	return l.m, l.checked, l.failed, l.notes, nil
}

// rung is one layer's loop over a block of the chain's inputs; it returns
// the calls it made. allocs names the metric its allocations per call are
// reported under ("" = not reported).
type rung struct {
	allocs string
	run    func(lo, hi int) int
}

// ladderBlock is how many inputs each rung takes before the next rung
// runs. Interleaving the rungs in small blocks keeps a slow spell of the
// host from landing on one layer only, so parent and child spans of the
// same inputs are measured under the same conditions.
const ladderBlock = 50

// interleave runs the rungs over inputs [0, n), block by block, charging
// each rung the allocations made during its own loops.
func (l *ladder) interleave(n int, rungs ...rung) {
	allocs := make([]uint64, len(rungs))
	calls := make([]int, len(rungs))
	for lo := 0; lo < n; lo += ladderBlock {
		hi := min(lo+ladderBlock, n)
		for r, rg := range rungs {
			m0 := mallocs()
			calls[r] += rg.run(lo, hi)
			allocs[r] += mallocs() - m0
		}
	}
	for r, rg := range rungs {
		if rg.allocs != "" {
			l.m[rg.allocs] = metric{float64(allocs[r]) / float64(max(calls[r], 1)), "count"}
		}
	}
}

// writeChain: serve.Server.Do(write) → pmem.WriteWord → machine.UpdateRow
// per row segment → cmem.UpdateCritical → shifter.RoutePacked ×4.
func (l *ladder) writeChain(srv *serve.Server, mems [4]*pmem.Memory, img image, regP *telemetry.Registry) {
	type wop struct {
		addr int64
		data uint64
	}
	ops := make([]wop, ladderWrites)
	var segs []segWrite
	segStart := make([]int, len(ops)+1) // op i's segments are segs[segStart[i]:segStart[i+1]]
	for i := range ops {
		ops[i] = wop{int64(l.rng.IntN(nSlots)) * slotBits, l.rng.Uint64()}
		_ = e7.ForEachSegment(ops[i].addr, slotBits, func(s mmpu.Segment) error {
			id := e7.CrossbarID(s.Bank, s.Crossbar)
			old := img[id].Row(s.Row).Clone()
			nw := old.Clone()
			setBits(nw, s, ops[i].data)
			img[id].SetRow(s.Row, nw)
			segs = append(segs, segWrite{seg: s, id: id, data: ops[i].data, op: i, old: old, new: nw})
			return nil
		})
		segStart[i+1] = len(segs)
	}

	pm := mems[1]
	reads := regP.Counter("ecc_update_reads_total", "scheme", schemeName)
	reads0, writes0 := reads.Value(), regP.Snapshot().CounterFamily("pmem_writes_total")
	serveSpan := make([]int32, len(ops))
	pmemSpan := make([]int32, len(ops))
	machSpan := make([]int32, len(segs))
	cmemSpan := make([]int32, len(segs))
	rw := &rowWriter{}
	mutate := rw.mutate
	sh := shifter.New(e7.CrossbarN, e7M)
	dst := bitmat.NewVec(e7.CrossbarN)
	l.interleave(len(ops),
		rung{"serve.allocs_per_op", func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				op := ops[i]
				t0 := time.Now()
				resp := srv.Do(serve.Request{Op: serve.OpWrite, Addr: op.addr, Width: slotBits, Data: op.data})
				serveSpan[i] = l.tr.add("serve.write", t0, time.Now(), -1, int64(i))
				if !l.holds(resp.Err == nil) {
					l.f.add("ladder: serve write at bit %d: %v", op.addr, resp.Err)
				}
			}
			return hi - lo
		}},
		rung{"pmem.write_word_allocs", func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				op := ops[i]
				t0 := time.Now()
				err := pm.WriteWord(op.addr, op.data, slotBits)
				pmemSpan[i] = l.tr.add("pmem.WriteWord", t0, time.Now(), serveSpan[i], int64(i))
				if !l.holds(err == nil) {
					l.f.add("ladder: pmem.WriteWord at bit %d: %v", op.addr, err)
				}
			}
			return hi - lo
		}},
		rung{"machine.update_row_allocs", func(lo, hi int) int {
			for k := segStart[lo]; k < segStart[hi]; k++ {
				s := segs[k]
				rw.seg, rw.data = s.seg, s.data
				m := mems[2].Crossbar(s.id)
				t0 := time.Now()
				_, err := m.UpdateRow(s.seg.Row, mutate)
				machSpan[k] = l.tr.add("machine.UpdateRow", t0, time.Now(), pmemSpan[s.op], int64(s.op))
				if !l.holds(err == nil) {
					l.f.add("ladder: machine.UpdateRow: %v", err)
				}
			}
			return segStart[hi] - segStart[lo]
		}},
		rung{"cmem.update_critical_allocs", func(lo, hi int) int {
			for k := segStart[lo]; k < segStart[hi]; k++ {
				s := segs[k]
				x := mems[3].Crossbar(s.id)
				t0 := time.Now()
				x.CMEM().UpdateCritical(0, cmem.CriticalUpdate{
					Orientation: shifter.ColParallel, Index: s.seg.Row, Old: s.old, New: s.new,
				})
				cmemSpan[k] = l.tr.add("cmem.UpdateCritical", t0, time.Now(), machSpan[k], int64(s.op))
				x.MEM().Mat().SetRow(s.seg.Row, s.new)
			}
			return segStart[hi] - segStart[lo]
		}},
		rung{"", func(lo, hi int) int {
			for k := segStart[lo]; k < segStart[hi]; k++ {
				s := segs[k]
				for _, fam := range [2]shifter.Family{shifter.Leading, shifter.Counter} {
					for _, v := range [2]*bitmat.Vec{s.old, s.new} {
						t0 := time.Now()
						sh.RoutePacked(dst, v, s.seg.Row%e7M, fam, shifter.ColParallel)
						l.tr.add("shifter.RoutePacked", t0, time.Now(), cmemSpan[k], int64(s.op))
					}
				}
			}
			return 4 * (segStart[hi] - segStart[lo])
		}},
	)

	// The cost model charges a fixed number of stored-line reads per row
	// write; the counter must agree with the scheme's own cost hook.
	perWrite := float64(reads.Value()-reads0) / float64(regP.Snapshot().CounterFamily("pmem_writes_total")-writes0)
	spec, err := ecc.SchemeByName(schemeName)
	if !l.holds(err == nil) {
		l.f.add("ladder: scheme %q: %v", schemeName, err)
	} else if want := spec.New(ecc.Params{N: e7.CrossbarN, M: e7M}, nil).LineUpdateReads(1); !l.holds(perWrite == float64(want)) {
		l.f.add("ladder: ecc_update_reads_total grew %.3f per row write, want %d", perWrite, want)
	}
	l.m["ecc.update_reads_per_write"] = metric{perWrite, "count"}

	for id := range img {
		for r, m := range mems {
			if !l.holds(m.Crossbar(id).MEM().Mat().Equal(img[id])) {
				l.f.add("ladder: replica %d crossbar %d differs from the written image", r, id)
			}
		}
	}
}

// readChain: serve.Server.Do(read) → pmem.ReadWord.
func (l *ladder) readChain(srv *serve.Server, pm *pmem.Memory, img image) {
	addrs := make([]int64, ladderReads)
	for i := range addrs {
		addrs[i] = int64(l.rng.IntN(nSlots)) * slotBits
	}
	spans := make([]int32, len(addrs))
	l.interleave(len(addrs),
		rung{"", func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				a := addrs[i]
				t0 := time.Now()
				resp := srv.Do(serve.Request{Op: serve.OpRead, Addr: a, Width: slotBits})
				spans[i] = l.tr.add("serve.read", t0, time.Now(), -1, int64(i))
				if !l.holds(resp.Err == nil && resp.Data == img.word(a)) {
					l.f.add("ladder: serve read at bit %d: %#x (err %v)", a, resp.Data, resp.Err)
				}
			}
			return hi - lo
		}},
		rung{"", func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				a := addrs[i]
				t0 := time.Now()
				w, err := pm.ReadWord(a, slotBits)
				l.tr.add("pmem.ReadWord", t0, time.Now(), spans[i], int64(i))
				if !l.holds(err == nil && w == img.word(a)) {
					l.f.add("ladder: pmem read at bit %d: %#x (err %v)", a, w, err)
				}
			}
			return hi - lo
		}},
	)
}

// batchChain: a 64-slot read batch through netfleet.Fleet.Do on a
// loopback node, then the same batch submitted straight to a
// serve.Server.
func (l *ladder) batchChain(srv *serve.Server, img image, regB *telemetry.Registry) error {
	words := make([]uint64, nSlots)
	for s := range words {
		words[s] = img.word(int64(s) * slotBits)
	}
	node, fl, err := startNode()
	if err != nil {
		return err
	}
	defer node.Close()
	defer fl.Close()
	if err := fillSlots(fl, words); err != nil {
		return err
	}
	starts := make([]int, ladderBatches)
	for i := range starts {
		starts[i] = l.rng.IntN(nSlots - batchLen + 1)
	}
	reqs := make([]serve.Request, batchLen)
	fill := func(start int) {
		for j := range reqs {
			reqs[j] = serve.Request{Op: serve.OpRead, Addr: int64(start+j) * slotBits, Width: slotBits}
		}
	}
	check := func(what string, start int, resps []serve.Response) {
		for j, r := range resps {
			if !l.holds(r.Err == nil && r.Data == words[start+j]) {
				l.f.add("ladder: %s read of slot %d: %#x (err %v)", what, start+j, r.Data, r.Err)
			}
		}
	}
	spans := make([]int32, len(starts))
	chans := make([]<-chan serve.Response, batchLen)
	resps := make([]serve.Response, batchLen)
	snap0 := regB.Snapshot()
	var submitErr error
	l.interleave(len(starts),
		rung{"netfleet.allocs_per_batch", func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				fill(starts[i])
				t0 := time.Now()
				out := fl.Do(reqs)
				spans[i] = l.tr.add("netfleet.Fleet.Do", t0, time.Now(), -1, int64(i))
				check("fleet", starts[i], out)
			}
			return hi - lo
		}},
		rung{"", func(lo, hi int) int {
			for i := lo; i < hi && submitErr == nil; i++ {
				fill(starts[i])
				t0 := time.Now()
				for j, r := range reqs {
					if chans[j], submitErr = srv.Submit(r); submitErr != nil {
						return i - lo
					}
				}
				for j, ch := range chans {
					resps[j] = <-ch
				}
				l.tr.add("serve.batch", t0, time.Now(), spans[i], int64(i))
				check("serve batch", starts[i], resps)
			}
			return hi - lo
		}},
	)
	if submitErr != nil {
		return submitErr
	}
	snap1 := regB.Snapshot()
	delta := func(family string) float64 {
		return float64(snap1.CounterFamily(family) - snap0.CounterFamily(family))
	}
	l.m["serve.requests_per_batch"] = metric{delta("serve_requests_total") / delta("serve_batches_total"), "count"}
	l.m["serve.coalesced_ratio"] = metric{delta("serve_coalesced_total") / delta("serve_requests_total"), "ratio"}
	l.m["serve.wait_p50_us"] = metric{histQuantile(regB.Histogram("serve_wait_ns").Hist(), 0.5) / 1e3, "us"}
	return nil
}

// computeChain: serve.Server.Do(compute) → pmem.ExecuteSIMD →
// machine.ExecuteSIMD, on crossbar 1 of each bank in turn.
func (l *ladder) computeChain(srv *serve.Server, mems [4]*pmem.Memory, regP *telemetry.Registry) error {
	plan, err := serve.BuildComputePlan("search", e7.CrossbarN, computePlanSeed)
	if err != nil {
		return err
	}
	crit := regP.Counter("ecc_critical_ops_total", "scheme", schemeName)
	crit0 := crit.Value()
	serveSpan := make([]int32, ladderComputes)
	pmemSpan := make([]int32, ladderComputes)
	l.interleave(ladderComputes,
		rung{"", func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				bank := i % e7.Banks
				t0 := time.Now()
				resp := srv.Do(serve.Request{Op: serve.OpCompute, Addr: e7.FlatIndex(mmpu.Address{Bank: bank, Crossbar: 1}), Plan: plan})
				serveSpan[i] = l.tr.add("serve.compute", t0, time.Now(), -1, int64(i))
				if !l.holds(resp.Err == nil) {
					l.f.add("ladder: serve compute on bank %d: %v", bank, resp.Err)
				}
			}
			return hi - lo
		}},
		rung{"", func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				bank := i % e7.Banks
				t0 := time.Now()
				err := mems[1].ExecuteSIMD(bank, 1, plan.Mapping, plan.Rows)
				pmemSpan[i] = l.tr.add("pmem.ExecuteSIMD", t0, time.Now(), serveSpan[i], int64(i))
				if !l.holds(err == nil) {
					l.f.add("ladder: pmem.ExecuteSIMD on bank %d: %v", bank, err)
				}
			}
			return hi - lo
		}},
		rung{"", func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				m := mems[2].Crossbar(e7.CrossbarID(i%e7.Banks, 1))
				t0 := time.Now()
				err := m.ExecuteSIMD(plan.Mapping, plan.Rows)
				l.tr.add("machine.ExecuteSIMD", t0, time.Now(), pmemSpan[i], int64(i))
				if !l.holds(err == nil) {
					l.f.add("ladder: machine.ExecuteSIMD: %v", err)
				}
			}
			return hi - lo
		}},
	)
	perCompute := float64(crit.Value()-crit0) / float64(ladderComputes)
	if !l.holds(perCompute == float64(plan.Mapping.CriticalOps())) {
		l.f.add("ladder: ecc_critical_ops_total grew %.3f per compute, want %d", perCompute, plan.Mapping.CriticalOps())
	}
	l.m["ecc.critical_ops_per_compute"] = metric{perCompute, "count"}
	return nil
}

// gates times the MAGIC gate primitives on a 45×45 crossbar: in-row NOR
// (parallel across all rows — the SIMD compute path), in-column NOR and
// in-row initialization. The ns-scale ones are timed gateBatch calls per
// span.
func (l *ladder) gates() {
	n := e7.CrossbarN
	x := xbar.New(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			x.Set(r, c, l.rng.IntN(2) == 0)
		}
	}
	rows, cols := x.AllRows(), x.AllCols()
	tri := make([][3]int, 256)
	for i := range tri {
		p := l.rng.Perm(n)
		tri[i] = [3]int{p[0], p[1], p[2]}
	}
	initCols := l.rng.Perm(n)[:4]
	for i := 0; i < ladderNORRows; i++ {
		t := tri[i%len(tri)]
		t0 := time.Now()
		x.NORRows(t[0], t[1], t[2], rows)
		l.tr.add("xbar.NORRows", t0, time.Now(), -1, int64(i))
	}
	for i := 0; i < ladderBatched; i++ {
		t0 := time.Now()
		for j := 0; j < gateBatch; j++ {
			t := tri[(i*gateBatch+j)%len(tri)]
			x.NORCols(t[0], t[1], t[2], cols)
		}
		l.tr.add("xbar.NORCols/64", t0, time.Now(), -1, int64(i))
	}
	for i := 0; i < ladderBatched; i++ {
		t0 := time.Now()
		for j := 0; j < gateBatch; j++ {
			x.InitColumnsInRows(initCols, rows)
		}
		l.tr.add("xbar.InitColumnsInRows/64", t0, time.Now(), -1, int64(i))
	}
}

// scrubChain: pmem.ScrubCrossbar → machine.Scrub → cmem.CheckLine per
// block row, rotating over every crossbar. Every replica is clean, so
// every scrub must find nothing.
func (l *ladder) scrubChain(mems [4]*pmem.Memory) {
	pmemSpan := make([]int32, ladderScrubs)
	machSpan := make([]int32, ladderScrubs)
	blocks := e7.CrossbarN / e7M
	l.interleave(ladderScrubs,
		rung{"", func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				bank, xb := e7.CrossbarAt(i % e7.Crossbars())
				t0 := time.Now()
				c, u := mems[1].ScrubCrossbar(bank, xb)
				pmemSpan[i] = l.tr.add("pmem.ScrubCrossbar", t0, time.Now(), -1, int64(i))
				if !l.holds(c == 0 && u == 0) {
					l.f.add("ladder: pmem scrub of crossbar (%d,%d): %d corrected, %d uncorrectable", bank, xb, c, u)
				}
			}
			return hi - lo
		}},
		rung{"", func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				m := mems[2].Crossbar(i % e7.Crossbars())
				t0 := time.Now()
				c, u := m.Scrub()
				machSpan[i] = l.tr.add("machine.Scrub", t0, time.Now(), pmemSpan[i], int64(i))
				if !l.holds(c == 0 && u == 0) {
					l.f.add("ladder: machine scrub of crossbar %d: %d corrected, %d uncorrectable", i%e7.Crossbars(), c, u)
				}
			}
			return hi - lo
		}},
		rung{"cmem.check_line_allocs", func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				m := mems[3].Crossbar(i % e7.Crossbars())
				for br := 0; br < blocks; br++ {
					t0 := time.Now()
					d := m.CMEM().CheckLine(m.MEM(), shifter.ColParallel, br, br%e7K)
					l.tr.add("cmem.CheckLine", t0, time.Now(), machSpan[i], int64(i))
					if !l.holds(len(d) == 0) {
						l.f.add("ladder: cmem.CheckLine of crossbar %d block row %d found %d bad blocks", i%e7.Crossbars(), br, len(d))
					}
				}
			}
			return (hi - lo) * blocks
		}},
	)
}

// decode times ecc.CheckBits.CorrectBlock repairing one flipped data bit.
func (l *ladder) decode() {
	n := e7.CrossbarN
	mat := bitmat.NewMat(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			mat.Set(r, c, l.rng.IntN(2) == 0)
		}
	}
	cb := ecc.Build(ecc.Params{N: n, M: e7M}, mat)
	blocks := n / e7M
	for i := 0; i < ladderDecodes; i++ {
		br, bc, lr, lc := l.rng.IntN(blocks), l.rng.IntN(blocks), l.rng.IntN(e7M), l.rng.IntN(e7M)
		r, c := br*e7M+lr, bc*e7M+lc
		orig := mat.Get(r, c)
		mat.Flip(r, c)
		t0 := time.Now()
		d := cb.CorrectBlock(mat, br, bc)
		l.tr.add("ecc.CorrectBlock", t0, time.Now(), -1, int64(i))
		if !l.holds(d.Kind == ecc.DataError && d.LR == lr && d.LC == lc && mat.Get(r, c) == orig) {
			l.f.add("ladder: CorrectBlock of a flip at (%d,%d): %+v", r, c, d)
		}
	}
}

// campaignChain: one fleet.Run pass at Workers=1, and the same pass
// replayed crossbar by crossbar through campaign.New and Runner.Round,
// seeded as the fleet seeds them. Passes alternate which of the two runs
// first, so a drifting host cancels out of the self-time median.
func (l *ladder) campaignChain(seed int64) error {
	wl, err := campaignWorkload()
	if err != nil {
		return err
	}
	mcfg := machine.Config{N: e7.CrossbarN, M: e7M, K: e7K, ECCEnabled: true}
	var injected, rounds int64
	var total campaign.Tally
	for p := 0; p < ladderPasses; p++ {
		s := seed + 1<<20 + int64(p)
		var res fleet.Result
		var root int32 = -1
		var kids []int32
		runFleet := func() error {
			cfg := fleet.Config{Org: e7, M: e7M, K: e7K, ECCEnabled: true, Workers: 1, Seed: s}
			t0 := time.Now()
			var err error
			res, err = fleet.Run(cfg, wl)
			root = l.tr.add("fleet.Run", t0, time.Now(), -1, int64(p))
			return err
		}
		if p%2 == 0 {
			if err := runFleet(); err != nil {
				return err
			}
		}
		var tally campaign.Tally
		for _, job := range wl.Plan(e7, s) {
			op := job.Ops[0]
			model, err := faults.ModelByName(op.Model, op.SER)
			if err != nil {
				return err
			}
			// fleet seeds each crossbar's runner this way (fleet.go).
			rs := faults.DeriveSeed(s^0xca3b, job.Bank, job.Crossbar)
			t0 := time.Now()
			r, err := campaign.New(campaign.Config{Machine: mcfg, Model: model, Hours: op.Hours, Verify: true}, rs)
			kids = append(kids, l.tr.add("campaign.New", t0, time.Now(), root, int64(p)))
			if err != nil {
				return err
			}
			for range job.Ops {
				t0 := time.Now()
				rep := r.Round()
				kids = append(kids, l.tr.add("campaign.Round", t0, time.Now(), root, int64(p)))
				injected += int64(rep.Injected)
				rounds++
			}
			tally = tally.Add(r.Tally())
		}
		if p%2 == 1 {
			if err := runFleet(); err != nil {
				return err
			}
			for _, k := range kids {
				if k >= 0 {
					l.tr.spans[k].Parent = root
				}
			}
		}
		if msg := checkPass(res); !l.holds(msg == "") {
			l.f.add("ladder: fleet.Run pass with seed %d: %s", s, msg)
		}
		if !l.holds(tally.Conformant()) {
			l.f.add("ladder: direct campaign replay of seed %d is not conformant", s)
		}
		if !reflect.DeepEqual(tally, res.Campaign) && len(l.notes) == 0 {
			l.notes = append(l.notes, "direct campaign replay diverged from fleet.Run: fleet.self_ms compares different inputs")
		}
		total = total.Add(tally)
	}
	l.m["campaign.injected_per_round"] = metric{float64(injected) / float64(rounds), "count"}
	l.m["campaign.corrected_ratio"] = metric{float64(total.Counts[campaign.Corrected]) / float64(max(total.Injected, 1)), "ratio"}
	l.correctedPerPass = float64(total.Counts[campaign.Corrected]) / ladderPasses
	return nil
}

// spanMetrics turns the ladder's spans into per-call medians and self
// times.
func (l *ladder) spanMetrics() {
	ls := deriveLayers(l.tr.spans)
	p50 := func(xs []float64) float64 {
		ys := append([]float64(nil), xs...)
		sort.Float64s(ys)
		return median(ys)
	}
	dur := func(name string, scale float64) float64 { return p50(ls.dur[name]) / scale }
	self := func(name string, scale float64) float64 { return p50(ls.self[name]) / scale }
	for _, d := range []struct {
		metric, span, unit string
		scale              float64
	}{
		{"netfleet.batch_us", "netfleet.Fleet.Do", "us", 1e3},
		{"serve.read_us", "serve.read", "us", 1e3},
		{"serve.write_us", "serve.write", "us", 1e3},
		{"serve.compute_us", "serve.compute", "us", 1e3},
		{"serve.batch_us", "serve.batch", "us", 1e3},
		{"pmem.write_word_us", "pmem.WriteWord", "us", 1e3},
		{"pmem.read_word_ns", "pmem.ReadWord", "ns", 1},
		{"pmem.execute_simd_us", "pmem.ExecuteSIMD", "us", 1e3},
		{"pmem.scrub_crossbar_us", "pmem.ScrubCrossbar", "us", 1e3},
		{"machine.update_row_us", "machine.UpdateRow", "us", 1e3},
		{"machine.execute_simd_us", "machine.ExecuteSIMD", "us", 1e3},
		{"machine.scrub_us", "machine.Scrub", "us", 1e3},
		{"cmem.update_critical_us", "cmem.UpdateCritical", "us", 1e3},
		{"cmem.check_line_us", "cmem.CheckLine", "us", 1e3},
		{"shifter.route_packed_ns", "shifter.RoutePacked", "ns", 1},
		{"xbar.nor_rows_ns", "xbar.NORRows", "ns", 1},
		{"xbar.nor_cols_ns", "xbar.NORCols/64", "ns", gateBatch},
		{"xbar.init_rows_ns", "xbar.InitColumnsInRows/64", "ns", gateBatch},
		{"ecc.correct_block_ns", "ecc.CorrectBlock", "ns", 1},
		{"campaign.new_us", "campaign.New", "us", 1e3},
		{"campaign.round_us", "campaign.Round", "us", 1e3},
	} {
		l.m[d.metric] = metric{dur(d.span, d.scale), d.unit}
	}
	for _, d := range []struct {
		metric, span, unit string
		scale              float64
	}{
		{"netfleet.self_us", "netfleet.Fleet.Do", "us", 1e3},
		{"serve.self_us", "serve.write", "us", 1e3},
		{"pmem.self_us", "pmem.WriteWord", "us", 1e3},
		{"machine.self_us", "machine.UpdateRow", "us", 1e3},
		{"cmem.self_us", "cmem.UpdateCritical", "us", 1e3},
		{"fleet.self_ms", "fleet.Run", "ms", 1e6},
	} {
		l.m[d.metric] = metric{self(d.span, d.scale), d.unit}
	}
	// How much of a campaign pass correcting its faults costs: the pass's
	// corrections, each at the decode rung's cost, over the whole pass.
	pass := dur("fleet.Run", 1)
	l.notes = append(l.notes, fmt.Sprintf("campaign: %.2f corrections per pass x %.0f ns = %.4f%% of a %.1f ms fleet.Run pass",
		l.correctedPerPass, l.m["ecc.correct_block_ns"].Value, 100*l.correctedPerPass*l.m["ecc.correct_block_ns"].Value/pass, pass/1e6))
}
