package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/mmpu"
	"repro/internal/netfleet"
	"repro/internal/pmem"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// e7 is the one geometry every workload and ladder rung runs at (the
// ROADMAP's E7 point): 8 banks of 2 crossbars of 45×45 cells, 15×15
// diagonal-ECC blocks, 2 processing crossbars, repair off.
var e7 = mmpu.Custom(45, 8, 2)

const (
	e7M, e7K = 15, 2
	slotBits = 64 // every client word is one 64-bit slot at a multiple of 64
	clients  = 2  // closed-loop client goroutines of the live workloads, fleet Workers of campaign
	batchLen = 64 // ladder batch rungs: contiguous slots per Server/Fleet batch

	campaignRounds = 8 // campaign rounds per crossbar per pass

	// campaignSER is the transient-fault rate of the campaign passes
	// (FIT/bit, over the scenario's one-hour rounds): about 0.01 faults per
	// crossbar round, 1.3 per pass. At the scenario's default 1e5 a block
	// now and then takes three faults in one round — beyond the diagonal
	// code's correct-one/detect-two envelope — and the code miscorrects
	// them (seed 24410 does), failing the conformance check a run exists
	// to make. Triples fall with the cube of the rate: 8,000× rarer here.
	campaignSER = 5e3

	// computePlanSeed fixes the search query of the compute plan. The
	// matcher's gate count depends on the query's bits (26 to 31 steps
	// over seeds), so a per-run query would change the work per compute
	// from run to run; --seed drives everything else.
	computePlanSeed = 1
)

var nSlots = int(e7.DataBits() / slotBits)

func e7Memory() (*pmem.Memory, error) {
	return pmem.New(pmem.Config{Org: e7, M: e7M, K: e7K, ECCEnabled: true})
}

// schemeName is the telemetry label of the E7 memory's code.
var schemeName = (machine.Config{}).SchemeName()

// opKind classifies a timed client call.
type opKind int

const (
	kindRead opKind = iota
	kindWrite
	kindCompute
	kindPass
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "compute", "pass"}

// sample is one timed client call: the requests (or campaign rounds) it
// carried and how many of them failed or answered wrongly.
type sample struct {
	kind   opKind
	ops    int64
	failed int64
	dur    time.Duration
}

// bench is one workload's live state after setup.
type bench interface {
	clients() int
	// begin is called once, right before the timed phase.
	begin()
	// call issues client c's next call; tr is nil outside traced phases.
	call(c int, tr *tracer) sample
	// finish runs the end-of-run correctness checks, returning the checks
	// made and those that failed. tamper, when set, corrupts the memory
	// first (the benchmark's own negative test).
	finish(tamper func(*pmem.Memory)) (checked, failed int64)
	close()
}

// failures collects the first few failure messages of a run.
type failures struct {
	mu   sync.Mutex
	n    int64
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// client is one closed-loop client: its own RNG, the slots it owns and
// its shadow copy of their contents.
type client struct {
	rng    *rand.Rand
	addrs  []int64
	shadow []uint64
	seq    int64

	banks   []int              // compute-mix: banks this client computes on
	critOps *telemetry.Counter // compute-mix: ecc_critical_ops_total of those banks
}

func newClient(seed int64, salt uint64, c int) *client {
	return &client{rng: rand.New(rand.NewPCG(uint64(seed), salt<<8|uint64(c)))}
}

// nextOp returns a span op id unique across clients.
func (cl *client) nextOp(c int) int64 {
	cl.seq++
	return int64(c)<<40 | cl.seq
}

// timeServe issues one request and times it, recording a span when traced.
func timeServe(srv *serve.Server, req serve.Request, tr *tracer, op int64) (serve.Response, time.Duration) {
	t0 := time.Now()
	resp := srv.Do(req)
	t1 := time.Now()
	tr.add("serve.Server.Do", t0, t1, -1, op)
	return resp, t1.Sub(t0)
}

// serveSlotOp issues a read or write of slot i and checks it against the
// shadow copy.
func (cl *client) serveSlotOp(srv *serve.Server, c, i int, write bool, tr *tracer, f *failures) sample {
	req := serve.Request{Op: serve.OpRead, Addr: cl.addrs[i], Width: slotBits}
	s := sample{kind: kindRead, ops: 1}
	if write {
		req.Op, req.Data, s.kind = serve.OpWrite, cl.rng.Uint64(), kindWrite
	}
	resp, dur := timeServe(srv, req, tr, cl.nextOp(c))
	s.dur = dur
	switch {
	case resp.Err != nil:
		f.add("%s of slot at bit %d: %v", kindNames[s.kind], req.Addr, resp.Err)
		s.failed = 1
	case write:
		cl.shadow[i] = req.Data
	case resp.Data != cl.shadow[i]:
		f.add("read of slot at bit %d returned %#x, want %#x", req.Addr, resp.Data, cl.shadow[i])
		s.failed = 1
	}
	return s
}

// finishServe reads every client slot back through the server, stops it
// and scrubs the whole memory: a fault-free run must find every word as
// last written and nothing to correct.
func finishServe(mem *pmem.Memory, srv *serve.Server, cls []*client, tamper func(*pmem.Memory), f *failures) (checked, failed int64) {
	if tamper != nil {
		tamper(mem)
	}
	for _, cl := range cls {
		for i, a := range cl.addrs {
			checked++
			resp := srv.Do(serve.Request{Op: serve.OpRead, Addr: a, Width: slotBits})
			if resp.Err != nil || resp.Data != cl.shadow[i] {
				f.add("final read-back of slot at bit %d returned %#x (err %v), want %#x", a, resp.Data, resp.Err, cl.shadow[i])
				failed++
			}
		}
	}
	srv.Close()
	checked++
	if c, u := mem.ScrubAll(); c != 0 || u != 0 {
		f.add("final ScrubAll corrected %d and found %d uncorrectable blocks, want 0 and 0", c, u)
		failed++
	}
	return checked, failed
}

// ---- serve-write ----------------------------------------------------------

type serveWrite struct {
	mem *pmem.Memory
	srv *serve.Server
	cl  []*client
	f   *failures
}

func setupServeWrite(seed int64, f *failures) (bench, error) {
	mem, err := e7Memory()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Mem: mem})
	if err != nil {
		return nil, err
	}
	b := &serveWrite{mem: mem, srv: srv, f: f}
	half := e7.DataBits() / 2
	for c := 0; c < clients; c++ {
		cl := newClient(seed, 1, c)
		for s := 0; s < nSlots; s++ {
			a := int64(s) * slotBits
			if (c == 0 && a+slotBits <= half) || (c == 1 && a >= half) {
				cl.addrs = append(cl.addrs, a)
			}
		}
		cl.shadow = make([]uint64, len(cl.addrs))
		b.cl = append(b.cl, cl)
	}
	return b, nil
}

func (b *serveWrite) clients() int { return clients }
func (b *serveWrite) begin()       {}
func (b *serveWrite) close()       { b.srv.Close() }

func (b *serveWrite) call(c int, tr *tracer) sample {
	cl := b.cl[c]
	i := cl.rng.IntN(len(cl.addrs))
	return cl.serveSlotOp(b.srv, c, i, cl.rng.IntN(10) != 0, tr, b.f)
}

func (b *serveWrite) finish(tamper func(*pmem.Memory)) (int64, int64) {
	return finishServe(b.mem, b.srv, b.cl, tamper, b.f)
}

// ---- compute-mix ----------------------------------------------------------

type computeMix struct {
	mem  *pmem.Memory
	srv  *serve.Server
	plan *serve.ComputePlan
	crit int64 // the plan's critical (ECC-updating) steps
	cl   []*client
	f    *failures
}

func setupComputeMix(seed int64, f *failures) (bench, error) {
	mem, err := e7Memory()
	if err != nil {
		return nil, err
	}
	plan, err := serve.BuildComputePlan("search", e7.CrossbarN, computePlanSeed)
	if err != nil {
		return nil, err
	}
	b := &computeMix{mem: mem, plan: plan, crit: int64(plan.Mapping.CriticalOps()), f: f}
	perXbar := e7.CrossbarN * e7.CrossbarN / slotBits
	banksPer := e7.Banks / clients
	for c := 0; c < clients; c++ {
		cl := newClient(seed, 3, c)
		// Each client computes on crossbar 1 of its own banks; those
		// machines count critical ops into the client's own registry, so
		// a compute's counter delta is exactly its own.
		tel := machine.TelemetryFor(telemetry.New(), schemeName)
		cl.critOps = tel.CriticalOps
		for bank := c * banksPer; bank < (c+1)*banksPer; bank++ {
			cl.banks = append(cl.banks, bank)
			base := e7.FlatIndex(mmpu.Address{Bank: bank, Crossbar: 0})
			for j := 0; j < perXbar; j++ {
				cl.addrs = append(cl.addrs, base+int64(j)*slotBits)
			}
			t := tel
			t.Bank, t.Xbar = bank, 1
			mem.Crossbar(e7.CrossbarID(bank, 1)).Instrument(t)
		}
		cl.shadow = make([]uint64, len(cl.addrs))
		b.cl = append(b.cl, cl)
	}
	// The server starts last: Crossbar hands out machines unsynchronized,
	// so instrumenting them must finish before any worker runs.
	if b.srv, err = serve.New(serve.Config{Mem: mem, ScrubEvery: 64}); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *computeMix) clients() int { return clients }
func (b *computeMix) begin()       {}
func (b *computeMix) close()       { b.srv.Close() }

func (b *computeMix) call(c int, tr *tracer) sample {
	cl := b.cl[c]
	x := cl.rng.IntN(20)
	if x >= 2 { // 90%: half reads, half writes on crossbar 0
		return cl.serveSlotOp(b.srv, c, cl.rng.IntN(len(cl.addrs)), x >= 11, tr, b.f)
	}
	bank := cl.banks[cl.rng.IntN(len(cl.banks))]
	req := serve.Request{Op: serve.OpCompute, Addr: e7.FlatIndex(mmpu.Address{Bank: bank, Crossbar: 1}), Plan: b.plan}
	before := cl.critOps.Value()
	resp, dur := timeServe(b.srv, req, tr, cl.nextOp(c))
	s := sample{kind: kindCompute, ops: 1, dur: dur}
	if resp.Err != nil {
		b.f.add("compute on bank %d: %v", bank, resp.Err)
		s.failed = 1
	} else if got := cl.critOps.Value() - before; got != b.crit {
		b.f.add("compute on bank %d grew ecc_critical_ops_total by %d, want %d", bank, got, b.crit)
		s.failed = 1
	}
	return s
}

func (b *computeMix) finish(tamper func(*pmem.Memory)) (int64, int64) {
	return finishServe(b.mem, b.srv, b.cl, tamper, b.f)
}

// ---- loopback node (ladder) ---------------------------------------------

// startNode starts one netfleet node on 127.0.0.1 and a fleet client of it.
func startNode() (*netfleet.Node, *netfleet.Fleet, error) {
	node, err := netfleet.NewNode(netfleet.NodeConfig{
		Org: e7, Nodes: 1, Addr: "127.0.0.1:0", M: e7M, K: e7K, ECC: true,
	})
	if err != nil {
		return nil, nil, err
	}
	fl, err := netfleet.Dial(netfleet.FleetConfig{Org: e7, Addrs: []string{node.Addr()}})
	if err == nil {
		err = fl.Check()
	}
	if err != nil {
		node.Close()
		return nil, nil, err
	}
	return node, fl, nil
}

// fillSlots writes data[s] to every slot s through write batches.
func fillSlots(fl *netfleet.Fleet, data []uint64) error {
	reqs := make([]serve.Request, 0, batchLen)
	for s := 0; s < len(data); s += batchLen {
		reqs = reqs[:0]
		for j := s; j < s+batchLen && j < len(data); j++ {
			reqs = append(reqs, serve.Request{Op: serve.OpWrite, Addr: int64(j) * slotBits, Width: slotBits, Data: data[j]})
		}
		for j, r := range fl.Do(reqs) {
			if r.Err != nil {
				return fmt.Errorf("fill slot %d: %w", s+j, r.Err)
			}
		}
	}
	return nil
}

// ---- campaign -------------------------------------------------------------

type campaignBench struct {
	cfg   fleet.Config
	wl    fleet.Workload
	seed  int64
	pass  int64
	first *fleet.Result // the first timed pass, re-run at Workers=1 in finish
	f     *failures
}

func campaignWorkload() (fleet.Workload, error) {
	return fleet.ScenarioWithOptions("campaign", fleet.ScenarioOptions{Intensity: campaignRounds, Model: "transient", SER: campaignSER})
}

func setupCampaign(seed int64, f *failures) (bench, error) {
	wl, err := campaignWorkload()
	if err != nil {
		return nil, err
	}
	b := &campaignBench{
		cfg:  fleet.Config{Org: e7, M: e7M, K: e7K, ECCEnabled: true, Workers: clients},
		wl:   wl,
		seed: seed,
		f:    f,
	}
	// One pass builds and discards every lazily created machine and
	// runner once, so the timed phase starts warm.
	cfg := b.cfg
	cfg.Seed = seed - 1
	res, err := fleet.Run(cfg, wl)
	if err != nil {
		return nil, err
	}
	if msg := checkPass(res); msg != "" {
		f.add("warm-up pass: %s", msg)
	}
	return b, nil
}

// checkPass returns why a campaign pass breaks the paper's guarantee, or "".
func checkPass(res fleet.Result) string {
	t := res.Campaign
	want := int64(e7.Crossbars() * campaignRounds)
	switch {
	case res.CampaignRounds != want || t.Rounds != want:
		return fmt.Sprintf("ran %d rounds (tally %d), want %d", res.CampaignRounds, t.Rounds, want)
	case !t.Conformant():
		return fmt.Sprintf("not conformant: silent %d, miscorrected %d, reference mismatches %d",
			t.Counts[campaign.SilentCorruption], t.Counts[campaign.Miscorrected], t.RefMismatches)
	}
	return ""
}

func (b *campaignBench) clients() int { return 1 }
func (b *campaignBench) close()       {}

func (b *campaignBench) begin() {
	b.pass, b.first = 0, nil
}

func (b *campaignBench) call(_ int, tr *tracer) sample {
	cfg := b.cfg
	cfg.Seed = b.seed + b.pass
	t0 := time.Now()
	res, err := fleet.Run(cfg, b.wl)
	t1 := time.Now()
	tr.add("fleet.Run", t0, t1, -1, b.pass)
	b.pass++
	s := sample{kind: kindPass, ops: int64(e7.Crossbars() * campaignRounds), dur: t1.Sub(t0)}
	msg := checkPass(res)
	if err != nil {
		msg = err.Error()
	}
	if msg != "" {
		b.f.add("campaign pass with seed %d: %s", cfg.Seed, msg)
		s.failed = s.ops
	}
	if b.first == nil && err == nil {
		b.first = &res
	}
	return s
}

// finish re-runs the first timed pass on one worker: the fleet engine
// promises the same Result at any worker count.
func (b *campaignBench) finish(func(*pmem.Memory)) (checked, failed int64) {
	if b.first == nil {
		return 0, 0
	}
	cfg := b.cfg
	cfg.Seed, cfg.Workers = b.seed, 1
	res, err := fleet.Run(cfg, b.wl)
	if err != nil || !reflect.DeepEqual(res, *b.first) {
		b.f.add("first pass (seed %d) re-run at Workers=1 differs from Workers=%d (err %v)", b.seed, b.cfg.Workers, err)
		return 1, 1
	}
	return 1, 0
}
