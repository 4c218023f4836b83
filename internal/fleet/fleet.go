// Package fleet plans and runs workloads across a protected memory
// organized as a full mMPU (internal/mmpu): the paper evaluates its
// diagonal-ECC mechanism at the scale of a 1GB memory built from
// thousands of n×n crossbars (Fig 6), and this package drives multi-bank
// traffic against that organization.
//
// A run executes over one pmem.Memory, which owns, builds and instruments
// every crossbar machine. The plan is split by shard: banks are
// partitioned across workers (mmpu.ShardBanks), and one goroutine per
// shard walks its slice of the plan in plan order, so each crossbar is
// only ever touched by one goroutine and its bank lock is uncontended.
// Each shard tallies a local Result and the engine merges them.
//
// Determinism is a hard guarantee: a Workload's plan is a pure function of
// (organization, seed), per-crossbar randomness comes from seeds derived
// with faults.DeriveSeed, jobs for one crossbar execute in plan order, and
// Result.Merge is commutative — so the same run produces an identical
// Result under any worker count.
package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mmpu"
	"repro/internal/netlist"
	"repro/internal/pmem"
	"repro/internal/repair"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// Config sizes a fleet run.
type Config struct {
	Org        mmpu.Organization
	M          int  // ECC block side
	K          int  // processing crossbars per machine
	ECCEnabled bool // false = the paper's unprotected baseline

	// Scheme selects the protection code for every machine in the fleet
	// (ecc.SchemeByName; empty = the paper's diagonal code).
	Scheme string

	// Repair is the self-healing policy applied to every machine in the
	// fleet (write-verify, spare remap, retirement); the zero value is off.
	Repair repair.Config

	Workers int   // shard count; <=0 uses GOMAXPROCS, capped at Banks
	Seed    int64 // campaign base seed

	// KernelWidth selects the SIMD kernel: a ripple-carry adder of this
	// width, SIMPLER-mapped into one crossbar row. <=0 uses 8 bits (fits
	// the 45-cell minimum geometry).
	KernelWidth int

	// Telemetry, when non-nil, instruments the run's memory (pmem's
	// per-bank scrub, compute and injection series and every machine's
	// per-scheme ECC probes) and receives what only the planner sees:
	// per-bank job counters and campaign round and outcome counters.
	// Because all updates commute, the resulting snapshot — like the
	// Result — is identical for every worker count.
	Telemetry *telemetry.Registry
}

// EffectiveWorkers resolves the shard count actually used: Workers,
// defaulted to GOMAXPROCS and capped at the bank count (a bank is never
// split across shards).
func (c Config) EffectiveWorkers() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > c.Org.Banks {
		w = c.Org.Banks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// AdderKernel builds the fleet's SIMD kernel: a width-bit ripple-carry
// adder lowered to NOR and SIMPLER-mapped into a rowSize-cell row.
func AdderKernel(width, rowSize int) (*synth.Mapping, error) {
	b := netlist.NewBuilder(fmt.Sprintf("fleetadder%d", width))
	a := b.InputBus(width)
	x := b.InputBus(width)
	carry := b.Const(false)
	for i := 0; i < width; i++ {
		axb := b.Xor(a[i], x[i])
		b.Output(b.Xor(axb, carry))
		carry = b.Or(b.And(a[i], x[i]), b.And(axb, carry))
	}
	b.Output(carry)
	return synth.Map(b.Build().LowerToNOR(), rowSize)
}

// xbarState is a shard's per-crossbar planning state: the random streams
// the plan's ops draw from and the campaign runner. The crossbar's
// machine lives in the memory, built on first touch; the campaign runner
// is created on first use, so a campaign-only job stream builds no
// memory machine and vice versa.
type xbarState struct {
	bank, xb int
	inj      *faults.Injector // fault-burst stream, seeded per crossbar
	rng      *rand.Rand       // load-pattern stream, seeded per crossbar
	camp     *campaign.Runner // fault-campaign conformance state
}

// runner returns the crossbar's campaign runner, creating it on first use
// from the op's model spec. Model names and rates were validated in Run.
func (st *xbarState) runner(cfg Config, mcfg machine.Config, op Op) *campaign.Runner {
	if st.camp == nil {
		model, err := faults.ModelByName(op.Model, op.SER)
		if err != nil {
			panic(err)
		}
		r, err := campaign.New(campaign.Config{
			Machine: mcfg, Model: model, Hours: op.Hours, Verify: true,
		}, faults.DeriveSeed(cfg.Seed^0xca3b, st.bank, st.xb))
		if err != nil {
			panic(err)
		}
		st.camp = r
	}
	return st.camp
}

// Run executes the workload across the fleet and returns the merged
// result. With the same configuration, workload, and seed the Result is
// identical for every worker count.
func Run(cfg Config, w Workload) (Result, error) {
	mem, err := pmem.New(pmem.Config{Org: cfg.Org, M: cfg.M, K: cfg.K, ECCEnabled: cfg.ECCEnabled, Scheme: cfg.Scheme, Repair: cfg.Repair})
	if err != nil {
		return Result{}, err
	}
	mcfg := mem.MachineConfig()
	width := cfg.KernelWidth
	if width <= 0 {
		width = 8
	}
	kernel, err := AdderKernel(width, cfg.Org.CrossbarN)
	if err != nil {
		return Result{}, fmt.Errorf("fleet: kernel does not fit crossbar: %w", err)
	}

	jobs := w.Plan(cfg.Org, cfg.Seed)
	// A crossbar's campaign runner is seeded once, from its first
	// OpCampaign; defect state (stuck cells) persists across its rounds,
	// so one crossbar cannot switch model or rate mid-campaign. Reject
	// heterogeneous specs up front instead of silently ignoring them.
	campaignSpec := make(map[int]Op)
	for i, j := range jobs {
		if j.Bank < 0 || j.Bank >= cfg.Org.Banks || j.Crossbar < 0 || j.Crossbar >= cfg.Org.PerBank {
			return Result{}, fmt.Errorf("fleet: job %d addresses (bank %d, crossbar %d) outside %dx%d organization",
				i, j.Bank, j.Crossbar, cfg.Org.Banks, cfg.Org.PerBank)
		}
		for _, op := range j.Ops {
			if op.Kind != OpCampaign {
				continue
			}
			if _, err := faults.ModelByName(op.Model, op.SER); err != nil {
				return Result{}, fmt.Errorf("fleet: job %d: %w", i, err)
			}
			id := cfg.Org.CrossbarID(j.Bank, j.Crossbar)
			spec := Op{Kind: OpCampaign, Model: op.Model, SER: op.SER, Hours: op.Hours}
			if first, seen := campaignSpec[id]; !seen {
				campaignSpec[id] = spec
			} else if first != spec {
				return Result{}, fmt.Errorf("fleet: job %d changes crossbar (%d,%d) campaign spec from %s/%g/%gh to %s/%g/%gh mid-run",
					i, j.Bank, j.Crossbar, first.Model, first.SER, first.Hours, op.Model, op.SER, op.Hours)
			}
		}
	}

	mem.Instrument(cfg.Telemetry)

	// Split the plan by owning shard, keeping plan order: all of a bank's
	// jobs land in one shard, so each crossbar's jobs run in plan order.
	workers := cfg.EffectiveWorkers()
	plans := make([][]Job, workers)
	bankShard := make([]int, cfg.Org.Banks)
	for s, banks := range cfg.Org.ShardBanks(workers) {
		for _, b := range banks {
			bankShard[b] = s
		}
	}
	for _, j := range jobs {
		plans[bankShard[j.Bank]] = append(plans[bankShard[j.Bank]], j)
	}

	results := make([]Result, workers)
	tel := fleetProbesFor(cfg.Telemetry, cfg.Org.Banks)
	var wg sync.WaitGroup
	for s, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[s] = runShard(cfg, mcfg, kernel, mem, plan, tel)
		}()
	}
	wg.Wait()

	total := Result{Scenario: w.Name(), PerBank: make([]BankTally, cfg.Org.Banks), Machine: mem.Stats()}
	for _, r := range results {
		total = total.Merge(r)
	}
	return total, nil
}

// runShard executes one shard's slice of the plan over the shared memory
// and tallies a shard-local result.
func runShard(cfg Config, mcfg machine.Config, kernel *synth.Mapping, mem *pmem.Memory, jobs []Job, tel fleetProbes) Result {
	res := Result{PerBank: make([]BankTally, cfg.Org.Banks)}
	states := make(map[int]*xbarState)
	allRows := bitmat.NewVec(cfg.Org.CrossbarN)
	allRows.Fill(true)
	for _, job := range jobs {
		id := cfg.Org.CrossbarID(job.Bank, job.Crossbar)
		st := states[id]
		if st == nil {
			st = &xbarState{
				bank: job.Bank, xb: job.Crossbar,
				inj: faults.NewInjector(0, faults.DeriveSeed(cfg.Seed, job.Bank, job.Crossbar)),
				rng: rand.New(rand.NewSource(faults.DeriveSeed(cfg.Seed^0x10ad, job.Bank, job.Crossbar))),
			}
			states[id] = st
		}
		execJob(cfg, mcfg, kernel, allRows, mem, st, job, &res, tel)
	}
	res.CrossbarsTouched = len(states)
	for _, st := range states {
		if st.camp != nil {
			res.Machine = res.Machine.Add(st.camp.Stats())
			res.Campaign = res.Campaign.Add(st.camp.Tally())
		}
	}
	return res
}

// execJob runs one job's ops in order on its crossbar.
func execJob(cfg Config, mcfg machine.Config, kernel *synth.Mapping, allRows *bitmat.Vec, mem *pmem.Memory, st *xbarState, job Job, res *Result, tel fleetProbes) {
	bank := &res.PerBank[job.Bank]
	res.Jobs++
	bank.Jobs++
	if tel.enabled {
		tel.jobs[job.Bank].Inc()
	}
	for _, op := range job.Ops {
		res.Ops++
		bank.Ops++
		switch op.Kind {
		case OpSIMD:
			// Geometry and addresses are pre-validated; ExecuteSIMD
			// cannot fail here.
			if err := mem.ExecuteSIMD(job.Bank, job.Crossbar, kernel, allRows); err != nil {
				panic(err)
			}
			res.SIMDOps++
		case OpScrub:
			c, u := mem.ScrubCrossbar(job.Bank, job.Crossbar)
			res.Scrubs++
			res.Corrected += int64(c)
			res.Uncorrectable += int64(u)
			bank.Corrected += int64(c)
			bank.Uncorrectable += int64(u)
		case OpLoad:
			n := cfg.Org.CrossbarN
			// The only error is a write-verify verdict under a repair
			// policy; the machine's repair statistics already count it.
			_ = mem.AccessRow(job.Bank, job.Crossbar, ((op.Row%n)+n)%n, func(row *bitmat.Vec) bool {
				for i := 0; i < n; i++ {
					row.Set(i, st.rng.Intn(2) == 0)
				}
				return true
			})
			res.Loads++
		case OpFaultBurst:
			st.inj.SER = op.SER
			flips := int64(mem.InjectWindow(job.Bank, job.Crossbar, st.inj, op.Hours))
			res.FaultBursts++
			res.Injected += flips
			bank.Injected += flips
		case OpCampaign:
			rep := st.runner(cfg, mcfg, op).Round()
			res.CampaignRounds++
			res.Injected += int64(rep.Injected)
			bank.Injected += int64(rep.Injected)
			res.Corrected += rep.Counts[campaign.Corrected]
			bank.Corrected += rep.Counts[campaign.Corrected]
			res.Uncorrectable += rep.Counts[campaign.DetectedUncorrectable]
			bank.Uncorrectable += rep.Counts[campaign.DetectedUncorrectable]
			tel.campaignRounds.Inc()
			if tel.enabled {
				for o := 0; o < campaign.NumOutcomes; o++ {
					tel.outcomes[o].Add(rep.Counts[o])
				}
			}
		}
	}
}
