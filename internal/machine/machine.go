// Package machine assembles the full proposed architecture (Fig 3): a MEM
// crossbar executing SIMPLER-mapped functions with SIMD row parallelism,
// a CMEM keeping diagonal ECC check bits continuously up to date through
// the critical-operation protocol, shifter-routed transfers, and the
// controller behaviors (input checking before execution, periodic
// scrubbing, single-error correction).
//
// It is the end-to-end integration: the same Mapping the latency
// scheduler costs out is *actually executed* on simulated crossbars, with
// soft errors injected and corrected, so tests can confirm the mechanism
// — not just its cycle model — works.
package machine

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/cmem"
	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/shifter"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/xbar"
)

// Config parameterizes a protected processing unit.
type Config struct {
	N          int  // crossbar side
	M          int  // ECC block side
	K          int  // processing crossbars
	ECCEnabled bool // false = the paper's baseline (no protection)

	// Scheme selects the protection code (ecc.SchemeByName). Empty or
	// "diagonal" is the paper's code, executed on the cycle-accurate CMEM
	// pipeline exactly as before the scheme layer existed; any other
	// registered scheme runs through the generic ecc.Scheme path.
	Scheme string

	// Repair configures the self-healing layer (write-verify read-backs,
	// spare remapping, scrub-triggered retirement — see internal/repair).
	// The zero value is off: the write path behaves exactly as before the
	// repair layer existed.
	Repair repair.Config
}

// SchemeName resolves the configured protection code name ("" defaults to
// the paper's diagonal code).
func (cfg Config) SchemeName() string {
	if cfg.Scheme == "" {
		return ecc.SchemeDiagonal
	}
	return cfg.Scheme
}

// ComputeCost models the MEM-occupancy cost, in cycles, of executing one
// SIMPLER mapping on a crossbar of this configuration — the currency the
// serving layer's virtual-time replay charges per compute request. It
// counts only cycles during which the data crossbar itself is busy
// (grounded in the cmem pipeline constants): the mapping's own latency,
// plus with ECC enabled the pre-execution input checks (one block-line
// check per input block-column, CheckLineMEMCycles each per block row),
// the per-critical-op update reads (the scheme's LineUpdateReads hook: the
// diagonal code's two old/new transfers, its XOR3 fold running in the PC
// pipeline), and the post-execution working-region reconcile (every
// working block-column's check bits rebuilt from the image). The
// configuration must name a registered scheme.
func (cfg Config) ComputeCost(mp *synth.Mapping) int64 {
	cost := int64(mp.Latency())
	if !cfg.ECCEnabled {
		return cost
	}
	spec, err := ecc.SchemeByName(cfg.SchemeName())
	if err != nil {
		panic(fmt.Sprintf("machine: ComputeCost: %v", err))
	}
	m := cfg.M
	sch := spec.New(ecc.Params{N: cfg.N, M: m}, nil)
	line := int64(cfg.N / m * cmem.CheckLineMEMCycles(m)) // one block-line check
	// Striped codes check and reconcile whole column groups, so both spans
	// widen to the scheme's home-column envelope.
	if inputBlocks := (mp.Netlist.NumInputs() + m - 1) / m; inputBlocks > 0 {
		first, last := sch.HomeColumns(0, inputBlocks-1)
		cost += int64(last-first+1) * line
	}
	cost += int64(mp.CriticalOps()) * int64(sch.LineUpdateReads(1))
	first, last := sch.HomeColumns(mp.Netlist.NumInputs()/m, (mp.RowSize-1)/m)
	cost += int64(last-first+1) * line
	return cost
}

// Machine is one crossbar plus its check memory.
type Machine struct {
	cfg  Config
	mem  *xbar.Crossbar
	prot protector // the protection code (see protect.go); nil = baseline

	// statistics
	criticalOps   int
	inputChecks   int
	corrections   int
	uncorrectable int

	// tel holds the live telemetry probes (zero value = disabled: every
	// handle is nil and no-ops). updateReads is the scheme's
	// LineUpdateReads(1) cost, resolved once so the hot path charges it
	// with one counter add.
	tel         Telemetry
	updateReads int64

	// rt is the self-healing state (nil = repair off); defects is the
	// attached stuck-cell set whose faults the write path re-asserts and
	// retirement evicts; repairLog collects RepairReports while enabled
	// (see repair.go).
	rt         *repair.Table
	defects    *faults.StuckSet
	repairLog  []RepairReport
	logRepairs bool
}

// Telemetry is the machine's probe set: per-scheme ECC outcome counters,
// the update-read cost meter, and the shared event ring. Resolve one
// with TelemetryFor and attach it with Instrument; the zero value is the
// disabled layer. Bank and Xbar locate the machine's events in the
// organization (counters are shared per scheme; events are per machine).
type Telemetry struct {
	InputChecks   *telemetry.Counter
	CriticalOps   *telemetry.Counter
	Corrections   *telemetry.Counter
	Uncorrectable *telemetry.Counter
	// UpdateReads accumulates the stored-bit reads spent keeping check
	// bits current (the scheme cost hook ecc.Scheme.LineUpdateReads
	// applied per protected line write) — the "reads stolen from
	// compute" axis of the paper's cost claim, now observable live.
	UpdateReads *telemetry.Counter
	// Repair-layer probes: committed-line read-backs, persistent verify
	// mismatches, spare remaps, and budget-exhausted refusals.
	VerifyReads      *telemetry.Counter
	VerifyMismatches *telemetry.Counter
	CellsRetired     *telemetry.Counter
	SparesExhausted  *telemetry.Counter
	Events           *telemetry.Ring
	Bank, Xbar       int
}

// TelemetryFor resolves the per-scheme machine probe set from a registry
// (nil registry resolves the disabled zero value). Machines of the same
// scheme share series; give each machine its Bank/Xbar for event
// attribution.
func TelemetryFor(reg *telemetry.Registry, scheme string) Telemetry {
	if reg == nil {
		return Telemetry{}
	}
	return Telemetry{
		InputChecks:   reg.Counter("ecc_input_checks_total", "scheme", scheme),
		CriticalOps:   reg.Counter("ecc_critical_ops_total", "scheme", scheme),
		Corrections:   reg.Counter("ecc_corrections_total", "scheme", scheme),
		Uncorrectable: reg.Counter("ecc_uncorrectable_total", "scheme", scheme),
		UpdateReads:   reg.Counter("ecc_update_reads_total", "scheme", scheme),

		VerifyReads:      reg.Counter("repair_verify_reads_total", "scheme", scheme),
		VerifyMismatches: reg.Counter("repair_verify_mismatch_total", "scheme", scheme),
		CellsRetired:     reg.Counter("repair_cells_retired_total", "scheme", scheme),
		SparesExhausted:  reg.Counter("repair_spares_exhausted_total", "scheme", scheme),

		Events: reg.Events(),
	}
}

// Instrument attaches telemetry probes to the machine (zero value
// detaches). Attach before serving; the probes are read on every
// protected write and scrub.
func (m *Machine) Instrument(t Telemetry) { m.tel = t }

// Validate checks the configuration is buildable.
func (cfg Config) Validate() error {
	if cfg.N <= 0 {
		return fmt.Errorf("machine: non-positive crossbar side %d", cfg.N)
	}
	if err := cfg.Repair.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if cfg.ECCEnabled {
		if err := cfg.validateProtection(); err != nil {
			return fmt.Errorf("machine: %w", err)
		}
	}
	return nil
}

// New builds a machine with an all-zero memory. The configuration may come
// from user input (CLI flags, fleet descriptions), so invalid geometry is
// reported as an error rather than a panic.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, mem: xbar.New(cfg.N, cfg.N)}
	if cfg.Repair.Enabled() {
		m.rt = repair.NewTable(cfg.Repair, cfg.N)
	}
	if m.prot = newProtector(cfg, m.mem); m.prot != nil {
		m.updateReads = int64(m.prot.lineUpdateReads())
	}
	return m, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// MEM exposes the data crossbar (for inspection and fault injection).
func (m *Machine) MEM() *xbar.Crossbar { return m.mem }

// Protected reports whether any protection code is active.
func (m *Machine) Protected() bool { return m.prot != nil }

// ECCImage returns a snapshot of the logical check-bit state as an
// ecc.Scheme — the input scheme-generic consumers (above all the fault
// campaign's bit-serial reference decoder) diagnose against. Nil for a
// baseline machine.
func (m *Machine) ECCImage() ecc.Scheme {
	if m.prot == nil {
		return nil
	}
	return m.prot.image()
}

// RebuildChecks re-establishes the whole check-bit state from the current
// memory image — the controller path for freshly (re)programmed data. A
// no-op on a baseline machine.
func (m *Machine) RebuildChecks() {
	if m.prot != nil {
		m.prot.rebuild()
	}
}

// Stats summarizes machine activity. Stats from different machines can be
// combined with Add, so a fleet of crossbars aggregates into one total.
type Stats struct {
	MEMCycles     int
	CriticalOps   int
	InputChecks   int
	Corrections   int
	Uncorrectable int

	// Repair-layer activity (all zero with the repair policy off).
	VerifyReads      int
	VerifyMismatches int
	CellsRetired     int
	SparesExhausted  int
}

// Add returns the field-wise sum of two stats. It is commutative and
// associative, so aggregation order (e.g. across concurrent shards) does
// not affect the result.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		MEMCycles:     s.MEMCycles + o.MEMCycles,
		CriticalOps:   s.CriticalOps + o.CriticalOps,
		InputChecks:   s.InputChecks + o.InputChecks,
		Corrections:   s.Corrections + o.Corrections,
		Uncorrectable: s.Uncorrectable + o.Uncorrectable,

		VerifyReads:      s.VerifyReads + o.VerifyReads,
		VerifyMismatches: s.VerifyMismatches + o.VerifyMismatches,
		CellsRetired:     s.CellsRetired + o.CellsRetired,
		SparesExhausted:  s.SparesExhausted + o.SparesExhausted,
	}
}

// Stats returns accumulated statistics.
func (m *Machine) Stats() Stats {
	s := Stats{
		MEMCycles:     m.mem.Stats().Cycles,
		CriticalOps:   m.criticalOps,
		InputChecks:   m.inputChecks,
		Corrections:   m.corrections,
		Uncorrectable: m.uncorrectable,
	}
	if m.rt != nil {
		rs := m.rt.Stats()
		s.VerifyReads = int(rs.VerifyReads)
		s.VerifyMismatches = int(rs.Mismatches)
		s.CellsRetired = int(rs.Retired)
		s.SparesExhausted = int(rs.Exhausted)
	}
	return s
}

// LoadRow writes data into MEM row r through the controller write path
// and brings the check bits up to date (ECC is computed along writes, as
// in a conventional protected memory). With a repair policy configured
// the committed line immediately re-asserts any attached defects (the
// device physics) and is read back and verified; the returned error is a
// *VerifyError (errors.Is-able against ErrVerify) when cells persistently
// refuse the write and the policy cannot (or may not) retire them. With
// repair off the error is always nil.
func (m *Machine) LoadRow(r int, v *bitmat.Vec) error {
	if m.rt != nil {
		// Pre-write metadata sync: the delta fold below cancels the OLD
		// row's contribution as read from the array, so any cell where
		// the stored checks disagree with the physical state (a defect
		// scrub corrected and the device re-asserted) would fold a
		// phantom delta and leave the checks stale. Sync them to the
		// physical row first; write-verify governs this row from here.
		m.syncRowChecks(r)
	}
	old := m.mem.Mat().Row(r).Clone()
	m.mem.WriteRow(r, v)
	if m.prot != nil {
		m.prot.writeRow(r, old, m.mem.Mat().Row(r))
		m.tel.UpdateReads.Add(m.updateReads)
	}
	if m.defects != nil {
		// Device physics: the driven line's stuck cells snap straight
		// back, whether or not anyone is checking.
		m.defects.ReassertRow(m.mem, r)
	}
	if m.rt == nil {
		return nil
	}
	return m.verifyRow(r, v)
}

// UpdateRow is the read-modify-write primitive of the serving layer: it
// hands mutate a copy of MEM row r and, if mutate reports the row dirty,
// commits it through the protected write path (one ECC delta update for
// the whole mutation, however many bits changed). A clean row costs no
// write and no ECC work. Reports whether the row was written; the error
// is LoadRow's write-verify verdict (always nil with repair off).
func (m *Machine) UpdateRow(r int, mutate func(*bitmat.Vec) bool) (bool, error) {
	row := m.mem.Mat().Row(r).Clone()
	if !mutate(row) {
		return false, nil
	}
	return true, m.LoadRow(r, row)
}

// InjectDataFault flips a memristor in MEM — a soft error.
func (m *Machine) InjectDataFault(r, c int) { m.mem.Flip(r, c) }

// CheckConsistent reports whether the stored check-bit state matches a
// from-scratch rebuild over the current memory image (true for a healthy
// machine) — the machine-level Verify, scheme-generic.
func (m *Machine) CheckConsistent() bool {
	return m.prot == nil || m.prot.consistent()
}

// Finding is one non-clean block from a detailed scrub: its block
// coordinates and the diagnosis the controller acted on (single errors are
// already repaired in place when the finding is returned).
type Finding struct {
	BR, BC int
	Diag   ecc.Diagnosis
}

// DataCell returns the global coordinates of the repaired data cell; valid
// only when Diag.Kind is ecc.DataError.
func (f Finding) DataCell(m int) (r, c int) {
	return f.BR*m + f.Diag.LR, f.BC*m + f.Diag.LC
}

// ScrubFindings performs the periodic full-memory ECC check and returns
// every non-clean block with its diagnosis, in deterministic (block-row,
// block-column) order — the evidence stream a fault-campaign adjudicator
// matches against injected faults. Single errors are corrected in place;
// uncorrectable blocks are flagged untouched.
func (m *Machine) ScrubFindings() []Finding {
	if m.prot == nil {
		return nil
	}
	var out []Finding
	for br := 0; br < m.cfg.N/m.cfg.M; br++ {
		n := len(out)
		out = m.prot.checkLine(shifter.ColParallel, br, out)
		for _, f := range out[n:] {
			m.tallyDiag(f)
		}
	}
	if m.rt != nil {
		// Scrub-triggered retirement: every repaired data cell takes a
		// strike in the bounded offender table; repeat offenders crossing
		// the threshold are remapped onto spares right here, online —
		// the scan is complete, so rebuilding a retired cell's block
		// checks cannot perturb the findings above.
		for _, f := range out {
			if f.Diag.Kind == ecc.DataError {
				r, c := f.DataCell(m.cfg.M)
				m.noteScrubRepair(r, c)
			}
		}
	}
	return out
}

// tallyDiag bumps the correction counters for one non-clean finding (and
// mirrors it into the telemetry layer, as an event carrying the block
// coordinates, when probes are attached).
func (m *Machine) tallyDiag(f Finding) {
	if f.Diag.Kind == ecc.Uncorrectable {
		m.uncorrectable++
		m.tel.Uncorrectable.Inc()
		m.tel.Events.Emit(telemetry.EvDetection, int64(m.mem.Stats().Cycles),
			m.tel.Bank, m.tel.Xbar, int64(f.BR), int64(f.BC))
	} else if f.Diag.Kind != ecc.NoError {
		m.corrections++
		m.tel.Corrections.Inc()
		m.tel.Events.Emit(telemetry.EvCorrection, int64(m.mem.Stats().Cycles),
			m.tel.Bank, m.tel.Xbar, int64(f.BR), int64(f.BC))
	}
}

// Scrub performs the periodic full-memory ECC check: every block line is
// verified and single errors are corrected. Returns the number of
// corrections applied and of uncorrectable blocks found.
func (m *Machine) Scrub() (corrected, uncorrectable int) {
	for _, f := range m.ScrubFindings() {
		if f.Diag.Kind == ecc.Uncorrectable {
			uncorrectable++
		} else if f.Diag.Kind != ecc.NoError {
			corrected++
		}
	}
	return corrected, uncorrectable
}

// ExecuteSIMD runs a SIMPLER mapping in every selected row simultaneously
// (the same in-row gate sequence applied with MAGIC's row parallelism,
// Fig 1a). Each row computes the function on its own input data, which
// must already be loaded in cells [0, NumInputs) of that row.
//
// With ECC enabled the controller first checks every block-column that
// holds function inputs (correcting single soft errors), then executes,
// wrapping every output-writing step in the critical-operation protocol
// so the check bits stay in sync.
func (m *Machine) ExecuteSIMD(mp *synth.Mapping, rows *bitmat.Vec) error {
	if mp.RowSize > m.cfg.N {
		return fmt.Errorf("machine: mapping needs %d cells, crossbar row has %d", mp.RowSize, m.cfg.N)
	}
	if inputBlocks := (mp.Netlist.NumInputs() + m.cfg.M - 1) / m.cfg.M; m.prot != nil && inputBlocks > 0 {
		// Check (and correct) every code unit covering the input columns.
		// Units are addressed by home block; striped codes home the
		// covering units across the whole enclosing column group, so the
		// sweep goes through homeColumns — checking only the input
		// block-columns would miss units whose home lies beyond them.
		first, last := m.prot.homeColumns(0, inputBlocks-1)
		for bc := first; bc <= last; bc++ {
			m.inputChecks++
			m.tel.InputChecks.Inc()
			for _, f := range m.prot.checkLine(shifter.RowParallel, bc, nil) {
				m.tallyDiag(f)
			}
		}
	}

	for _, s := range mp.Steps {
		switch s.Kind {
		case synth.StepInit:
			m.mem.InitColumnsInRows(s.Init, rows)
		case synth.StepConst:
			m.writeColumn(s.Cell, s.Value, rows, s.Critical)
		case synth.StepGate:
			m.gate(s, rows)
		}
	}
	m.reconcileWorkingRegion(mp)
	return nil
}

// reconcileWorkingRegion re-establishes check bits over the block-columns
// the function's working cells occupy. The paper keeps the ECC current
// only for output-writing (critical) operations and leaves intermediate
// cells uncovered ("left for future work"); after execution the
// intermediate cells hold dead values whose blocks' parity is stale, so
// the controller recomputes those check bits from the memory image before
// the region is treated as protected data again. Output blocks were kept
// in sync by the critical protocol; recomputing them is idempotent.
func (m *Machine) reconcileWorkingRegion(mp *synth.Mapping) {
	if m.prot == nil {
		return
	}
	// Every unit whose coverage intersects the working columns is stale
	// and must be rebuilt; homeColumns names exactly those units' home
	// blocks. For striped codes this widens the sweep to the enclosing
	// column group — a unit straddling the region boundary has no narrower
	// sound rebuild (the scheme docs note that scratch regions are best
	// allocated group-aligned).
	m.prot.rebuildColumns(m.prot.homeColumns(mp.Netlist.NumInputs()/m.cfg.M, (mp.RowSize-1)/m.cfg.M))
}

// gate executes one (possibly critical) MAGIC step.
func (m *Machine) gate(s synth.Step, rows *bitmat.Vec) {
	critical := s.Critical && m.Protected()
	var old *bitmat.Vec
	if critical {
		old = m.mem.Mat().Col(s.Cell)
		m.mem.Tick() // copy-old transfer occupies MEM
	}
	if s.IsNot {
		m.mem.NOTRows(s.A, s.Cell, rows)
	} else {
		m.mem.NORRows(s.A, s.B, s.Cell, rows)
	}
	if critical {
		newCol := m.mem.Mat().Col(s.Cell)
		m.mem.Tick() // copy-new transfer occupies MEM
		m.criticalUpdate(s.Cell, old, newCol, rows)
	}
}

// criticalUpdate commits one critical operation's check-bit delta: column
// c changed from old to cur in the rows selected by rows.
func (m *Machine) criticalUpdate(c int, old, cur, rows *bitmat.Vec) {
	m.prot.writeColumn(c, old, cur, rows)
	m.criticalOps++
	m.tel.CriticalOps.Inc()
	m.tel.UpdateReads.Add(m.updateReads)
}

// writeColumn drives a constant into column c of every selected row.
func (m *Machine) writeColumn(c int, v bool, rows *bitmat.Vec, criticalStep bool) {
	critical := criticalStep && m.Protected()
	var old *bitmat.Vec
	if critical {
		old = m.mem.Mat().Col(c)
		m.mem.Tick()
	}
	for r := rows.NextOne(0); r >= 0; r = rows.NextOne(r + 1) {
		m.mem.Set(r, c, v)
	}
	m.mem.Tick() // one write-driver cycle
	if critical {
		newCol := m.mem.Mat().Col(c)
		m.mem.Tick()
		m.criticalUpdate(c, old, newCol, rows)
	}
}

// ReadOutputs returns the function outputs computed in row r.
func (m *Machine) ReadOutputs(mp *synth.Mapping, r int) []bool {
	out := make([]bool, mp.Netlist.NumOutputs())
	for i, id := range mp.Netlist.Outputs() {
		out[i] = m.mem.Get(r, mp.CellOf[id])
	}
	return out
}

// LoadInputs writes each row's function inputs into cells [0, NumInputs).
// inputs[r] supplies row r; rows without an entry keep their contents.
func (m *Machine) LoadInputs(mp *synth.Mapping, inputs map[int][]bool) {
	for r, in := range inputs {
		if len(in) != mp.Netlist.NumInputs() {
			panic("machine: wrong input width")
		}
		row := m.mem.Mat().Row(r).Clone()
		for i, v := range in {
			row.Set(i, v)
		}
		m.LoadRow(r, row)
	}
}
