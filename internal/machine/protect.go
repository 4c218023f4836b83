package machine

// This file is the machine's one protection path. A protector owns the
// check-bit state of one crossbar and offers the few operations the
// controller needs: line updates on writes, line checks, working-region
// rebuilds, and the read-only maintenance hooks of write-verify. New picks
// the implementation once:
//
//   - diagonalProtector drives the cycle-accurate CMEM pipeline (shifter
//     routing, XOR3 processing crossbars in rotation, the checking
//     crossbar, and the MEM cycles its line copies occupy) — the paper's
//     code exactly as the hardware runs it;
//   - schemeProtector runs any other registered ecc.Scheme through the
//     generic scheme layer.
//
// Everything outside this file is code-agnostic.

import (
	"repro/internal/bitmat"
	"repro/internal/cmem"
	"repro/internal/ecc"
	"repro/internal/shifter"
	"repro/internal/xbar"
)

// protector is the check-bit backend of a protected machine. Block lines
// are addressed like cmem.CheckLine: orientation ColParallel names
// block-row idx, RowParallel names block-column idx.
type protector interface {
	// writeRow brings the check bits current after MEM row r changed from
	// old to cur (the controller write path, every column written).
	writeRow(r int, old, cur *bitmat.Vec)
	// writeColumn is the critical-operation update: column c changed from
	// old to cur in the rows selected by rows.
	writeColumn(c int, old, cur, rows *bitmat.Vec)
	// checkLine checks and corrects every unit homed on one block line and
	// appends the non-clean findings to out, in block order.
	checkLine(o shifter.Orientation, idx int, out []Finding) []Finding
	// homeColumns is ecc.Scheme.HomeColumns.
	homeColumns(firstBC, lastBC int) (first, last int)
	// rebuildColumns re-derives, from the memory image, the check bits of
	// every unit homed in block-columns [first,last].
	rebuildColumns(first, last int)
	// diagnoseBlock decodes block (br,bc) without correcting anything: the
	// write-verify sweeps must leave corrections to the scrub, visible in
	// its findings.
	diagnoseBlock(br, bc int) []ecc.Diagnosis
	// rebuildRowWords is ecc.Scheme.RebuildRowWords over the live image.
	rebuildRowWords(r, bc int) bool
	// clearCell folds a one-hot delta at data cell (r,c) into the check
	// bits, leaving the data untouched — re-synchronizing metadata with
	// data a read-back proved correct.
	clearCell(r, c int)
	// image snapshots the logical check-bit state as an ecc.Scheme.
	image() ecc.Scheme
	// rebuild re-derives the whole check-bit state from the memory image.
	rebuild()
	// consistent reports whether the stored state equals a rebuild.
	consistent() bool
	// lineUpdateReads is ecc.Scheme.LineUpdateReads(1).
	lineUpdateReads() int
}

// validateProtection checks that the configured code can protect the
// configured geometry.
func (cfg Config) validateProtection() error {
	if cfg.SchemeName() == ecc.SchemeDiagonal {
		return cmem.Config{N: cfg.N, M: cfg.M, K: cfg.K}.Validate()
	}
	spec, err := ecc.SchemeByName(cfg.SchemeName())
	if err != nil {
		return err
	}
	return spec.Validate(ecc.Params{N: cfg.N, M: cfg.M})
}

// newProtector builds the protector for a validated configuration, or nil
// for the unprotected baseline.
func newProtector(cfg Config, mem *xbar.Crossbar) protector {
	if !cfg.ECCEnabled {
		return nil
	}
	if cfg.SchemeName() == ecc.SchemeDiagonal {
		return &diagonalProtector{cm: cmem.New(cmem.Config{N: cfg.N, M: cfg.M, K: cfg.K}), mem: mem}
	}
	spec, _ := ecc.SchemeByName(cfg.SchemeName()) // validated by New
	ones := bitmat.NewVec(cfg.N)
	ones.Fill(true)
	return &schemeProtector{spec: spec, sch: spec.New(ecc.Params{N: cfg.N, M: cfg.M}, nil), mem: mem, ones: ones}
}

// CMEM exposes the check memory, or nil for a baseline machine or a
// non-diagonal scheme.
func (m *Machine) CMEM() *cmem.CMEM {
	if d, ok := m.prot.(*diagonalProtector); ok {
		return d.cm
	}
	return nil
}

// lineFinding names block b of the block line (o, idx).
func lineFinding(o shifter.Orientation, idx, b int) Finding {
	if o == shifter.ColParallel {
		return Finding{BR: idx, BC: b}
	}
	return Finding{BR: b, BC: idx}
}

// diagonalProtector is the paper's code on the cycle-accurate CMEM.
type diagonalProtector struct {
	cm  *cmem.CMEM
	mem *xbar.Crossbar
	pc  int // processing crossbar of the next critical update (round robin)
}

func (d *diagonalProtector) writeRow(r int, old, cur *bitmat.Vec) {
	d.cm.UpdateCritical(0, cmem.CriticalUpdate{
		Orientation: shifter.ColParallel, Index: r, Old: old, New: cur,
	})
}

func (d *diagonalProtector) writeColumn(c int, old, cur, _ *bitmat.Vec) {
	d.cm.UpdateCritical(d.pc, cmem.CriticalUpdate{
		Orientation: shifter.RowParallel, Index: c, Old: old, New: cur,
	})
	d.pc = (d.pc + 1) % d.cm.Config().K
}

func (d *diagonalProtector) checkLine(o shifter.Orientation, idx int, out []Finding) []Finding {
	diags := d.cm.CheckLine(d.mem, o, idx, idx%d.cm.Config().K)
	for b := 0; b < d.cm.Geometry().BlocksPerSide(); b++ { // block order, not map order
		if diag, ok := diags[b]; ok {
			f := lineFinding(o, idx, b)
			f.Diag = diag
			out = append(out, f)
		}
	}
	return out
}

func (d *diagonalProtector) homeColumns(firstBC, lastBC int) (int, int) { return firstBC, lastBC }

func (d *diagonalProtector) rebuildColumns(first, last int) {
	p := d.cm.Geometry()
	want := ecc.Build(p, d.mem.Mat())
	for bc := first; bc <= last; bc++ {
		for br := 0; br < p.BlocksPerSide(); br++ {
			for i := 0; i < p.M; i++ {
				d.cm.SetCheckBit(shifter.Leading, i, br, bc, want.Lead(i, br, bc))
				d.cm.SetCheckBit(shifter.Counter, i, br, bc, want.Counter(i, br, bc))
			}
		}
	}
}

func (d *diagonalProtector) diagnoseBlock(br, bc int) []ecc.Diagnosis {
	p := d.cm.Geometry()
	lead, counter := bitmat.NewVec(p.M), bitmat.NewVec(p.M)
	for i := 0; i < p.M; i++ {
		lead.Set(i, d.cm.CheckBit(shifter.Leading, i, br, bc))
		counter.Set(i, d.cm.CheckBit(shifter.Counter, i, br, bc))
	}
	r0, c0 := br*p.M, bc*p.M
	for lr := 0; lr < p.M; lr++ {
		for lc := 0; lc < p.M; lc++ {
			if d.mem.Mat().Get(r0+lr, c0+lc) {
				lead.Flip(p.LeadIdx(lr, lc))
				counter.Flip(p.CounterIdx(lr, lc))
			}
		}
	}
	if diag := ecc.Decode(p, lead, counter); diag.Kind != ecc.NoError {
		return []ecc.Diagnosis{diag}
	}
	return nil
}

// rebuildRowWords: the diagonal unit is the whole block, which no single
// row spans.
func (d *diagonalProtector) rebuildRowWords(int, int) bool { return false }

func (d *diagonalProtector) clearCell(r, c int) {
	p := d.cm.Geometry()
	br, bc, lr, lc := p.BlockOf(r, c)
	d.cm.FlipCheckBit(shifter.Leading, p.LeadIdx(lr, lc), br, bc)
	d.cm.FlipCheckBit(shifter.Counter, p.CounterIdx(lr, lc), br, bc)
}

func (d *diagonalProtector) image() ecc.Scheme { return ecc.DiagonalFromCheckBits(d.cm.Image()) }

func (d *diagonalProtector) rebuild() { d.cm.LoadFrom(d.mem.Mat()) }

func (d *diagonalProtector) consistent() bool {
	return d.cm.Image().Equal(ecc.Build(d.cm.Geometry(), d.mem.Mat()))
}

// lineUpdateReads: the Θ(1) old/new copy of the written line.
func (d *diagonalProtector) lineUpdateReads() int { return cmem.CriticalUpdateMEMCycles }

// schemeProtector runs a registered ecc.Scheme: sch holds the live
// check-bit state, spec rebuilds it.
type schemeProtector struct {
	spec ecc.SchemeSpec
	sch  ecc.Scheme
	mem  *xbar.Crossbar
	ones *bitmat.Vec // all-columns mask for whole-row delta updates
}

func (s *schemeProtector) writeRow(r int, old, cur *bitmat.Vec) {
	s.sch.UpdateRowWrite(r, old, cur, s.ones)
}

func (s *schemeProtector) writeColumn(c int, old, cur, rows *bitmat.Vec) {
	s.sch.UpdateColumnWrite(c, old, cur, rows)
}

// checkLine: a scheme with sub-block structure (Hamming words) may report
// several findings for one block, in the scheme's deterministic order.
func (s *schemeProtector) checkLine(o shifter.Orientation, idx int, out []Finding) []Finding {
	for b := 0; b < s.sch.Params().BlocksPerSide(); b++ {
		f := lineFinding(o, idx, b)
		for _, d := range s.sch.CorrectBlock(s.mem.Mat(), f.BR, f.BC) {
			f.Diag = d
			out = append(out, f)
		}
	}
	return out
}

func (s *schemeProtector) homeColumns(firstBC, lastBC int) (int, int) {
	return s.sch.HomeColumns(firstBC, lastBC)
}

func (s *schemeProtector) rebuildColumns(first, last int) {
	for bc := first; bc <= last; bc++ {
		for br := 0; br < s.sch.Params().BlocksPerSide(); br++ {
			s.sch.RebuildBlock(s.mem.Mat(), br, bc)
		}
	}
}

func (s *schemeProtector) diagnoseBlock(br, bc int) []ecc.Diagnosis {
	return s.sch.CheckBlock(s.mem.Mat(), br, bc)
}

func (s *schemeProtector) rebuildRowWords(r, bc int) bool {
	return s.sch.RebuildRowWords(s.mem.Mat(), r, bc)
}

func (s *schemeProtector) clearCell(r, c int) {
	old := s.mem.Mat().Row(r).Clone()
	old.Flip(c)
	s.sch.UpdateRowWrite(r, old, s.mem.Mat().Row(r), s.ones)
}

func (s *schemeProtector) image() ecc.Scheme { return s.sch.Clone() }

func (s *schemeProtector) rebuild() { s.sch = s.spec.New(s.sch.Params(), s.mem.Mat()) }

func (s *schemeProtector) consistent() bool {
	return s.sch.Equal(s.spec.New(s.sch.Params(), s.mem.Mat()))
}

func (s *schemeProtector) lineUpdateReads() int { return s.sch.LineUpdateReads(1) }
