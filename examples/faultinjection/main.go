// Fault injection: the paper's headline scenario. The same SIMD function
// runs on a protected and an unprotected crossbar while soft errors land
// in the function's input operands. The protected design checks input
// blocks before execution (Section IV) and every row computes correctly;
// the baseline silently produces wrong answers.
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/machine"
	"repro/internal/netlist"
	"repro/internal/synth"
)

const (
	n     = 45
	width = 8
)

func main() {
	// The function: an 8-bit adder, mapped to a single-row MAGIC program
	// by the SIMPLER reimplementation.
	b := netlist.NewBuilder("adder8")
	a := b.InputBus(width)
	x := b.InputBus(width)
	carry := b.Const(false)
	for i := 0; i < width; i++ {
		axb := b.Xor(a[i], x[i])
		b.Output(b.Xor(axb, carry))
		carry = b.Or(b.And(a[i], x[i]), b.And(axb, carry))
	}
	b.Output(carry)
	mp, err := synth.Map(b.Build().LowerToNOR(), n)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mapped %d NOR gates into a %d-cell row: %d cycles\n\n",
		mp.GateCycles, mp.RowSize, mp.Latency())

	for _, protected := range []bool{true, false} {
		mach, err := machine.New(machine.Config{N: n, M: 15, K: 2, ECCEnabled: protected})
		if err != nil {
			panic(err)
		}

		// 45 independent additions, one per crossbar row.
		rng := rand.New(rand.NewSource(99))
		inputs := make(map[int][]bool, n)
		for r := 0; r < n; r++ {
			in := make([]bool, 2*width)
			for i := range in {
				in[i] = rng.Intn(2) == 0
			}
			inputs[r] = in
		}
		mach.LoadInputs(mp, inputs)

		// Three soft errors land in the operand region, one per block-row.
		mach.InjectDataFault(5, 3)
		mach.InjectDataFault(20, 11)
		mach.InjectDataFault(40, 7)

		if err := mach.ExecuteSIMD(mp, mach.MEM().AllRows()); err != nil {
			panic(err)
		}

		correct := 0
		for r := 0; r < n; r++ {
			want := mp.Netlist.Eval(inputs[r])
			got := mach.ReadOutputs(mp, r)
			ok := true
			for i := range want {
				ok = ok && got[i] == want[i]
			}
			if ok {
				correct++
			}
		}
		label := "baseline (no ECC)   "
		if protected {
			label = "proposed (diag ECC) "
		}
		fmt.Printf("%s rows correct %2d/%d, corrections %d, uncorrectable %d\n",
			label, correct, n, mach.Stats().Corrections, mach.Stats().Uncorrectable)
	}
}
