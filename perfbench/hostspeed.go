package main

import (
	"encoding/json"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The host this benchmark runs on is shared: for minutes at a time other
// tenants slow its cores, and the same code then runs about twice as long
// (on a 2-vCPU host, serve-write fell from 111k to 57k requests/s and
// compute-mix from 86k to 39k between runs a few minutes apart). Every
// timed epoch is therefore bracketed by a host probe, a fixed unit of
// general-purpose Go work taken from the standard library, which no change
// to the program can move. The end-to-end timings are scaled by the
// probe's time over refProbeNs: a slow spell of the host slows the probe
// along with the workload and largely cancels out of the reported figures
// (README.md gives the spreads with and without the scaling).

// refProbeNs is the time of one probe unit the timings are scaled to: a
// scaled figure is what the epoch would have measured on a host that runs
// one probe unit in 20 µs.
const refProbeNs = 20000

// probeTime is how long one host probe runs.
const probeTime = 40 * time.Millisecond

type probeRecord struct {
	A, B, C int
	S       string
	F       []float64
	M       map[string]int
}

var (
	probeInts = func() []int {
		rng := rand.New(rand.NewPCG(1, 2))
		xs := make([]int, 256)
		for i := range xs {
			xs[i] = rng.IntN(1 << 20)
		}
		return xs
	}()
	probeSink int
)

// probeUnit is one unit of the host probe: a JSON round trip of a small
// record, a sort of 256 integers and 128 map inserts and lookups — the
// allocation, branching and hashing ordinary Go code does.
func probeUnit() {
	r := probeRecord{A: 1, B: 2, C: 3, S: "hello world", F: []float64{1.5, 2.5, 3.5}, M: map[string]int{"a": 1, "b": 2}}
	b, _ := json.Marshal(r)
	var back probeRecord
	_ = json.Unmarshal(b, &back)
	xs := append([]int(nil), probeInts...)
	sort.Ints(xs)
	m := make(map[int]int, 128)
	for i, v := range xs[:128] {
		m[v] = i
	}
	n := len(b) + back.A
	for _, v := range xs[:128] {
		n += m[v]
	}
	probeSink += n
}

// hostProbe collects garbage, so the program's heap does not weigh on the
// probe, then runs probe units for probeTime with the collector off and
// returns ns per unit. With the collector on, whether a cycle fell inside
// the probe or not split its times into two clusters.
func hostProbe() float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	n := 0
	for time.Since(t0) < probeTime {
		for i := 0; i < 8; i++ {
			probeUnit()
		}
		n += 8
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
