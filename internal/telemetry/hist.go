package telemetry

import "math/bits"

// histSub is the number of sub-buckets per octave: values within one
// power of two are resolved into histSub linear steps, bounding the
// relative quantile error at 1/histSub (12.5%) while keeping the
// histogram a small fixed-size value type.
const histSub = 8

// histBuckets spans int64 values: 8 exact buckets below histSub plus
// histSub log-linear buckets for each of the 60 remaining octaves.
const histBuckets = histSub + histSub*(63-3)

// Hist is a mergeable log-linear histogram — one implementation backs
// shard results, replay latency digests, and registry Histograms:
// observations are pure counts, Merge is commutative and associative,
// and quantiles are a deterministic function of the merged counts — so
// per-shard histograms combine into the same distribution under any
// worker count and any merge order. The zero Hist is empty and ready to
// use. It is a single-writer value type; for concurrent observation use
// Registry.Histogram.
type Hist struct {
	N       int64 // observations
	Sum     int64 // sum of observed values
	Max     int64 // largest observed value (0 when empty)
	Buckets [histBuckets]int64
}

// histBucket maps a non-negative value to its bucket index.
func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	oct := 63 - bits.LeadingZeros64(uint64(v)) // v in [2^oct, 2^oct+1)
	sub := int((v - 1<<uint(oct)) >> uint(oct-3))
	return histSub + (oct-3)*histSub + sub
}

// histUpper returns the largest value that lands in bucket i — the value
// Quantile reports for ranks falling inside the bucket.
func histUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	oct := 3 + (i-histSub)/histSub
	sub := int64((i - histSub) % histSub)
	step := int64(1) << uint(oct-3)
	return 1<<uint(oct) + (sub+1)*step - 1
}

// Observe records one value. Negative values clamp to zero.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[histBucket(v)]++
}

// Merge returns the combination of two histograms. It is commutative and
// associative, so shard aggregation order does not affect the outcome.
func (h Hist) Merge(o Hist) Hist {
	m := h
	m.N += o.N
	m.Sum += o.Sum
	if o.Max > m.Max {
		m.Max = o.Max
	}
	for i, c := range o.Buckets {
		m.Buckets[i] += c
	}
	return m
}

// Quantile returns an upper bound for the q-th quantile (q in [0,1]) with
// relative error bounded by the bucket resolution. Empty histograms
// report 0; q ≥ 1 reports the bucket ceiling of the maximum.
func (h Hist) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	rank := int64(q * float64(h.N))
	if rank >= h.N {
		rank = h.N - 1
	}
	if rank < 0 {
		rank = 0
	}
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen > rank {
			u := histUpper(i)
			if u > h.Max {
				u = h.Max // tighten the last bucket to the true maximum
			}
			return u
		}
	}
	return h.Max
}

// Mean returns the exact average of the observed values (0 when empty).
func (h Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// HistSummary is the fixed digest of a histogram for reports: quantiles
// are bucket upper bounds, so the digest is deterministic from the
// observation multiset alone.
type HistSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
}

// Summary digests the histogram into its report form.
func (h Hist) Summary() HistSummary {
	return HistSummary{
		Count: h.N,
		Mean:  h.Mean(),
		Max:   h.Max,
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}
