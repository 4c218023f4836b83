package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/mmpu"
	"repro/internal/telemetry"
)

// telemetrySnapshotJSON runs an ECC-active scenario over a 32-bank fleet
// with the given worker count and renders the telemetry snapshot.
func telemetrySnapshotJSON(t *testing.T, workers int, w Workload) []byte {
	t.Helper()
	reg := telemetry.New()
	cfg := Config{
		Org: mmpu.Custom(45, 32, 1), M: 15, K: 2, ECCEnabled: true,
		Workers: workers, Seed: 42, Telemetry: reg,
	}
	if _, err := Run(cfg, w); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTelemetrySnapshotWorkerInvariant extends the fleet's determinism
// contract to the telemetry layer: because every series update commutes
// (atomic counter adds, histogram bucket increments), one shared
// registry yields a byte-identical snapshot at any worker count — the
// same property Result already guarantees for the report.
func TestTelemetrySnapshotWorkerInvariant(t *testing.T) {
	scenarios := []Workload{
		MixedScrub{Rounds: 2, SIMDPerRound: 1},
		FaultStorm{Bursts: 2, SER: 1e6, Hours: 1},
		Campaign{Rounds: 2, Model: "transient", SER: 1e-3, Hours: 1e9},
	}
	for _, w := range scenarios {
		t.Run(w.Name(), func(t *testing.T) {
			ref := telemetrySnapshotJSON(t, 1, w)
			for _, workers := range []int{8, 32} {
				if got := telemetrySnapshotJSON(t, workers, w); !bytes.Equal(ref, got) {
					t.Fatalf("telemetry snapshot diverged at workers=%d:\n1:  %s\n%d: %s",
						workers, ref, workers, got)
				}
			}
		})
	}
}

// TestTelemetrySeriesMatchResult cross-checks the live series against the
// Result the same run reports: the counters are a second, independently
// accumulated account of the identical work, so any disagreement means an
// instrumentation point is missing or double-counted. MixedScrub covers
// loads, SIMD and scrubs; FaultStorm covers fault-burst injections.
func TestTelemetrySeriesMatchResult(t *testing.T) {
	for _, w := range []Workload{
		MixedScrub{Rounds: 2, SIMDPerRound: 1},
		FaultStorm{Bursts: 2},
	} {
		t.Run(w.Name(), func(t *testing.T) {
			reg := telemetry.New()
			cfg := Config{
				Org: testOrg(), M: 15, K: 2, ECCEnabled: true,
				Workers: 3, Seed: 42, Telemetry: reg,
			}
			res, err := Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			checks := []struct {
				key  string
				want int64
			}{
				{`ecc_critical_ops_total{scheme="diagonal"}`, int64(res.Machine.CriticalOps)},
				{`ecc_input_checks_total{scheme="diagonal"}`, int64(res.Machine.InputChecks)},
				{`ecc_corrections_total{scheme="diagonal"}`, int64(res.Machine.Corrections)},
			}
			for _, c := range checks {
				if got := snap.Counter(c.key); got != c.want {
					t.Errorf("%s = %d, want %d (from Result)", c.key, got, c.want)
				}
			}
			// Per-bank families: the memory's series summed over banks,
			// and the planner's own job counter.
			families := []struct {
				name string
				want int64
			}{
				{"pmem_scrubs_total", res.Scrubs},
				{"pmem_compute_total", res.SIMDOps},
				{"pmem_rmw_total", res.Loads},
				{"pmem_injected_total", res.Injected},
				{"pmem_scrub_corrected_total", res.Corrected},
				{"pmem_scrub_uncorrectable_total", res.Uncorrectable},
				{"fleet_jobs_total", res.Jobs},
			}
			for _, f := range families {
				if got := snap.CounterFamily(f.name); got != f.want {
					t.Errorf("sum %s = %d, want %d (from Result)", f.name, got, f.want)
				}
			}
			// Each scenario must exercise the series it is here for.
			if res.Scrubs == 0 || res.Loads+res.Injected == 0 {
				t.Fatalf("%s did no scrubs or no loads/injections: %+v", w.Name(), res)
			}
		})
	}
}
