package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestResultGolden pins the full Result of every built-in scenario under
// the diagonal code, the Hamming code and the unprotected baseline. The
// files were written by the engine that predates running plans over
// pmem.Memory, so any change in what a plan does to a crossbar — cycles,
// critical ops, corrections, campaign outcomes, per-bank tallies — shows
// up as a byte difference here.
func TestResultGolden(t *testing.T) {
	scenarios := []Workload{
		Uniform{OpsPerCrossbar: 2},
		HotBank{Jobs: 24},
		MixedScrub{Rounds: 3, SIMDPerRound: 1},
		FaultStorm{Bursts: 2},
		Campaign{Rounds: 2},
	}
	variants := []struct {
		name   string
		ecc    bool
		scheme string
	}{
		{"diagonal", true, "diagonal"},
		{"hamming", true, "hamming"},
		{"noecc", false, ""},
	}
	for _, w := range scenarios {
		for _, v := range variants {
			name := w.Name() + "_" + v.name
			t.Run(name, func(t *testing.T) {
				cfg := testCfg(3)
				cfg.ECCEnabled, cfg.Scheme = v.ecc, v.scheme
				res, err := Run(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				path := filepath.Join("testdata", "result_"+name+".json")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("Result differs from %s:\ngot:\n%s", path, got)
				}
			})
		}
	}
}
