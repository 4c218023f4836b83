package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// calibrationSink keeps the calibration loop observable.
var calibrationSink uint64

// calibrationNs times a fixed pure-ALU loop (the LCG spin of the
// repository's BenchmarkHostCalibration) and returns the median ns of one
// 4096-step unit over 9 repetitions. No code change can move it, so a run
// on a throttled or busy host shows up here.
func calibrationNs() float64 {
	const units = 512
	reps := make([]float64, 0, 9)
	x := uint64(0x9E3779B97F4A7C15)
	for r := 0; r < cap(reps); r++ {
		t0 := time.Now()
		for i := 0; i < units; i++ {
			for j := 0; j < 4096; j++ {
				x = x*6364136223846793005 + 1442695040888963407
				x ^= x >> 29
			}
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/units)
	}
	calibrationSink = x
	return median(reps)
}

// provenance describes the run and the host it ran on.
func provenance(o options) map[string]any {
	p := map[string]any{
		"workload":       o.workload,
		"seed":           o.seed,
		"seconds":        o.seconds,
		"trace":          o.trace,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"num_cpu":        runtime.NumCPU(),
		"cpu_model":      cpuModel(),
		"go_version":     runtime.Version(),
		"goarch":         runtime.GOARCH,
		"git_commit":     "unknown",
		"calibration_ns": calibrationNs(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["git_commit"] = s.Value
			case "vcs.modified":
				p["git_modified"] = s.Value == "true"
			}
		}
	}
	// Outside a git checkout there is no commit to stamp; the binary's
	// own hash still identifies the code that ran.
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				p["binary_sha256"] = hex.EncodeToString(h.Sum(nil))
			}
			f.Close()
		}
	}
	return p
}
