package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// lastResult parses the result object on the last line of stdout.
func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last stdout line is not a result: %v\n%s", err, stdout)
	}
	return r
}

// declared returns the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reported(r result) []string {
	var names []string
	for k, m := range r.Metrics {
		names = append(names, k+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// TestTamperedMemoryFailsTheRun flips one stored data bit behind a short
// serve-write run: the final read-back must report the mismatch, the
// final scrub must see the flip, and the run must exit nonzero.
func TestTamperedMemoryFailsTheRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	flip := func(m *pmem.Memory) { m.Crossbar(0).MEM().Flip(0, 0) } // bit 0: client 0's first slot
	code := execute(options{workload: "serve-write", seed: 1, seconds: 0.3, tamper: flip}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("tampered run exited 0\n%s", stdout.String())
	}
	r := lastResult(t, stdout.String())
	if r.Correct || r.Failed < 2 {
		t.Fatalf("tampered run reported correct=%v failed=%d, want false and >= 2", r.Correct, r.Failed)
	}
	for _, want := range []string{"final read-back of slot at bit 0", "final ScrubAll corrected 1"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}

// TestWorkloadsReportDeclaredMetrics runs every workload briefly: each
// must pass its checks and report exactly the end-to-end metrics
// BENCHMARK.json declares, and a traced run exactly the per-layer ones.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	e2e, layers := declared(t, "end_to_end"), declared(t, "per_layer")
	for _, w := range []string{"serve-write", "compute-mix", "campaign"} {
		// Campaign passes take tens of ms (far more under -race); every
		// epoch of the run needs a few.
		secs := 0.3
		if w == "campaign" {
			secs = 4
		}
		var stdout, stderr bytes.Buffer
		if code := execute(options{workload: w, seed: 3, seconds: secs}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s exited %d: %s", w, code, stderr.String())
		}
		r := lastResult(t, stdout.String())
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, r.Correct, r.Attempted, r.Failed)
		}
		if got := reported(r); strings.Join(got, ",") != strings.Join(e2e, ",") {
			t.Errorf("%s reports %v, BENCHMARK.json declares %v", w, got, e2e)
		}
		for k, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, k, m.Value)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := execute(options{workload: "compute-mix", seed: 3, seconds: 0.4, trace: true}, &stdout, &stderr); code != 0 {
		t.Fatalf("traced run exited %d: %s", code, stderr.String())
	}
	if got := reported(lastResult(t, stdout.String())); strings.Join(got, ",") != strings.Join(layers, ",") {
		t.Errorf("traced run reports %v, BENCHMARK.json declares %v", got, layers)
	}
}

func TestBadArgumentsExitNonzero(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "campaign", "--trace", "2"},
		{"--workload", "campaign", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want nonzero and no result", args, code, stdout.String())
		}
	}
}
