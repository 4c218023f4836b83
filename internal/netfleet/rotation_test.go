package netfleet

import (
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// grantTotal sums executed grants across the given nodes.
func grantTotal(nodes ...*Node) int {
	total := 0
	for _, n := range nodes {
		if n != nil {
			total += len(n.ScrubLog())
		}
	}
	return total
}

// TestScrubRotationCrashRejoin is the fleet's no-double-scrub proof,
// meant to run under -race: a three-node fleet rotates scrubs under the
// elected leader; the leader is killed mid-rotation; the survivors
// re-elect and keep rotating; the dead node rejoins with empty state and
// eventually retakes leadership (it holds the minimum ID). Across every
// node incarnation's executed-grant log, scrub epochs must be globally
// unique — no crossbar is ever scrubbed twice for the same epoch — and
// data written to surviving shards before the crash must read back
// unchanged after the dust settles.
func TestScrubRotationCrashRejoin(t *testing.T) {
	org := testOrg()
	start := time.Now()
	nodes, addrs := startFleet(t, org, 3, nil)
	f := dialFleet(t, org, addrs)
	t.Logf("t=%v fleet of 3 up (round 5ms, election K=4)", time.Since(start).Round(time.Millisecond))

	// Sentinels in the two shards that will survive the crash.
	type probe struct {
		addr int64
		val  uint64
	}
	var probes []probe
	for node := 1; node <= 2; node++ {
		lo, _ := f.NodeMap().Range(node)
		addr := int64(lo)*org.BankBits() + 128
		val := uint64(0xC0FFEE00 + node)
		if err := f.Write(addr, 32, val); err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{addr, val})
	}

	// Phase 1: the minimum ID leads and one full rotation lands.
	xbars := org.Crossbars()
	waitFor(t, 10*time.Second, func() bool {
		return grantTotal(nodes...) >= xbars
	}, "no full scrub rotation under the initial leader")
	if _, _, isLeader := nodes[0].Rotation(); !isLeader {
		t.Fatal("node 0 (minimum ID) is not the leader")
	}
	t.Logf("t=%v node 0 leads, first full rotation done (%d grants)",
		time.Since(start).Round(time.Millisecond), grantTotal(nodes...))

	// Phase 2: kill the leader. Its executed-grant log is evidence even
	// after death.
	log0 := nodes[0].ScrubLog()
	nodes[0].Close()
	dead := nodes[0]
	nodes[0] = nil
	t.Logf("t=%v leader killed", time.Since(start).Round(time.Millisecond))

	base := grantTotal(nodes[1], nodes[2])
	waitFor(t, 10*time.Second, func() bool {
		return grantTotal(nodes[1], nodes[2]) >= base+6
	}, "rotation did not resume after leader crash")
	if _, _, isLeader := nodes[1].Rotation(); !isLeader {
		t.Fatal("node 1 did not take over leadership")
	}
	_, epoch1, _ := nodes[1].Rotation()
	t.Logf("t=%v node 1 leads, rotation resumed (epoch %d)",
		time.Since(start).Round(time.Millisecond), epoch1)

	// Phase 3: rejoin with fresh state on the same address. The minimum
	// ID must retake leadership and its own shard must be scrubbed again
	// — which only happens after it has synced its epoch floor.
	cfg := NodeConfig{
		Org: org, Nodes: 3, Index: 0,
		Addr: addrs[0], Peers: addrs,
		M: 15, K: 2, ECC: true,
		Workers: 2, Round: 5 * time.Millisecond, ElectionK: 4,
	}
	rejoined, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0] = rejoined
	t.Logf("t=%v node 0 rejoined with empty state", time.Since(start).Round(time.Millisecond))
	waitFor(t, 10*time.Second, func() bool {
		_, _, isLeader := rejoined.Rotation()
		return isLeader && len(rejoined.ScrubLog()) >= 4
	}, "rejoined node did not retake leadership and scrub its shard")
	_, epoch0, _ := rejoined.Rotation()
	t.Logf("t=%v node 0 leads again after epoch sync (epoch %d), own shard rescrubbed",
		time.Since(start).Round(time.Millisecond), epoch0)

	// Surviving shards kept their data across the whole episode.
	for _, p := range probes {
		got, err := f.Read(p.addr, 32)
		if err != nil {
			t.Fatalf("probe read at %d: %v", p.addr, err)
		}
		if got != p.val {
			t.Fatalf("probe at %d read %#x, wrote %#x", p.addr, got, p.val)
		}
	}

	// The proof: across every incarnation, each epoch executed at most
	// once fleet-wide.
	type exec struct {
		who string
		rec GrantRec
	}
	var all []exec
	for _, r := range log0 {
		all = append(all, exec{"node0-pre-crash", r})
	}
	for _, r := range rejoined.ScrubLog() {
		all = append(all, exec{"node0-rejoined", r})
	}
	for i, n := range nodes[1:] {
		for _, r := range n.ScrubLog() {
			all = append(all, exec{[]string{"node1", "node2"}[i], r})
		}
	}
	seen := map[int64]string{}
	xbarSeen := map[int]bool{}
	for _, e := range all {
		if prev, dup := seen[e.rec.Epoch]; dup {
			t.Fatalf("epoch %d double-scrubbed: %s and %s", e.rec.Epoch, prev, e.who)
		}
		seen[e.rec.Epoch] = e.who
		xbarSeen[e.rec.Xbar] = true
	}
	// Rotation fairness: the epoch→crossbar mapping walked every
	// crossbar in the fleet, including the rejoined shard's.
	if len(xbarSeen) != xbars {
		t.Fatalf("rotation covered %d of %d crossbars", len(xbarSeen), xbars)
	}

	// With no faults injected, not one scrub may cry wolf.
	for _, n := range []*Node{rejoined, nodes[1], nodes[2]} {
		snap := n.Registry().Snapshot()
		for _, c := range snap.Counters {
			if c.Name == "netfleet_scrub_uncorrectable_total" && c.Value != 0 {
				t.Fatalf("node reported %d uncorrectable scrub words on a clean memory", c.Value)
			}
		}
	}
	_ = dead
}

// TestGrantOutsideFleetIsStale: a grant naming a crossbar outside the
// organization — a hostile or corrupt frame — is counted stale and never
// reaches admission, so it can neither crash the node nor raise its epoch
// floor above the legitimate rotation.
func TestGrantOutsideFleetIsStale(t *testing.T) {
	org := testOrg()
	nodes, _ := startFleet(t, org, 1, func(_ int, c *NodeConfig) {
		c.Round = time.Hour // no rotation ticks race the hand-fed grants
	})
	n := nodes[0]
	bad := []int{-1, -org.PerBank - 1, org.Crossbars(), org.Crossbars() + org.PerBank}
	for _, x := range bad {
		n.execGrant(grantMsg{Epoch: 1 << 40, Xbar: x})
	}
	st := n.Stats()
	if st.StaleGrants != int64(len(bad)) {
		t.Fatalf("stale grants = %d, want %d", st.StaleGrants, len(bad))
	}
	if st.Epoch != 0 || len(st.Grants) != 0 || st.Scrubs != 0 {
		t.Fatalf("out-of-range grant was admitted: epoch %d, log %v, scrubs %d", st.Epoch, st.Grants, st.Scrubs)
	}
	// A legitimate grant still executes after the hostile ones.
	n.execGrant(grantMsg{Epoch: 1, Xbar: org.Crossbars() - 1})
	if st := n.Stats(); st.Scrubs != 1 || st.Epoch != 1 {
		t.Fatalf("legitimate grant after hostile ones: scrubs %d, epoch %d", st.Scrubs, st.Epoch)
	}
}
