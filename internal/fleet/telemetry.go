package fleet

import (
	"strconv"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// fleetProbes is the planner's telemetry handle set: what the memory
// cannot see (jobs, campaign rounds and their adjudicated outcomes; pmem
// counts scrubs, computes and injections itself). The zero value is the
// disabled layer (nil handles no-op). One set is shared by every shard:
// counter adds commute, so snapshot totals are invariant to the worker
// count — the same property Result.Merge already guarantees for the
// report, extended to the live series.
type fleetProbes struct {
	enabled bool

	jobs []*telemetry.Counter // per bank: fleet_jobs_total{bank="i"}

	campaignRounds *telemetry.Counter
	outcomes       [campaign.NumOutcomes]*telemetry.Counter
}

// fleetProbesFor resolves the fleet series (nil registry resolves the
// disabled zero value).
func fleetProbesFor(reg *telemetry.Registry, banks int) fleetProbes {
	if reg == nil {
		return fleetProbes{}
	}
	p := fleetProbes{
		enabled:        true,
		jobs:           make([]*telemetry.Counter, banks),
		campaignRounds: reg.Counter("campaign_rounds_total"),
	}
	for b := 0; b < banks; b++ {
		p.jobs[b] = reg.Counter("fleet_jobs_total", "bank", strconv.Itoa(b))
	}
	for o := 0; o < campaign.NumOutcomes; o++ {
		p.outcomes[o] = reg.Counter("campaign_outcomes_total", "outcome", campaign.Outcome(o).String())
	}
	return p
}
