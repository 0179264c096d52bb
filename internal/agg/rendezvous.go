package agg

import "streampca/internal/tier"

// Rendezvous orders aggregator candidates by highest-random-weight preference
// for the given monitor ID; see tier.Rendezvous, which the monitors' failover
// uses.
func Rendezvous(monitorID string, candidates []string) []string {
	return tier.Rendezvous(monitorID, candidates)
}
