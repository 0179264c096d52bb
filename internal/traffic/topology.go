// Package traffic provides the synthetic Abilene traffic substrate that
// substitutes for the Abilene Observatory NetFlow archive used in the
// paper's evaluation (see DESIGN.md §5).
//
// The generator follows the structure that makes PCA-based detection work on
// real backbone traffic (Lakhina et al.): per-interval OD-flow volumes are
// driven by a small number of shared latent factors — diurnal and weekly
// periodicities plus long-range-dependent noise — through a gravity-model
// loading matrix, so the measurement matrix is approximately low-rank.
// Anomalies (high-profile spikes, coordinated low-profile shifts, flash
// crowds) are injected on top and recorded as ground-truth labels. Volumes
// are whole bytes, as NetFlow's octet counts are: the generator and every
// injection round what they write.
package traffic

import (
	"fmt"
	"net/netip"

	"streampca/internal/flow"
)

// AbileneRouters lists the nine Abilene backbone routers active in the
// paper's measurement period (Feb 2008 onward).
var AbileneRouters = []string{
	"ATLA", "CHIC", "HOUS", "KANS", "LOSA", "NEWY", "SALT", "SEAT", "WASH",
}

// abileneWeights approximates the relative traffic mass of each router for
// the gravity model (large exchange points carry more).
var abileneWeights = []float64{
	1.0, // ATLA
	1.6, // CHIC
	0.8, // HOUS
	0.7, // KANS
	1.3, // LOSA
	1.8, // NEWY
	0.6, // SALT
	0.9, // SEAT
	1.4, // WASH
}

// IntervalsPerDay5Min is the number of 5-minute intervals in a day.
const IntervalsPerDay5Min = 288

// IntervalsPerDay1Min is the number of 1-minute intervals in a day.
const IntervalsPerDay1Min = 1440

// RouterPrefix returns the IPv4 prefix owned by router r in the synthetic
// addressing plan (10.r.0.0/16).
func RouterPrefix(r int) (netip.Prefix, error) {
	if r < 0 || r > 255 {
		return netip.Prefix{}, fmt.Errorf("traffic: router index %d out of range", r)
	}
	addr := netip.AddrFrom4([4]byte{10, byte(r), 0, 0})
	return netip.PrefixFrom(addr, 16), nil
}

// RouterAddr returns a representative host address inside router r's prefix;
// host selects among hosts to diversify packet headers.
func RouterAddr(r int, host uint16) (netip.Addr, error) {
	if r < 0 || r > 255 {
		return netip.Addr{}, fmt.Errorf("traffic: router index %d out of range", r)
	}
	return netip.AddrFrom4([4]byte{10, byte(r), byte(host >> 8), byte(host)}), nil
}

// BuildRoutingTable installs one prefix per router into a fresh flow.Table,
// standing in for the BGP+ISIS view that maps addresses to ingress/egress
// routers.
func BuildRoutingTable(numRouters int) (*flow.Table, error) {
	if numRouters <= 0 || numRouters > 256 {
		return nil, fmt.Errorf("traffic: %d routers out of range", numRouters)
	}
	tbl := flow.NewTable()
	for r := 0; r < numRouters; r++ {
		p, err := RouterPrefix(r)
		if err != nil {
			return nil, err
		}
		if err := tbl.Insert(p, flow.RouterID(r)); err != nil {
			return nil, fmt.Errorf("install prefix for router %d: %w", r, err)
		}
	}
	return tbl, nil
}

// NewAbileneAggregator wires the synthetic routing table to a flow
// aggregator over the Abilene routers.
func NewAbileneAggregator() (*flow.Aggregator, error) {
	tbl, err := BuildRoutingTable(len(AbileneRouters))
	if err != nil {
		return nil, err
	}
	agg, err := flow.NewAggregator(tbl, len(AbileneRouters), AbileneRouters)
	if err != nil {
		return nil, err
	}
	return agg, nil
}
