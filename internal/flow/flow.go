// Package flow implements the aggregation layer of Fig. 2/4: it maps raw
// packets (source address, destination address, size) to origin–destination
// (OD) flow indices. In the paper the mapping comes from BGP and ISIS feeds;
// here a static longest-prefix-match table assigns each address to its
// ingress/egress router, which preserves the aggregation semantics without a
// live routing plane (see DESIGN.md §5).
package flow

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
)

// Errors returned by the package.
var (
	// ErrNoRoute indicates an address matched by no prefix in the table.
	ErrNoRoute = errors.New("flow: no matching prefix")
	// ErrConfig indicates an invalid table or aggregator configuration.
	ErrConfig = errors.New("flow: invalid configuration")
)

// Packet is the minimal header view the aggregation layer needs.
type Packet struct {
	Src  netip.Addr
	Dst  netip.Addr
	Size int
}

// RouterID identifies a router in the monitored network, 0-based.
type RouterID int

// Table maps IP prefixes to the router that originates/terminates them —
// the stand-in for the BGP+ISIS view used by the paper's aggregation.
//
// Lookups are longest-prefix-match over IPv4 prefixes.
type Table struct {
	// byLen[p] maps the masked 32-bit prefix value to a router, for prefix
	// length p.
	byLen [33]map[uint32]RouterID
	size  int
}

// NewTable returns an empty routing table.
func NewTable() *Table {
	return &Table{}
}

// Len returns the number of installed prefixes.
func (t *Table) Len() int { return t.size }

// Insert installs an IPv4 prefix → router mapping, replacing any previous
// entry for the same prefix.
func (t *Table) Insert(prefix netip.Prefix, r RouterID) error {
	if !prefix.IsValid() || !prefix.Addr().Is4() {
		return fmt.Errorf("%w: prefix %v must be valid IPv4", ErrConfig, prefix)
	}
	if r < 0 {
		return fmt.Errorf("%w: negative router id %d", ErrConfig, r)
	}
	bits := prefix.Bits()
	a4 := prefix.Masked().Addr().As4()
	key := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
	if t.byLen[bits] == nil {
		t.byLen[bits] = make(map[uint32]RouterID)
	}
	if _, exists := t.byLen[bits][key]; !exists {
		t.size++
	}
	t.byLen[bits][key] = r
	return nil
}

// Lookup returns the router owning addr by longest-prefix match.
func (t *Table) Lookup(addr netip.Addr) (RouterID, error) {
	if !addr.Is4() {
		return 0, fmt.Errorf("%w: %v is not IPv4", ErrNoRoute, addr)
	}
	a4 := addr.As4()
	key := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
	for bits := 32; bits >= 0; bits-- {
		m := t.byLen[bits]
		if m == nil {
			continue
		}
		masked := key
		if bits < 32 {
			masked = key &^ (1<<(32-uint(bits)) - 1)
		}
		if r, ok := m[masked]; ok {
			return r, nil
		}
	}
	return 0, fmt.Errorf("%w: %v", ErrNoRoute, addr)
}

// Aggregator maps packets to OD-flow indices using a routing table.
type Aggregator struct {
	table      *Table
	numRouters int
	names      []string
}

// NewAggregator builds an aggregator over numRouters routers. names is
// optional; when given it must have numRouters entries and is used by
// FlowName.
func NewAggregator(table *Table, numRouters int, names []string) (*Aggregator, error) {
	if table == nil {
		return nil, fmt.Errorf("%w: nil table", ErrConfig)
	}
	if numRouters <= 0 {
		return nil, fmt.Errorf("%w: %d routers", ErrConfig, numRouters)
	}
	if names != nil && len(names) != numRouters {
		return nil, fmt.Errorf("%w: %d names for %d routers", ErrConfig, len(names), numRouters)
	}
	copied := make([]string, len(names))
	copy(copied, names)
	return &Aggregator{table: table, numRouters: numRouters, names: copied}, nil
}

// NumFlows returns the number of OD flows (numRouters², including self
// pairs, matching the Abilene OD-flow convention).
func (a *Aggregator) NumFlows() int { return a.numRouters * a.numRouters }

// FlowID maps a packet to its OD flow index origin·numRouters + destination.
func (a *Aggregator) FlowID(p Packet) (int, error) {
	origin, err := a.table.Lookup(p.Src)
	if err != nil {
		return 0, fmt.Errorf("origin of %v: %w", p.Src, err)
	}
	dest, err := a.table.Lookup(p.Dst)
	if err != nil {
		return 0, fmt.Errorf("destination of %v: %w", p.Dst, err)
	}
	if int(origin) >= a.numRouters || int(dest) >= a.numRouters {
		return 0, fmt.Errorf("%w: router id out of range (origin %d, dest %d, routers %d)",
			ErrConfig, origin, dest, a.numRouters)
	}
	return int(origin)*a.numRouters + int(dest), nil
}

// ODPair returns the (origin, destination) routers of a flow index.
func (a *Aggregator) ODPair(flowID int) (origin, dest RouterID, err error) {
	if flowID < 0 || flowID >= a.NumFlows() {
		return 0, 0, fmt.Errorf("%w: flow %d of %d", ErrConfig, flowID, a.NumFlows())
	}
	return RouterID(flowID / a.numRouters), RouterID(flowID % a.numRouters), nil
}

// FlowName renders a flow index as "ORIGIN→DEST" using the configured router
// names, or numeric ids when names were not provided.
func (a *Aggregator) FlowName(flowID int) string {
	origin, dest, err := a.ODPair(flowID)
	if err != nil {
		return "invalid(" + strconv.Itoa(flowID) + ")"
	}
	name := func(r RouterID) string {
		if len(a.names) > 0 {
			return a.names[r]
		}
		return "R" + strconv.Itoa(int(r))
	}
	return name(origin) + "→" + name(dest)
}
