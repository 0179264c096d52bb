// Package flow implements the aggregation layer of Fig. 2/4: it maps raw
// packets (source address, destination address, size) to origin–destination
// (OD) flow indices. In the paper the mapping comes from BGP and ISIS feeds;
// here a static longest-prefix-match table — a stride-8 trie, one 256-slot
// node per octet of prefix depth (see Table) — assigns each address to its
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
// Lookups are longest-prefix-match over IPv4 prefixes, through a stride-8
// multibit trie built by controlled prefix expansion and leaf pushing
// (Srinivasan & Varghese, TOCS 1999). A node at depth d is indexed by octet d
// of the address. Each of its 256 four-byte slots is either the index of the
// node one octet deeper, flagged by childBit, or a leaf holding router + 1 of
// the longest installed prefix of length ≤ 8d+8 that covers the slot, 0 when
// none does. A prefix of length b fills the 2^(8⌈b/8⌉−b) slots it covers at
// depth ⌈b/8⌉−1 (/0 all 256 of the root) and is pushed down into every slot
// below them that holds no longer prefix; a new node starts as 256 copies of
// the leaf it replaces. So a lookup loads one slot per octet until it meets a
// leaf, which is the answer. Beside each slot Insert keeps the length of the
// prefix it holds or, for a child slot, the one pushed below it: a prefix
// overwrites only slots whose length is at most its own, which keeps the
// longest match and lets a re-inserted prefix replace its router everywhere
// it was pushed. A node is 1 KiB of slots and 256 B of lengths; the Abilene
// table and every /16-per-router table take two nodes.
type Table struct {
	// nodes[0] is the root, indexed by the first octet, and lens[i] holds
	// the prefix lengths of nodes[i]; both are empty until the first Insert.
	nodes []trieNode
	lens  [][256]uint8
	// prefixes is the set of installed (masked) prefixes, kept for Len; the
	// lookup never reads it.
	prefixes map[netip.Prefix]struct{}
}

// trieNode is one 256-way level of the trie.
type trieNode [256]uint32

// childBit flags a slot that holds a child's index; a slot without it is a
// leaf, router + 1, and 0 means no route.
const childBit = 1 << 31

// maxRouter is the largest RouterID a leaf slot holds.
const maxRouter = childBit - 2

// NewTable returns an empty routing table.
func NewTable() *Table {
	return &Table{}
}

// Len returns the number of installed prefixes.
func (t *Table) Len() int { return len(t.prefixes) }

// Insert installs an IPv4 prefix → router mapping, replacing any previous
// entry for the same prefix.
func (t *Table) Insert(prefix netip.Prefix, r RouterID) error {
	if !prefix.IsValid() || !prefix.Addr().Is4() {
		return fmt.Errorf("%w: prefix %v must be valid IPv4", ErrConfig, prefix)
	}
	if r < 0 || r > maxRouter {
		return fmt.Errorf("%w: router id %d outside [0, %d]", ErrConfig, r, maxRouter)
	}
	prefix = prefix.Masked()
	if t.prefixes == nil {
		t.prefixes = make(map[netip.Prefix]struct{})
		t.nodes, t.lens = make([]trieNode, 1), make([][256]uint8, 1)
	}
	t.prefixes[prefix] = struct{}{}
	bits := prefix.Bits()
	a4 := prefix.Addr().As4()
	depth := max(bits-1, 0) / 8
	n := uint32(0)
	for _, o := range a4[:depth] {
		s := t.nodes[n][o]
		if s&childBit == 0 {
			c := uint32(len(t.nodes))
			var node trieNode
			var lens [256]uint8
			for i := range node {
				node[i], lens[i] = s, t.lens[n][o]
			}
			t.nodes, t.lens = append(t.nodes, node), append(t.lens, lens)
			s = childBit | c
			t.nodes[n][o] = s
		}
		n = s &^ childBit
	}
	// a4[depth]'s low 8(depth+1)−bits bits are zero (the prefix is masked),
	// so the prefix covers the slots from there up.
	first := int(a4[depth])
	t.push(n, first, first+1<<(8*(depth+1)-bits), uint32(r)+1, uint8(bits))
	return nil
}

// push installs the leaf v of a prefix of length b in the slots [lo, hi) of
// node n that hold no longer prefix, and below each such child slot in the
// same way. A pushed copy is never longer than the slot above it, so the
// slots it skips keep the longer matches and an equal length is the same
// prefix, re-inserted.
func (t *Table) push(n uint32, lo, hi int, v uint32, b uint8) {
	for i := lo; i < hi; i++ {
		if t.lens[n][i] > b {
			continue
		}
		t.lens[n][i] = b
		if s := t.nodes[n][i]; s&childBit != 0 {
			t.push(s&^childBit, 0, 256, v, b)
		} else {
			t.nodes[n][i] = v
		}
	}
}

// leaf returns the leaf slot a4 ends at: router + 1 by longest-prefix match,
// 0 when no prefix covers a4. It never allocates. The walk is unrolled: a
// slot at depth 3 is always a leaf.
func (t *Table) leaf(a4 [4]byte) uint32 {
	if len(t.nodes) == 0 {
		return 0
	}
	s := t.nodes[0][a4[0]]
	if s&childBit != 0 {
		s = t.nodes[s&^childBit][a4[1]]
		if s&childBit != 0 {
			s = t.nodes[s&^childBit][a4[2]]
			if s&childBit != 0 {
				s = t.nodes[s&^childBit][a4[3]]
			}
		}
	}
	return s
}

// Lookup returns the router owning addr by longest-prefix match, or an
// ErrNoRoute naming the address.
func (t *Table) Lookup(addr netip.Addr) (RouterID, error) {
	if !addr.Is4() {
		return 0, fmt.Errorf("%w: %v is not IPv4", ErrNoRoute, addr)
	}
	if v := t.leaf(addr.As4()); v != 0 {
		return RouterID(v - 1), nil
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

// FlowIndex is FlowID on raw IPv4 octets, without the error: ok is false
// when either address matches no prefix or routes to a router outside the
// aggregator's range. It never allocates, so it is the form a per-record hot
// path calls; FlowID says which way a miss failed.
func (a *Aggregator) FlowIndex(src, dst [4]byte) (id int, ok bool) {
	// A miss's leaf is 0, so its router wraps to 2³²−1, out of range too.
	origin, dest := uint64(a.table.leaf(src)-1), uint64(a.table.leaf(dst)-1)
	if n := uint64(a.numRouters); origin >= n || dest >= n {
		return 0, false
	}
	return int(origin)*a.numRouters + int(dest), true
}

// FlowID maps a packet to its OD flow index origin·numRouters + destination.
// An address no prefix covers is an ErrNoRoute, a router id beyond the
// aggregator's range an ErrConfig.
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
