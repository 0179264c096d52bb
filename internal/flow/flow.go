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
// multibit trie built by controlled prefix expansion. A node at depth d is
// indexed by octet d of the address; each of its 256 slots holds the router
// and length of the longest installed prefix of length 8d+1..8d+8 that
// covers the slot, and the index of the node one octet deeper, if any. A
// prefix of length b fills the 2^(8⌈b/8⌉−b) slots it covers at depth
// ⌈b/8⌉−1, overwriting a slot only when it is at least as long as the slot's
// prefix; /0 is one field beside the trie. A lookup walks at most four nodes
// and keeps the last router it meets, so the deepest covering slot — the
// longest match — wins. A slot is 16 bytes, a node 4 KiB; the Abilene table
// and every /16-per-router table take two nodes.
type Table struct {
	// nodes[0] is the root, indexed by the first octet; nodes is empty until
	// the first prefix longer than /0 is installed.
	nodes []trieNode
	// def is the /0 route, installed when hasDef.
	def    RouterID
	hasDef bool
	// prefixes is the set of installed (masked) prefixes, kept for Len; the
	// lookup never reads it.
	prefixes map[netip.Prefix]struct{}
}

// trieNode is one 256-way level of the trie.
type trieNode [256]trieSlot

// trieSlot is one expanded entry: bits is the length of the prefix whose
// router it holds (0: none), child the index in Table.nodes of the node one
// octet deeper (0: none — the root is never a child).
type trieSlot struct {
	router RouterID
	child  uint32
	bits   uint8
}

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
	if r < 0 {
		return fmt.Errorf("%w: negative router id %d", ErrConfig, r)
	}
	prefix = prefix.Masked()
	if t.prefixes == nil {
		t.prefixes = make(map[netip.Prefix]struct{})
	}
	t.prefixes[prefix] = struct{}{}
	bits := prefix.Bits()
	if bits == 0 {
		t.def, t.hasDef = r, true
		return nil
	}
	if len(t.nodes) == 0 {
		t.nodes = make([]trieNode, 1)
	}
	a4 := prefix.Addr().As4()
	depth := (bits - 1) / 8
	n := uint32(0)
	for d := 0; d < depth; d++ {
		next := t.nodes[n][a4[d]].child
		if next == 0 {
			next = uint32(len(t.nodes))
			t.nodes = append(t.nodes, trieNode{})
			t.nodes[n][a4[d]].child = next
		}
		n = next
	}
	// a4[depth]'s low 8(depth+1)−bits bits are zero (the prefix is masked),
	// so the prefix covers the slots from there up.
	first := int(a4[depth])
	slots := t.nodes[n][first : first+1<<(8*(depth+1)-bits)]
	for i := range slots {
		if s := &slots[i]; uint8(bits) >= s.bits {
			s.router, s.bits = r, uint8(bits)
		}
	}
	return nil
}

// route returns the router owning addr by longest-prefix match; ok is false
// when no prefix covers addr or addr is not IPv4. It never allocates.
func (t *Table) route(addr netip.Addr) (r RouterID, ok bool) {
	if !addr.Is4() {
		return 0, false
	}
	r, ok = t.def, t.hasDef
	if len(t.nodes) == 0 {
		return r, ok
	}
	a4 := addr.As4()
	n := &t.nodes[0]
	for d := 0; d < 4; d++ {
		s := &n[a4[d]]
		if s.bits != 0 {
			r, ok = s.router, true
		}
		if s.child == 0 {
			break
		}
		n = &t.nodes[s.child]
	}
	return r, ok
}

// Lookup returns the router owning addr by longest-prefix match, or an
// ErrNoRoute naming the address.
func (t *Table) Lookup(addr netip.Addr) (RouterID, error) {
	if r, ok := t.route(addr); ok {
		return r, nil
	}
	if !addr.Is4() {
		return 0, fmt.Errorf("%w: %v is not IPv4", ErrNoRoute, addr)
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

// FlowIndex is FlowID without the error: ok is false when either address
// matches no prefix or routes to a router outside the aggregator's range. It
// never allocates, so it is the form a per-record hot path calls; FlowID says
// which way a miss failed.
func (a *Aggregator) FlowIndex(src, dst netip.Addr) (id int, ok bool) {
	origin, okSrc := a.table.route(src)
	dest, okDst := a.table.route(dst)
	if !okSrc || !okDst || int(origin) >= a.numRouters || int(dest) >= a.numRouters {
		return 0, false
	}
	return int(origin)*a.numRouters + int(dest), true
}

// FlowID maps a packet to its OD flow index origin·numRouters + destination.
// An address no prefix covers is an ErrNoRoute, a router id beyond the
// aggregator's range an ErrConfig.
func (a *Aggregator) FlowID(p Packet) (int, error) {
	if id, ok := a.FlowIndex(p.Src, p.Dst); ok {
		return id, nil
	}
	origin, err := a.table.Lookup(p.Src)
	if err != nil {
		return 0, fmt.Errorf("origin of %v: %w", p.Src, err)
	}
	dest, err := a.table.Lookup(p.Dst)
	if err != nil {
		return 0, fmt.Errorf("destination of %v: %w", p.Dst, err)
	}
	return 0, fmt.Errorf("%w: router id out of range (origin %d, dest %d, routers %d)",
		ErrConfig, origin, dest, a.numRouters)
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
