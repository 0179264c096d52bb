package flow

import (
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func buildTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable()
	entries := []struct {
		prefix string
		r      RouterID
	}{
		{"10.0.0.0/8", 0},
		{"10.1.0.0/16", 1}, // more specific than 10/8
		{"192.168.0.0/16", 2},
		{"192.168.7.1/32", 3}, // host route
	}
	for _, e := range entries {
		if err := tbl.Insert(mustPrefix(t, e.prefix), e.r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestTableLongestPrefixMatch(t *testing.T) {
	tbl := buildTable(t)
	tests := []struct {
		addr string
		want RouterID
	}{
		{"10.2.3.4", 0},
		{"10.1.9.9", 1},
		{"192.168.1.1", 2},
		{"192.168.7.1", 3},
	}
	for _, tt := range tests {
		got, err := tbl.Lookup(mustAddr(t, tt.addr))
		if err != nil {
			t.Fatalf("lookup %s: %v", tt.addr, err)
		}
		if got != tt.want {
			t.Fatalf("lookup %s = %d, want %d", tt.addr, got, tt.want)
		}
	}
}

func TestTableLookupMiss(t *testing.T) {
	tbl := buildTable(t)
	if _, err := tbl.Lookup(mustAddr(t, "8.8.8.8")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("miss: %v", err)
	}
	if _, err := tbl.Lookup(mustAddr(t, "::1")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("ipv6: %v", err)
	}
}

func TestTableInsertValidation(t *testing.T) {
	tbl := NewTable()
	v6 := netip.MustParsePrefix("2001:db8::/32")
	if err := tbl.Insert(v6, 0); !errors.Is(err, ErrConfig) {
		t.Fatalf("ipv6 prefix: %v", err)
	}
	if err := tbl.Insert(mustPrefix(t, "10.0.0.0/8"), -1); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative router: %v", err)
	}
	if err := tbl.Insert(mustPrefix(t, "10.0.0.0/8"), 1); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d", tbl.Len())
	}
	// Replacement keeps the count.
	if err := tbl.Insert(mustPrefix(t, "10.0.0.0/8"), 2); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len after replace = %d", tbl.Len())
	}
	got, err := tbl.Lookup(mustAddr(t, "10.0.0.1"))
	if err != nil || got != 2 {
		t.Fatalf("lookup after replace = %d, %v", got, err)
	}
}

func TestTableDefaultRoute(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Insert(mustPrefix(t, "0.0.0.0/0"), 7); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Lookup(mustAddr(t, "203.0.113.9"))
	if err != nil || got != 7 {
		t.Fatalf("default route lookup = %d, %v", got, err)
	}
}

func TestNewAggregatorValidation(t *testing.T) {
	tbl := buildTable(t)
	if _, err := NewAggregator(nil, 4, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil table: %v", err)
	}
	if _, err := NewAggregator(tbl, 0, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero routers: %v", err)
	}
	if _, err := NewAggregator(tbl, 4, []string{"A"}); !errors.Is(err, ErrConfig) {
		t.Fatalf("short names: %v", err)
	}
}

func TestAggregatorFlowID(t *testing.T) {
	tbl := buildTable(t)
	agg, err := NewAggregator(tbl, 4, []string{"A", "B", "C", "D"})
	if err != nil {
		t.Fatal(err)
	}
	if agg.NumFlows() != 16 {
		t.Fatalf("NumFlows = %d", agg.NumFlows())
	}
	p := Packet{Src: mustAddr(t, "10.1.0.5"), Dst: mustAddr(t, "192.168.1.1"), Size: 100}
	id, err := agg.FlowID(p)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1*4+2 {
		t.Fatalf("flow id = %d, want 6", id)
	}
	origin, dest, err := agg.ODPair(id)
	if err != nil || origin != 1 || dest != 2 {
		t.Fatalf("ODPair = (%d,%d), %v", origin, dest, err)
	}
	if got := agg.FlowName(id); got != "B→C" {
		t.Fatalf("FlowName = %q", got)
	}
	// Unroutable source.
	bad := Packet{Src: mustAddr(t, "8.8.8.8"), Dst: mustAddr(t, "10.0.0.1")}
	if _, err := agg.FlowID(bad); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unroutable: %v", err)
	}
}

func TestAggregatorODPairErrors(t *testing.T) {
	agg, _ := NewAggregator(buildTable(t), 3, nil)
	if _, _, err := agg.ODPair(-1); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative: %v", err)
	}
	if _, _, err := agg.ODPair(9); !errors.Is(err, ErrConfig) {
		t.Fatalf("too large: %v", err)
	}
	if got := agg.FlowName(99); got != "invalid(99)" {
		t.Fatalf("FlowName invalid = %q", got)
	}
	if got := agg.FlowName(4); got != "R1→R1" {
		t.Fatalf("numeric FlowName = %q", got)
	}
}

func TestFlowIndexRoundTrip(t *testing.T) {
	agg, _ := NewAggregator(buildTable(t), 5, nil)
	for o := RouterID(0); o < 5; o++ {
		for d := RouterID(0); d < 5; d++ {
			id := int(o)*5 + int(d)
			gotO, gotD, err := agg.ODPair(id)
			if err != nil || gotO != o || gotD != d {
				t.Fatalf("round trip (%d,%d) → %d → (%d,%d)", o, d, id, gotO, gotD)
			}
		}
	}
}

// Property: ODPair inverts the origin·numRouters + destination flow index.
func TestQuickFlowIndexBijection(t *testing.T) {
	agg, err := NewAggregator(NewTable(), 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawO, rawD uint8) bool {
		o := RouterID(int(rawO) % 9)
		d := RouterID(int(rawD) % 9)
		id := int(o)*9 + int(d)
		gotO, gotD, err := agg.ODPair(id)
		return err == nil && gotO == o && gotD == d && id >= 0 && id < agg.NumFlows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
