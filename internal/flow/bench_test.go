package flow

import (
	"net/netip"
	"testing"
)

// BenchmarkTableLookup measures one longest-prefix lookup. "abilene" is the
// deployed table — one 10.r.0.0/16 per router for the nine Abilene routers,
// what traffic.BuildRoutingTable(9) installs — probed at hosts of every
// router; "nested" is TestTableNestedPrefixChain's /0 … /32 chain probed at
// its test addresses, so lookups end at every depth of the trie.
func BenchmarkTableLookup(b *testing.B) {
	abilene := NewTable()
	var abileneProbes []netip.Addr
	for r := 0; r < 9; r++ {
		if err := abilene.Insert(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(r), 0, 0}), 16), RouterID(r)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		abileneProbes = append(abileneProbes, netip.AddrFrom4([4]byte{10, byte(i % 9), byte(i * 7), byte(i * 31)}))
	}

	nested := NewTable()
	for i, p := range []string{"0.0.0.0/0", "10.0.0.0/8", "10.16.0.0/12", "10.16.0.0/16", "10.16.32.0/24", "10.16.32.16/28", "10.16.32.17/32"} {
		if err := nested.Insert(netip.MustParsePrefix(p), RouterID(i)); err != nil {
			b.Fatal(err)
		}
	}
	var nestedProbes []netip.Addr
	for _, a := range []string{"203.0.113.1", "10.200.0.1", "10.31.255.255", "10.16.99.1", "10.16.32.1", "10.16.32.16", "10.16.32.31", "10.16.32.32", "10.16.32.17"} {
		nestedProbes = append(nestedProbes, netip.MustParseAddr(a))
	}

	for _, c := range []struct {
		name   string
		tbl    *Table
		probes []netip.Addr
	}{
		{"abilene", abilene, abileneProbes},
		{"nested", nested, nestedProbes},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sum RouterID
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := c.tbl.Lookup(c.probes[i%len(c.probes)])
				if err != nil {
					b.Fatal(err)
				}
				sum += r
			}
			if sum < 0 {
				b.Fatal("negative router")
			}
		})
	}
}
