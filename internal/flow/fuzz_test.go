package flow

import (
	"encoding/binary"
	"net/netip"
	"testing"
)

// refTable is the brute-force reference the trie is fuzzed against: every
// installed prefix, scanned on each lookup, the longest covering one winning.
type refTable map[netip.Prefix]RouterID

func (ref refTable) lookup(a netip.Addr) (RouterID, bool) {
	best, r := -1, RouterID(0)
	for p, id := range ref {
		if p.Contains(a) && p.Bits() > best {
			best, r = p.Bits(), id
		}
	}
	return r, best >= 0
}

// FuzzTableLookup checks Table against refTable. base is an address and ops
// a list of 3-byte inserts: a prefix length (mod 33, so /0 and /32 occur), a
// bit of base to flip (≥ 32: none) and a router (mod 4, so a repeated prefix
// is often re-inserted under a new router). Prefixes of one address at many
// lengths nest; the flipped bits make siblings and near misses. Every
// address at a prefix boundary, base with each bit flipped, and an IPv6
// address must route to the reference's router or miss with it, and Len
// must count the reference's distinct prefixes. Over three routers, so that
// router 3 is out of range, FlowIndex from every IPv4 probe to base, to itself
// and to the next probe must give the reference's flow index or miss with it.
func FuzzTableLookup(f *testing.F) {
	f.Add(uint32(0x0a102011), []byte{0, 32, 0, 8, 32, 1, 12, 32, 2, 16, 32, 3, 24, 32, 0, 28, 32, 1, 32, 32, 2})
	f.Add(uint32(0x0a010000), []byte{8, 32, 1, 16, 32, 1, 16, 14, 2, 17, 15, 3, 16, 32, 3})
	f.Add(uint32(0xc0a80701), []byte{32, 32, 0, 32, 0, 1, 32, 31, 2, 0, 32, 3, 0, 32, 1})
	f.Add(uint32(0), []byte{})

	f.Fuzz(func(t *testing.T, base uint32, ops []byte) {
		tbl, ref := NewTable(), refTable{}
		for ; len(ops) >= 3; ops = ops[3:] {
			a := base
			if ops[1] < 32 {
				a ^= 1 << ops[1]
			}
			p := netip.PrefixFrom(addr4(a), int(ops[0]%33))
			r := RouterID(ops[2] % 4)
			if err := tbl.Insert(p, r); err != nil {
				t.Fatalf("insert %v: %v", p, err)
			}
			ref[p.Masked()] = r
		}
		if tbl.Len() != len(ref) {
			t.Fatalf("Len %d, reference %d", tbl.Len(), len(ref))
		}
		probes := []netip.Addr{addr4(base), netip.MustParseAddr("2001:db8::1")}
		for b := 0; b < 32; b++ {
			probes = append(probes, addr4(base^1<<b))
		}
		for p := range ref {
			first := p.Addr().As4()
			last := binary.BigEndian.Uint32(first[:]) | uint32(1<<(32-p.Bits())-1)
			probes = append(probes, p.Addr(), addr4(last), addr4(last+1))
		}
		for _, a := range probes {
			want, wantOK := ref.lookup(a)
			got, err := tbl.Lookup(a)
			if (err == nil) != wantOK || got != want {
				t.Fatalf("Lookup(%v) = %d, %v; reference %d, %v", a, got, err, want, wantOK)
			}
		}
		agg, err := NewAggregator(tbl, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		v4 := append(probes[:1:1], probes[2:]...)
		for i, src := range v4 {
			for _, dst := range []netip.Addr{v4[0], src, v4[(i+1)%len(v4)]} {
				o, okO := ref.lookup(src)
				d, okD := ref.lookup(dst)
				wantOK := okO && okD && o < 3 && d < 3
				want := 0
				if wantOK {
					want = int(o)*3 + int(d)
				}
				if got, ok := agg.FlowIndex(src.As4(), dst.As4()); ok != wantOK || got != want {
					t.Fatalf("FlowIndex(%v, %v) = %d, %v; reference %d, %v", src, dst, got, ok, want, wantOK)
				}
			}
		}
	})
}

func addr4(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}
