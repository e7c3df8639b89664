package rng

import (
	"fmt"
	"math"
	"testing"
)

// FuzzBinomialTable holds BinomialTable.Sample to Stream.Binomial, whose
// leaves walk the CDF (binvWalk), draw for draw: the same values and the
// same stream state afterwards. Odd draws ask for n + tableSlots, which
// lands in the same slot and forces rebuilds, and halfway through the
// table is Reset to 1 − p. It also builds n's leaf table capped at
// 1 + seed%64 entries and holds its lookups, tail fallbacks included, to
// binvWalk at the same u.
func FuzzBinomialTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, n int, p float64, seed uint64, draws uint16) {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Skip()
		}
		if n < 0 {
			n = -n
		}
		n %= 20001
		if p = math.Abs(p); p > 1 {
			p = math.Mod(p, 1)
		}
		d := 1 + int(draws)%1000

		ref, got := New(seed), New(seed)
		var tab BinomialTable
		tab.Reset(p)
		pp := p
		for i := 0; i < d; i++ {
			if i == d/2 {
				pp = 1 - p
				tab.Reset(pp)
			}
			m := n + (i&1)*tableSlots
			want := ref.Binomial(m, pp)
			if k := tab.Sample(got, m); k != want {
				t.Fatalf("draw %d: Sample(%d) at p=%g = %d, Binomial = %d", i, m, pp, k, want)
			}
		}
		if *got != *ref {
			t.Fatalf("stream state differs after %d draws at n=%d, p=%g", d, n, p)
		}

		leaf := p
		if leaf > 0.5 {
			leaf = 1 - leaf
		}
		if n == 0 || leaf <= 0 || float64(n)*leaf > 30 && n > 64 {
			return
		}
		var tb binTable
		tb.build(n, leaf, 1+int(seed%64))
		us := New(seed ^ 0x5eed)
		for i := 0; i < d; i++ {
			u := us.Float64Open()
			if k, want := tb.invert(u, n, leaf), binvWalk(u, n, leaf); k != want {
				t.Fatalf("capped table (%d entries) at n=%d, p=%g, u=%v: %d, walk %d",
					len(tb.cum), n, leaf, u, k, want)
			}
		}
	})
}

// TestBinomialTableEdges puts u on every cumulative sum and every guide
// bucket edge of a table, and one ulp either side, where the table and
// the walk are most likely to part: each must invert to binvWalk's k.
// The cases include the largest leaves Binomial sends to a table (n·p =
// 30 at small p, n = 64 at p = 0.5); they must stop short of the cap,
// which only bounds memory.
func TestBinomialTableEdges(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{1, 0.5}, {7, 0.5}, {64, 0.5}, {64, 0.01}, {30, 0.1}, {100, 0.3},
		{187, 0.1}, {188, 0.1}, {62, 0.3}, {5000, 0.006}, {300000, 1e-4},
	}
	for _, c := range cases {
		var tab BinomialTable
		tab.Reset(c.p)
		tb := tab.table(c.n, c.p)
		var edges []float64
		edges = append(edges, tb.cum...)
		for g := range tb.guide {
			edges = append(edges, float64(g)/float64(len(tb.guide)))
		}
		checked := 0
		for _, e := range edges {
			for _, u := range []float64{math.Nextafter(e, 0), e, math.Nextafter(e, 1)} {
				if u <= 0 || u >= 1 {
					continue
				}
				checked++
				if k, want := tb.invert(u, c.n, c.p), binvWalk(u, c.n, c.p); k != want {
					t.Errorf("n=%d p=%g u=%v: table %d, walk %d", c.n, c.p, u, k, want)
				}
			}
		}
		if len(tb.cum) >= tableMaxLen {
			t.Errorf("n=%d p=%g: table reached the cap of %d sums", c.n, c.p, tableMaxLen)
		}
		if checked < 3*len(tb.cum) {
			t.Errorf("n=%d p=%g: only %d edge points in (0,1) for %d sums", c.n, c.p, checked, len(tb.cum))
		}
	}
}

// BenchmarkBinomial times one draw (ns/op is ns/draw) through the walk
// (Stream.Binomial) and through a warm BinomialTable, at hostpim's quick
// chunk (100, 0.3), its miss draw (30, 0.1), a full-mode miss leaf
// (187, 0.1), and a full-mode chunk, which takes the Normal branch.
func BenchmarkBinomial(b *testing.B) {
	for _, c := range []struct {
		n int
		p float64
	}{{100, 0.3}, {30, 0.1}, {187, 0.1}, {10000, 0.3}} {
		b.Run(fmt.Sprintf("n=%d,p=%g/walk", c.n, c.p), func(b *testing.B) {
			s := New(1)
			for i := 0; i < b.N; i++ {
				_ = s.Binomial(c.n, c.p)
			}
		})
		b.Run(fmt.Sprintf("n=%d,p=%g/table", c.n, c.p), func(b *testing.B) {
			s := New(1)
			var tab BinomialTable
			tab.Reset(c.p)
			for i := 0; i < b.N; i++ {
				_ = tab.Sample(s, c.n)
			}
		})
	}
}
