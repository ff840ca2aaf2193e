package substar

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/perm"
)

// refPattern is the per-position form a Pattern had before it was
// packed into words: syms[i] is the symbol fixed at position i+1, or
// Star. Every method reads the positions one at a time, as the old
// implementation did; FuzzPatternOps holds Pattern to it.
type refPattern struct {
	n    int
	syms [perm.MaxN]uint8
}

func (m refPattern) r() int {
	r := 0
	for _, s := range m.syms[:m.n] {
		if s == Star {
			r++
		}
	}
	return r
}

func (m refPattern) String() string {
	const symbolRunes = "123456789abcdefg"
	var b strings.Builder
	b.WriteByte('<')
	for _, s := range m.syms[:m.n] {
		if s == Star {
			b.WriteByte('*')
		} else {
			b.WriteByte(symbolRunes[s-1])
		}
	}
	fmt.Fprintf(&b, ">_%d", m.r())
	return b.String()
}

func (m refPattern) used(q uint8) bool {
	for _, s := range m.syms[:m.n] {
		if s == q {
			return true
		}
	}
	return false
}

func (m refPattern) freePositions() []int {
	var ps []int
	for i, s := range m.syms[:m.n] {
		if s == Star {
			ps = append(ps, i+1)
		}
	}
	return ps
}

func (m refPattern) freeSymbols() []uint8 {
	var qs []uint8
	for q := uint8(1); int(q) <= m.n; q++ {
		if !m.used(q) {
			qs = append(qs, q)
		}
	}
	return qs
}

func (m refPattern) contains(v perm.Code) bool {
	for i, s := range m.syms[:m.n] {
		if s != Star && v.Symbol(i+1) != s {
			return false
		}
	}
	return true
}

// fixPanic returns the message Fix(i, q) must panic with, or "" when
// the fix is valid.
func (m refPattern) fixPanic(i int, q uint8) string {
	switch {
	case i < 2 || i > m.n:
		return fmt.Sprintf("substar: Fix position %d out of range [2,%d]", i, m.n)
	case m.syms[i-1] != Star:
		return fmt.Sprintf("substar: Fix position %d of %v is not free", i, m)
	case q < 1 || int(q) > m.n:
		return fmt.Sprintf("substar: Fix symbol %d out of range", q)
	case m.used(q):
		return fmt.Sprintf("substar: Fix symbol %d already used in %v", q, m)
	}
	return ""
}

// refFromSymbolsErr returns FromSymbols' error text for symbols, or "".
func refFromSymbolsErr(n int, symbols []uint8) string {
	if n < 1 || n > perm.MaxN || len(symbols) != n {
		return fmt.Sprintf("substar: bad symbol slice length %d for n=%d", len(symbols), n)
	}
	for i, s := range symbols {
		if s == Star {
			continue
		}
		if i == 0 {
			return fmt.Sprintf("substar: position 1 must be free in %v", symbols)
		}
		if s < 1 || int(s) > n {
			return fmt.Sprintf("substar: symbol %d out of range at position %d", s, i+1)
		}
		for _, t := range symbols[:i] {
			if t == s {
				return fmt.Sprintf("substar: duplicate symbol %d", s)
			}
		}
	}
	return ""
}

func (m refPattern) dif(o refPattern) int {
	if m.n != o.n {
		return 0
	}
	dif := 0
	for i := 0; i < m.n; i++ {
		a, b := m.syms[i], o.syms[i]
		if a == b {
			continue
		}
		if a == Star || b == Star || dif != 0 {
			return 0
		}
		dif = i + 1
	}
	return dif
}

func (m refPattern) less(o refPattern) bool {
	for i := 0; i < m.n; i++ {
		if m.syms[i] != o.syms[i] {
			return m.syms[i] < o.syms[i]
		}
	}
	return false
}

// rank is the arrangement rank of v's symbols at the fixed positions:
// position by position, the count of smaller symbols not yet read,
// weighed by the count of arrangements of the positions after it.
func (m refPattern) rank(v perm.Code) int {
	var fixed []int
	for i, s := range m.syms[:m.n] {
		if s != Star {
			fixed = append(fixed, i+1)
		}
	}
	rank := 0
	var read []uint8
	for k, pos := range fixed {
		s := v.Symbol(pos)
		digit := int(s) - 1
		for _, t := range read {
			if t < s {
				digit--
			}
		}
		read = append(read, s)
		rank = rank*(m.n-k) + digit
	}
	return rank
}

// vertices lists the substar's vertices in lexicographic order of the
// symbols at the free positions.
func (m refPattern) vertices() []perm.Code {
	var out []perm.Code
	free, syms := m.freePositions(), m.freeSymbols()
	taken := make([]bool, len(syms))
	var v [perm.MaxN]uint8
	copy(v[:], m.syms[:m.n])
	var place func(k int)
	place = func(k int) {
		if k == len(free) {
			out = append(out, perm.Pack(perm.Perm(v[:m.n])))
			return
		}
		for t, s := range syms {
			if !taken[t] {
				taken[t] = true
				v[free[k]-1] = s
				place(k + 1)
				taken[t] = false
			}
		}
	}
	place(0)
	return out
}

// tryFix runs p.Fix(i, q) and returns the pattern and the panic
// message, "" when Fix returned.
func tryFix(p Pattern, i int, q uint8) (got Pattern, msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	return p.Fix(i, q), ""
}

// checkAgainst compares every single-pattern operation of p with the
// reference m, and Contains and RankOf also on vertex v.
func checkAgainst(t *testing.T, p Pattern, m refPattern, v perm.Code) {
	t.Helper()
	if p.N() != m.n || p.R() != m.r() || p.String() != m.String() {
		t.Fatalf("%v: N=%d R=%d, reference %v", p, p.N(), p.R(), m)
	}
	for i := 1; i <= m.n; i++ {
		if p.SymbolAt(i) != m.syms[i-1] {
			t.Fatalf("%v: SymbolAt(%d) = %d, reference %d", p, i, p.SymbolAt(i), m.syms[i-1])
		}
	}
	if got, want := fmt.Sprint(p.FreePositions(nil)), fmt.Sprint(m.freePositions()); got != want {
		t.Fatalf("%v: FreePositions %s, reference %s", p, got, want)
	}
	if got, want := fmt.Sprint(p.FreeSymbols(nil)), fmt.Sprint(m.freeSymbols()); got != want {
		t.Fatalf("%v: FreeSymbols %s, reference %s", p, got, want)
	}
	if p.Contains(v) != m.contains(v) {
		t.Fatalf("%v: Contains(%#x) = %v, reference %v", p, uint64(v), p.Contains(v), m.contains(v))
	}
	for i := 1; i <= m.n; i++ {
		if want := max(m.syms[i-1], 1); p.Fixed().Symbol(i) != want {
			t.Fatalf("%v: Fixed() %#x reads %d at position %d, want %d", p, uint64(p.Fixed()), p.Fixed().Symbol(i), i, want)
		}
	}
	space := perm.Factorial(m.n) / perm.Factorial(m.r())
	if v.Valid(m.n) {
		if got, want := p.RankOf(v), m.rank(v); got != want || got >= space {
			t.Fatalf("%v: RankOf(%s) = %d, reference %d of %d", p, v.StringN(m.n), got, want, space)
		}
	}
	if m.r() > 6 {
		return
	}
	got, want := p.Vertices(nil), m.vertices()
	if len(got) != len(want) {
		t.Fatalf("%v: %d vertices, reference %d", p, len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] || !p.Contains(got[k]) {
			t.Fatalf("%v: vertex %d = %s, reference %s", p, k, got[k].StringN(m.n), want[k].StringN(m.n))
		}
		if p.RankOf(got[k]) != p.RankOf(p.Fixed()) {
			t.Fatalf("%v: vertex %s ranks %d, the fixed word %d", p, got[k].StringN(m.n), p.RankOf(got[k]), p.RankOf(p.Fixed()))
		}
	}
}

// checkPair compares the two-pattern operations of p and q with the
// reference pair.
func checkPair(t *testing.T, p, q Pattern, mp, mq refPattern) {
	t.Helper()
	j := mp.dif(mq)
	if p.Dif(q) != j || q.Dif(p) != j || p.Adjacent(q) != (j != 0) || (p == q) != (mp == mq) {
		t.Fatalf("%v, %v: Dif %d/%d, reference %d", p, q, p.Dif(q), q.Dif(p), j)
	}
	if p.less(q) != mp.less(mq) || q.less(p) != mq.less(mp) {
		t.Fatalf("%v, %v: less %v/%v, reference %v/%v", p, q, p.less(q), q.less(p), mp.less(mq), mq.less(mp))
	}
	if j == 0 {
		if _, msg := tryBlocked(p, q, 2); !strings.HasPrefix(msg, "substar: BlockedChild of non-adjacent patterns") {
			t.Fatalf("%v, %v: BlockedChild of non-adjacent patterns panicked with %q", p, q, msg)
		}
		if us, ws := p.CrossEdges(q, nil, nil); len(us)+len(ws) != 0 {
			t.Fatalf("%v, %v: %d cross edges between non-adjacent patterns", p, q, len(us))
		}
		return
	}
	y := mq.syms[j-1]
	for _, i := range mp.freePositions()[1:] {
		got, msg := tryBlocked(p, q, i)
		want := mp
		want.syms[i-1] = y
		if msg != "" || got.String() != want.String() {
			t.Fatalf("%v, %v: BlockedChild at %d = %v (%q), reference %v", p, q, i, got, msg, want)
		}
	}
	if mp.r() > 6 {
		return
	}
	us, ws := p.CrossEdges(q, nil, nil)
	k := 0
	for _, u := range mp.vertices() {
		if u.Symbol(1) != y {
			continue
		}
		if k >= len(us) || us[k] != u || ws[k] != u.SwapFirst(j) || !mq.contains(ws[k]) {
			t.Fatalf("%v, %v: cross edge %d differs from the reference %s", p, q, k, u.StringN(mp.n))
		}
		k++
	}
	if k != len(us) || k != len(ws) {
		t.Fatalf("%v, %v: %d cross edges, reference %d", p, q, len(us), k)
	}
}

func tryBlocked(p, q Pattern, i int) (got Pattern, msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	return p.BlockedChild(q, i), ""
}

// FuzzPatternOps drives random Fix sequences through Pattern and
// through refPattern, the per-position reference, and compares every
// operation: the single-pattern ones on the result and on random
// codes, the pair operations against a second pattern made adjacent
// (or not) by editing the first, Fix's four panics, FromSymbols'
// errors and the SortPatterns order.
//
// ops is read in byte pairs (a, b). With a's top bit set the pair is a
// valid fix, choosing among the free positions >= 2 and the free
// symbols; otherwise it is a raw Fix(a mod n+2, b mod n+2), which may
// hit any of the four panics.
func FuzzPatternOps(f *testing.F) {
	f.Add(uint8(4), []byte{0x80, 0, 0x81, 1}, uint16(0), uint64(0))
	f.Add(uint8(7), []byte{0x80, 3, 0x82, 2, 1, 1, 3, 9, 4, 4}, uint16(0x8123), uint64(0x6543210))
	f.Add(uint8(15), []byte{0x85, 15, 0x80, 0, 0x87, 3, 0x83, 7, 17, 2, 2, 0}, uint16(0x0457), uint64(1<<63-1))
	f.Add(uint8(0), []byte{2, 1, 0, 0}, uint16(1), uint64(0))
	f.Fuzz(func(t *testing.T, nRaw uint8, ops []byte, qRaw uint16, vRaw uint64) {
		n := int(nRaw)%perm.MaxN + 1
		if len(ops) > 4*n {
			ops = ops[:4*n]
		}
		p, m := Whole(n), refPattern{n: n}
		for k := 0; k+1 < len(ops); k += 2 {
			a, b := ops[k], ops[k+1]
			i, q := int(a&0x7F)%(n+2), b%uint8(n+2)
			if a&0x80 != 0 {
				free, syms := m.freePositions()[1:], m.freeSymbols()
				if len(free) == 0 {
					continue
				}
				i, q = free[int(a&0x7F)%len(free)], syms[int(b)%len(syms)]
			}
			want := m.fixPanic(i, q)
			got, msg := tryFix(p, i, q)
			if msg != want {
				t.Fatalf("%v.Fix(%d, %d) panicked with %q, reference %q", p, i, q, msg, want)
			}
			if want == "" {
				p = got
				m.syms[i-1] = q
			}
		}
		v := perm.UnrankCode(n, int(vRaw%uint64(perm.Factorial(n))))
		checkAgainst(t, p, m, v)
		checkAgainst(t, p, m, perm.Code(vRaw))

		// FromSymbols accepts the reference's symbols back, and rejects
		// (or accepts) raw symbols with the reference's error.
		if back, err := FromSymbols(n, m.syms[:n]); err != nil || back != p {
			t.Fatalf("FromSymbols(%v) = %v, %v; want %v", m.syms[:n], back, err, p)
		}
		if len(ops) > 0 {
			raw := make([]uint8, n)
			for i := range raw {
				raw[i] = ops[i%len(ops)] % uint8(n+2)
			}
			_, err := FromSymbols(n, raw)
			if got, want := fmt.Sprint(err), refFromSymbolsErr(n, raw); (err == nil) != (want == "") || err != nil && got != want {
				t.Fatalf("FromSymbols(%v) error %v, reference %q", raw, err, want)
			}
		}

		// The second pattern: p with one fixed symbol replaced by a
		// free one (adjacent), then with qRaw's top bit a second fixed
		// position freed (not adjacent).
		mq := m
		var fixed []int
		for i, s := range m.syms[:n] {
			if s != Star {
				fixed = append(fixed, i+1)
			}
		}
		if len(fixed) > 0 {
			syms := m.freeSymbols()
			mq.syms[fixed[int(qRaw&0xF)%len(fixed)]-1] = syms[int(qRaw>>4&0xF)%len(syms)]
			if qRaw&0x8000 != 0 {
				mq.syms[fixed[int(qRaw>>8&0xF)%len(fixed)]-1] = Star
			}
		}
		q, err := FromSymbols(n, mq.syms[:n])
		if err != nil {
			t.Fatalf("FromSymbols(%v): %v", mq.syms[:n], err)
		}
		checkAgainst(t, q, mq, v)
		checkPair(t, p, q, m, mq)
		checkPair(t, q, p, mq, m)

		// SortPatterns puts p, q and p's children in the order the
		// reference comparator gives under the same sort.
		ps, ms := []Pattern{q, p}, []refPattern{mq, m}
		if free := m.freePositions(); len(free) > 1 {
			i := free[len(free)-1]
			for _, c := range p.Partition(i) {
				mc := m
				mc.syms[i-1] = c.SymbolAt(i)
				ps, ms = append(ps, c), append(ms, mc)
			}
		}
		SortPatterns(ps)
		sort.Slice(ms, func(a, b int) bool { return ms[a].less(ms[b]) })
		for k := range ps {
			if ps[k].String() != ms[k].String() {
				t.Fatalf("SortPatterns put %v at %d, reference %v", ps[k], k, ms[k])
			}
		}
	})
}
