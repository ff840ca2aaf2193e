package sim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/perm"
)

func TestAllReduce(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	data := map[perm.Code]int{}
	want := 0
	for _, v := range m.Ring() {
		d := rng.Intn(100)
		data[v] = d
		want += d
	}
	got, err := m.AllReduce(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("AllReduce = %d, want %d", got, want)
	}
	// Two laps of hops were spent.
	if m.Stats().Hops != int64(2*m.RingLength()) {
		t.Fatalf("hops %d", m.Stats().Hops)
	}
}

func TestAllReduceRejectsNonParticipant(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Fail a processor so the ring misses two vertices; keying data by
	// an off-ring processor must error.
	victim := m.Ring()[0]
	if err := m.FailVertex(victim); err != nil {
		t.Fatal(err)
	}
	onRing := map[perm.Code]bool{}
	for _, v := range m.Ring() {
		onRing[v] = true
	}
	var off perm.Code
	for r := 0; r < 120; r++ {
		v := perm.UnrankCode(5, r)
		if !onRing[v] {
			off = v
			break
		}
	}
	_, err = m.AllReduce(map[perm.Code]int{off: 1})
	if !errors.Is(err, ErrNotParticipant) {
		t.Fatalf("want ErrNotParticipant, got %v", err)
	}
}

func TestAllReduceAfterFailover(t *testing.T) {
	m, err := New(Config{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := m.FailVertex(m.Ring()[k*7]); err != nil {
			t.Fatal(err)
		}
	}
	data := map[perm.Code]int{}
	want := 0
	for i, v := range m.Ring() {
		data[v] = i
		want += i
	}
	got, err := m.AllReduce(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-failover AllReduce = %d, want %d", got, want)
	}
}

func TestBroadcast(t *testing.T) {
	m, err := New(Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Broadcast()
	if err != nil {
		t.Fatal(err)
	}
	if n != m.RingLength() {
		t.Fatalf("broadcast reached %d of %d", n, m.RingLength())
	}
}

func TestPrefixSums(t *testing.T) {
	m, err := New(Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := map[perm.Code]int{}
	for i, v := range m.Ring() {
		data[v] = i + 1
	}
	// The token starts at ring position 0, so the scan follows ring
	// order from there.
	sums, err := m.PrefixSums(data)
	if err != nil {
		t.Fatal(err)
	}
	acc := 0
	for _, v := range m.Ring() {
		acc += data[v]
		if sums[v] != acc {
			t.Fatalf("prefix at %s = %d, want %d", v.StringN(4), sums[v], acc)
		}
	}
}

// TestCollectivesRejectNonVertexKeys: a key that is not a vertex of S_n
// at all is not on the ring either, so both collectives report
// ErrNotParticipant for it instead of panicking in the block lookup.
func TestCollectivesRejectNonVertexKeys(t *testing.T) {
	n := 7
	m, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	id := perm.IdentityCode(n)
	for name, key := range map[string]perm.Code{
		"None":            perm.None,
		"nibble above n":  id | perm.Code(1)<<(4*uint(n)),
		"symbol n+1":      id.WithSymbol(2, uint8(n+1)),
		"repeated symbol": id.WithSymbol(2, 1),
	} {
		if _, err := m.AllReduce(map[perm.Code]int{key: 1}); !errors.Is(err, ErrNotParticipant) {
			t.Errorf("AllReduce keyed by %s: %v, want ErrNotParticipant", name, err)
		}
		if _, err := m.PrefixSums(map[perm.Code]int{key: 1}); !errors.Is(err, ErrNotParticipant) {
			t.Errorf("PrefixSums keyed by %s: %v, want ErrNotParticipant", name, err)
		}
	}
}
