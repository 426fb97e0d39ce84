package memsys

import (
	"testing"
	"testing/quick"
)

func TestLocalPlacement(t *testing.T) {
	s := NewSpace(8)
	l := s.AllocLocal(5, 100)
	if l.Nodelet() != 5 || l.Len() != 100 {
		t.Fatalf("local: nodelet=%d len=%d", l.Nodelet(), l.Len())
	}
	for i := 0; i < 100; i++ {
		if l.At(i).Nodelet() != 5 {
			t.Fatalf("element %d on nodelet %d", i, l.At(i).Nodelet())
		}
	}
	// Contiguity.
	if l.At(99).Offset()-l.At(0).Offset() != 99 {
		t.Fatal("local allocation not contiguous")
	}
}

func TestLocalOutOfRangePanics(t *testing.T) {
	s := NewSpace(2)
	l := s.AllocLocal(0, 3)
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			l.At(i)
		}()
	}
}

func TestStripedPlacement(t *testing.T) {
	s := NewSpace(8)
	st := s.AllocStriped(100)
	if st.Len() != 100 || st.Nodelets() != 8 {
		t.Fatalf("striped: len=%d nodelets=%d", st.Len(), st.Nodelets())
	}
	for i := 0; i < 100; i++ {
		if got := st.At(i).Nodelet(); got != i%8 {
			t.Fatalf("element %d on nodelet %d, want %d", i, got, i%8)
		}
		if got := st.NodeletOf(i); got != i%8 {
			t.Fatalf("NodeletOf(%d) = %d", i, got)
		}
	}
	// Elements i and i+8 are adjacent words on the same nodelet.
	if st.At(8).Offset()-st.At(0).Offset() != 1 {
		t.Fatal("striped slab not dense per nodelet")
	}
}

func TestStripedUnevenLength(t *testing.T) {
	s := NewSpace(4)
	st := s.AllocStriped(6) // nodelets 0,1 get 2 elements; 2,3 get 1
	seen := map[Addr]bool{}
	for i := 0; i < 6; i++ {
		a := st.At(i)
		if seen[a] {
			t.Fatalf("address %v assigned twice", a)
		}
		seen[a] = true
		s.Write(a, uint64(i)+1)
	}
	for i := 0; i < 6; i++ {
		if s.Read(st.At(i)) != uint64(i)+1 {
			t.Fatalf("element %d corrupted", i)
		}
	}
}

func TestReplicatedPlacement(t *testing.T) {
	s := NewSpace(4)
	r := s.AllocReplicated(10)
	if r.Len() != 10 {
		t.Fatalf("Len = %d", r.Len())
	}
	for nl := 0; nl < 4; nl++ {
		if r.At(nl, 0).Nodelet() != nl {
			t.Fatalf("replica %d not on its nodelet", nl)
		}
		if r.Copy(nl).Nodelet() != nl {
			t.Fatalf("Copy(%d) on wrong nodelet", nl)
		}
	}
	r.Broadcast(s, 3, 77)
	for nl := 0; nl < 4; nl++ {
		if s.Read(r.At(nl, 3)) != 77 {
			t.Fatalf("broadcast missed replica %d", nl)
		}
	}
	// Replicas are independent.
	s.Write(r.At(1, 3), 5)
	if s.Read(r.At(0, 3)) != 77 {
		t.Fatal("replicas share storage")
	}
}

func TestBlockedPlacement(t *testing.T) {
	s := NewSpace(3)
	b := s.AllocBlocked([]int{4, 0, 7})
	if b.TotalLen() != 11 {
		t.Fatalf("TotalLen = %d", b.TotalLen())
	}
	if b.Chunk(0).Len() != 4 || b.Chunk(1).Len() != 0 || b.Chunk(2).Len() != 7 {
		t.Fatal("chunk sizes wrong")
	}
	if b.At(2, 6).Nodelet() != 2 {
		t.Fatal("blocked element on wrong nodelet")
	}
}

func TestBlockedSizeMismatchPanics(t *testing.T) {
	s := NewSpace(3)
	defer func() {
		if recover() == nil {
			t.Fatal("size/nodelet mismatch did not panic")
		}
	}()
	s.AllocBlocked([]int{1, 2})
}

// Property: a striped allocation is a bijection onto per-nodelet dense
// slabs — no two elements share an address and every element is on
// nodelet i mod N, for arbitrary sizes and nodelet counts.
func TestStripedBijectionProperty(t *testing.T) {
	f := func(nl uint8, words uint16) bool {
		n := int(nl%16) + 1
		w := int(words % 2048)
		s := NewSpace(n)
		st := s.AllocStriped(w)
		seen := make(map[Addr]bool, w)
		for i := 0; i < w; i++ {
			a := st.At(i)
			if a.Nodelet() != i%n || seen[a] {
				return false
			}
			seen[a] = true
		}
		return s.TotalWords() == w || w == 0 && s.TotalWords() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: consecutive allocations of any kind never alias — writing a
// distinct value through every handle and reading it back succeeds.
func TestAllocationsNeverAliasProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		s := NewSpace(4)
		l := s.AllocLocal(int(a%4), int(a%64)+1)
		st := s.AllocStriped(int(b%64) + 1)
		r := s.AllocReplicated(int(c%16) + 1)
		var addrs []Addr
		for i := 0; i < l.Len(); i++ {
			addrs = append(addrs, l.At(i))
		}
		for i := 0; i < st.Len(); i++ {
			addrs = append(addrs, st.At(i))
		}
		for nl := 0; nl < 4; nl++ {
			for i := 0; i < r.Len(); i++ {
				addrs = append(addrs, r.At(nl, i))
			}
		}
		for i, ad := range addrs {
			s.Write(ad, uint64(i)+1)
		}
		for i, ad := range addrs {
			if s.Read(ad) != uint64(i)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
