package hashtable

import (
	"testing"
	"testing/quick"
)

func TestAddGet(t *testing.T) {
	a := New(10)
	if a.Cap() != 10 {
		t.Fatalf("cap %d", a.Cap())
	}
	a.Add(3, 1.5)
	a.Add(3, 2.5)
	a.Add(7, 1.0)
	if got := a.Get(3); got != 4.0 {
		t.Fatalf("Get(3) = %v", got)
	}
	if got := a.Get(7); got != 1.0 {
		t.Fatalf("Get(7) = %v", got)
	}
	if got := a.Get(0); got != 0 {
		t.Fatalf("Get(untouched) = %v", got)
	}
	if !a.Has(3) || a.Has(0) {
		t.Fatal("Has wrong")
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
}

func TestKeysFirstTouchOrder(t *testing.T) {
	a := New(10)
	a.Add(5, 1)
	a.Add(2, 1)
	a.Add(5, 1)
	a.Add(9, 1)
	keys := a.Keys()
	want := []uint32{5, 2, 9}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestClear(t *testing.T) {
	a := New(10)
	a.Add(1, 5)
	a.Clear()
	if a.Len() != 0 {
		t.Fatalf("len after clear = %d", a.Len())
	}
	if a.Has(1) || a.Get(1) != 0 {
		t.Fatal("stale value survived clear")
	}
	a.Add(1, 2)
	if a.Get(1) != 2 {
		t.Fatalf("value after clear+add = %v", a.Get(1))
	}
}

func TestGenerationWrap(t *testing.T) {
	a := New(4)
	a.Add(2, 1)
	// Force the uint32 generation counter to wrap.
	a.gen = ^uint32(0) - 1
	a.Clear() // gen becomes MaxUint32
	a.Add(1, 3)
	if a.Get(1) != 3 {
		t.Fatal("value lost right before wrap")
	}
	a.Clear() // gen wraps: stamps must be wiped
	if a.Has(1) || a.Has(2) {
		t.Fatal("stale stamps visible after generation wrap")
	}
	a.Add(0, 7)
	if a.Get(0) != 7 || a.Len() != 1 {
		t.Fatal("accumulator broken after wrap")
	}
}

func TestResize(t *testing.T) {
	a := New(4)
	a.Add(3, 2)
	a.Resize(2) // smaller: no-op
	if a.Cap() != 4 {
		t.Fatalf("cap shrank to %d", a.Cap())
	}
	if a.Get(3) != 2 {
		t.Fatal("resize(smaller) lost data")
	}
	a.Resize(100)
	if a.Cap() != 100 {
		t.Fatalf("cap = %d", a.Cap())
	}
	a.Add(99, 1)
	if a.Get(99) != 1 {
		t.Fatal("grown key space unusable")
	}
}

// TestMatchesMapReference is the property test: an accumulator behaves
// exactly like a map[uint32]float64 under any Add/Clear sequence.
func TestMatchesMapReference(t *testing.T) {
	const keySpace = 64
	type op struct {
		Key   uint32
		Val   float64
		Clear bool
	}
	err := quick.Check(func(ops []op) bool {
		a := New(keySpace)
		ref := map[uint32]float64{}
		for _, o := range ops {
			if o.Clear {
				a.Clear()
				ref = map[uint32]float64{}
				continue
			}
			k := o.Key % keySpace
			a.Add(k, o.Val)
			ref[k] += o.Val
		}
		if a.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if a.Get(k) != v {
				return false
			}
		}
		for _, k := range a.Keys() {
			if _, ok := ref[k]; !ok {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddClear(b *testing.B) {
	a := New(1 << 16)
	for i := 0; i < b.N; i++ {
		for k := uint32(0); k < 16; k++ {
			a.Add(k*37%(1<<16), 1)
		}
		a.Clear()
	}
}
