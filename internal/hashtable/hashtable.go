// Package hashtable implements the fast collision-free per-thread
// hashtables (H_t in Algorithms 2-4 of the paper) used to accumulate,
// for one vertex or one community at a time, the total edge weight
// towards each neighbouring community.
//
// "Collision-free" means the table is a dense array directly indexed by
// community id — no probing, no hashing, O(1) insert — paired with a
// touched-key list so that clearing costs O(touched) rather than O(N).
// Each worker thread owns its table, with its own backing arrays, so
// the tables are well separated in memory and never share cache lines.
// The paper allocates them up front for the input graph (its O(TN)
// space term); internal/core allocates a thread's table at the first
// level where that thread scans a vertex or community past FlatCap,
// sized to that level's key range, so runs whose large levels take the
// flat path (road, k-mer) hold much smaller tables, or none.
package hashtable

// Accumulator is a dense keyed float64 accumulator over keys in [0, n).
// The zero value is not usable; call New.
//
// Clearing is O(touched) via a generation counter: a slot's value is
// valid only when its stamp equals the current generation, so Clear is
// a single increment. Accumulator is not safe for concurrent use; use
// one per thread.
type Accumulator struct {
	vals  []float64
	stamp []uint32
	keys  []uint32
	gen   uint32
}

// New returns an accumulator for keys in [0, n).
func New(n int) *Accumulator {
	return &Accumulator{
		vals:  make([]float64, n),
		stamp: make([]uint32, n),
		keys:  make([]uint32, 0, 64),
		gen:   1,
	}
}

// Cap returns the key-space size the accumulator supports.
func (a *Accumulator) Cap() int { return len(a.vals) }

// Resize ensures the accumulator accepts keys in [0, n), keeping the
// existing allocation when it is already large enough (a table sized
// for one level is reused as the super-vertex graph shrinks).
func (a *Accumulator) Resize(n int) {
	if len(a.vals) >= n {
		return
	}
	a.vals = make([]float64, n)
	a.stamp = make([]uint32, n)
	a.keys = a.keys[:0]
	a.gen = 1
}

// Add accumulates w into key k.
func (a *Accumulator) Add(k uint32, w float64) {
	if a.stamp[k] != a.gen {
		a.stamp[k] = a.gen
		a.vals[k] = w
		a.keys = append(a.keys, k)
		return
	}
	a.vals[k] += w
}

// Get returns the accumulated value for key k (0 if untouched).
func (a *Accumulator) Get(k uint32) float64 {
	if a.stamp[k] != a.gen {
		return 0
	}
	return a.vals[k]
}

// Has reports whether key k has been touched since the last Clear.
func (a *Accumulator) Has(k uint32) bool {
	return a.stamp[k] == a.gen
}

// Keys returns the touched keys, in first-touch order. The slice is
// owned by the accumulator and is invalidated by Clear.
func (a *Accumulator) Keys() []uint32 { return a.keys }

// Len returns the number of touched keys.
func (a *Accumulator) Len() int { return len(a.keys) }

// Clear resets the accumulator in O(touched).
func (a *Accumulator) Clear() {
	a.keys = a.keys[:0]
	a.gen++
	if a.gen == 0 { // generation wrapped: stamps are stale, wipe them
		for i := range a.stamp {
			a.stamp[i] = 0
		}
		a.gen = 1
	}
}
