package observe

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// PhaseSeconds is the per-phase wall-time breakdown of one run, in
// seconds — the Figure-7 split extended with the coloring and
// connectivity-split sub-phases.
type PhaseSeconds struct {
	Move      float64 `json:"move"`
	Refine    float64 `json:"refine"`
	Aggregate float64 `json:"aggregate"`
	Color     float64 `json:"color,omitempty"`
	Split     float64 `json:"split,omitempty"`
	Other     float64 `json:"other"`
}

// RunRecord is one completed run as the flight recorder remembers it:
// enough context to reconstruct what a long-running process was doing
// when something went wrong — timestamps, sizes, work counters, the
// phase split, quality, and the self-check outcome.
type RunRecord struct {
	Seq         uint64       `json:"seq"` // assigned by FlightRecorder.Add
	Algorithm   string       `json:"algorithm"`
	Start       time.Time    `json:"start"`
	WallSeconds float64      `json:"wall_seconds"`
	Vertices    int          `json:"vertices"`
	Arcs        int64        `json:"arcs"`
	Threads     int          `json:"threads"`
	Passes      int          `json:"passes"`
	Iterations  int          `json:"move_iterations"`
	Moves       int64        `json:"moves"`
	DeltaQ      float64      `json:"delta_q"`
	Communities int          `json:"communities"`
	Modularity  float64      `json:"modularity"`
	Quality     float64      `json:"quality"`
	Phases      PhaseSeconds `json:"phase_seconds"`
	// The stage times of a server swap, in seconds: building the graph
	// the run consumes, the run, the oracle gate and the query-index
	// build. A stage the swap did not get through is zero and omitted;
	// runs outside the server omit all four.
	SnapshotSeconds float64 `json:"snapshot_seconds,omitempty"`
	RunSeconds      float64 `json:"run_seconds,omitempty"`
	GateSeconds     float64 `json:"gate_seconds,omitempty"`
	IndexSeconds    float64 `json:"index_seconds,omitempty"`
	// Check records the oracle self-check outcome: "" when no check
	// ran, "passed", or "failed: <reason>".
	Check string `json:"check,omitempty"`
	// Resumed marks a run that resumed from the previous dendrogram's
	// units (core.LeidenDynamicFrom) rather than refining pass 0 from
	// singletons.
	Resumed bool `json:"resumed"`
	// CSRCheck names how a server swap's gate verified the candidate's
	// graph: "inductive" from the published graph the merge read, or
	// "full"; "" when the gate did not run.
	CSRCheck string `json:"csr_check,omitempty"`
}

// FlightRecorder keeps the last N run records in a preallocated ring:
// Add overwrites the oldest slot in place, so steady-state recording
// allocates nothing, and a crash investigation can dump the recent
// history as JSON at any time. A nil *FlightRecorder discards records
// and dumps as empty.
//
//gvevet:nilsafe
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []RunRecord
	next  int    // slot Add writes next
	total uint64 // records ever added; also the next Seq
}

// DefaultFlightSize is the ring capacity used when NewFlightRecorder is
// given a non-positive size.
const DefaultFlightSize = 64

// NewFlightRecorder returns a recorder remembering the last n runs.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightSize
	}
	return &FlightRecorder{buf: make([]RunRecord, 0, n)}
}

// Add records r, assigning its Seq, evicting the oldest record when the
// ring is full. It returns the record as stored (Seq filled in) so
// callers can log it.
func (f *FlightRecorder) Add(r RunRecord) RunRecord {
	if f == nil {
		return r
	}
	f.mu.Lock()
	r.Seq = f.total
	f.total++
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, r)
	} else {
		f.buf[f.next] = r
		f.next++
		if f.next == len(f.buf) {
			f.next = 0
		}
	}
	f.mu.Unlock()
	return r
}

// Total returns the number of records ever added.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Records returns the retained records, oldest first.
func (f *FlightRecorder) Records() []RunRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]RunRecord, 0, len(f.buf))
	if len(f.buf) == cap(f.buf) {
		out = append(out, f.buf[f.next:]...)
		out = append(out, f.buf[:f.next]...)
	} else {
		out = append(out, f.buf...)
	}
	return out
}

// flightDump is the JSON envelope of a flight-recorder dump.
type flightDump struct {
	Total    uint64      `json:"total"`
	Capacity int         `json:"capacity"`
	Records  []RunRecord `json:"records"`
}

// WriteJSON dumps the retained records (oldest first) with the total
// and ring capacity — the payload behind /debug/flight.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	d := flightDump{Records: []RunRecord{}}
	if f != nil {
		d.Total = f.Total()
		d.Capacity = cap(f.buf)
		d.Records = f.Records()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
