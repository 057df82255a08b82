package parallel

// Scheduler counters. The pool keeps one cache-line-padded counter
// block per participant slot; a participant increments its own block
// with plain (non-atomic) stores on the hot path — a chunk claim costs
// two register increments — and the blocks are merged under the region
// lock when a snapshot is taken. The region-completion handshake
// (worker writes happen before its pending decrement, which happens
// before the submitter's done-channel receive) makes the plain
// increments race-free: a snapshot can only be taken between regions.
//
// Region-granularity counters that must be incremented outside the
// region lock (the inline fast path and the busy-pool spawn fallback)
// are atomics; they fire once per region, not per chunk.

// workerCounters is one participant's counter block, padded to exactly
// one cache line so neighbouring participants never share a line.
//
//gvevet:padded
type workerCounters struct {
	chunks        int64 // chunk claims from the own range
	items         int64 // loop iterations executed
	stealAttempts int64 // steal sweeps started (own range was empty)
	steals        int64 // steal sweeps that claimed a victim's half
	itemsStolen   int64 // iterations transferred by those steals
	_             [24]byte
}

// CounterSnapshot is a merged, immutable view of a pool's scheduler
// counters since construction or the last ResetCounters.
type CounterSnapshot struct {
	// Regions is the number of parallel regions scheduled on the
	// persistent workers.
	Regions int64 `json:"regions"`
	// InlineRegions is the number of regions run entirely on the
	// submitting goroutine (n <= grain or a single thread).
	InlineRegions int64 `json:"inline_regions"`
	// SpawnRegions is the number of regions that fell back to
	// spawn-mode execution (pool busy, closed, or oversized range).
	SpawnRegions int64 `json:"spawn_regions"`
	// Wakes is the number of worker unpark signals sent; each is one
	// park/unpark cycle of a persistent worker.
	Wakes int64 `json:"wakes"`
	// Chunks is the number of guided chunks claimed by range owners.
	Chunks int64 `json:"chunks"`
	// Items is the number of loop iterations executed on the pool.
	Items int64 `json:"items"`
	// StealAttempts is the number of steal sweeps (a participant ran
	// out of own work and probed victims).
	StealAttempts int64 `json:"steal_attempts"`
	// Steals is the number of successful steals (half a victim's
	// remaining range was claimed).
	Steals int64 `json:"steals"`
	// ItemsStolen is the number of iterations moved by those steals.
	ItemsStolen int64 `json:"items_stolen"`
}

// Sub returns the per-field difference s - prev: the counter deltas of
// whatever ran between two snapshots.
func (s CounterSnapshot) Sub(prev CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		Regions:       s.Regions - prev.Regions,
		InlineRegions: s.InlineRegions - prev.InlineRegions,
		SpawnRegions:  s.SpawnRegions - prev.SpawnRegions,
		Wakes:         s.Wakes - prev.Wakes,
		Chunks:        s.Chunks - prev.Chunks,
		Items:         s.Items - prev.Items,
		StealAttempts: s.StealAttempts - prev.StealAttempts,
		Steals:        s.Steals - prev.Steals,
		ItemsStolen:   s.ItemsStolen - prev.ItemsStolen,
	}
}

// Counters returns a merged snapshot of the pool's scheduler counters.
// It waits for any in-flight region to finish, so it must not be
// called from inside a region body (call it between runs, as the CLIs
// do).
func (p *Pool) Counters() CounterSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := CounterSnapshot{
		Regions:       p.regions,
		InlineRegions: p.inlineRegions.Load(),
		SpawnRegions:  p.spawnRegions.Load(),
		Wakes:         p.wakes,
	}
	for i := range p.counters {
		c := &p.counters[i]
		s.Chunks += c.chunks
		s.Items += c.items
		s.StealAttempts += c.stealAttempts
		s.Steals += c.steals
		s.ItemsStolen += c.itemsStolen
	}
	return s
}

// ResetCounters zeroes all scheduler counters. Like Counters, it must
// not be called from inside a region body.
func (p *Pool) ResetCounters() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.regions, p.wakes = 0, 0
	p.inlineRegions.Store(0)
	p.spawnRegions.Store(0)
	for i := range p.counters {
		p.counters[i] = workerCounters{}
	}
}

// noteInline / noteSpawn record the off-lock region outcomes.
func (p *Pool) noteInline() { p.inlineRegions.Add(1) }

func (p *Pool) noteSpawn() { p.spawnRegions.Add(1) }
