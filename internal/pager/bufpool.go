package pager

// bufpool.go implements the bounded buffer pool that caches loaded
// segment payloads. Eviction is clock (second-chance): each frame has a
// reference bit set on hit; the sweep hand clears bits and evicts the
// first unpinned frame whose bit is already clear. Pinned frames are
// never evicted, so the byte budget can be exceeded transiently while
// scans hold pins — the pool converges back under budget as pins drop.
//
// Loading is single-flight: concurrent Pin calls for the same key share
// one load; losers block on the frame's ready channel.

import (
	"sync"
	"sync/atomic"
)

// PoolStats is a point-in-time snapshot of buffer pool counters.
type PoolStats struct {
	Hits      uint64 // Pin calls served from a resident frame
	Misses    uint64 // Pin calls that had to load from disk
	Evictions uint64 // frames evicted to make room
	Bytes     int64  // bytes currently cached
	Budget    int64  // configured byte budget (0 = unbounded)
	Frames    int    // resident frames
}

type frame struct {
	key   string
	value any
	size  int64
	pins  int
	ref   bool          // clock reference bit
	dead  bool          // invalidated; drop when pins reach zero
	ready chan struct{} // closed once the load completes
	err   error         // load error, valid after ready is closed
}

// Pool is a byte-budgeted cache of loaded segment payloads.
type Pool struct {
	budget int64

	mu     sync.Mutex
	frames map[string]*frame
	ring   []*frame // clock order; may contain dead/stale entries, compacted lazily
	hand   int
	bytes  int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// NewPool creates a pool with the given byte budget. A budget of 0 means
// unbounded (nothing is ever evicted); a negative budget disables caching
// (every frame is evicted as soon as it is unpinned).
func NewPool(budget int64) *Pool {
	return &Pool{budget: budget, frames: make(map[string]*frame)}
}

// Pin returns the cached value for key, loading it via load on a miss.
// The returned release func must be called exactly once when the caller
// is done with the value; until then the frame cannot be evicted. load
// returns the value and its resident size in bytes.
func (p *Pool) Pin(key string, load func() (any, int64, error)) (any, func(), error) {
	p.mu.Lock()
	if f, ok := p.frames[key]; ok && !f.dead {
		f.pins++
		f.ref = true
		p.mu.Unlock()
		<-f.ready
		if f.err != nil {
			p.unpin(f)
			return nil, nil, f.err
		}
		p.hits.Add(1)
		return f.value, func() { p.unpin(f) }, nil
	}
	// Miss: install a loading frame so concurrent callers share the load.
	f := &frame{key: key, pins: 1, ref: true, ready: make(chan struct{})}
	p.frames[key] = f
	p.ring = append(p.ring, f)
	p.mu.Unlock()

	p.misses.Add(1)
	value, size, err := load()

	p.mu.Lock()
	if err != nil {
		f.err = err
		f.dead = true
		if p.frames[key] == f {
			delete(p.frames, key)
		}
	} else {
		f.value = value
		f.size = size
		p.bytes += size
	}
	close(f.ready)
	if err != nil {
		f.pins--
		p.mu.Unlock()
		return nil, nil, err
	}
	p.evictLocked()
	p.mu.Unlock()
	return value, func() { p.unpin(f) }, nil
}

// Contains reports whether key is resident (for tests).
func (p *Pool) Contains(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[key]
	return ok && !f.dead && f.value != nil
}

func (p *Pool) unpin(f *frame) {
	p.mu.Lock()
	f.pins--
	if f.dead && f.pins == 0 {
		p.dropLocked(f)
	} else {
		p.evictLocked()
	}
	p.mu.Unlock()
}

// InvalidatePrefix removes every key beginning with prefix — used when a
// table is dropped, since a recreated table reuses segment file names.
func (p *Pool) InvalidatePrefix(prefix string) {
	p.mu.Lock()
	for key, f := range p.frames {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			delete(p.frames, key)
			f.dead = true
			if f.pins == 0 {
				p.dropLocked(f)
			}
		}
	}
	p.mu.Unlock()
}

// dropLocked releases a frame's bytes. The ring entry is left in place
// and skipped (then compacted) by the clock sweep.
func (p *Pool) dropLocked(f *frame) {
	if f.value != nil {
		p.bytes -= f.size
		f.value = nil
	}
}

// evictLocked sweeps the clock hand until the pool is under budget or no
// frame is evictable.
func (p *Pool) evictLocked() {
	if p.budget == 0 {
		return
	}
	target := p.budget
	if target < 0 {
		target = 0
	}
	// Each pass may clear reference bits, so allow two full revolutions
	// before concluding every remaining frame is pinned.
	for spins := 2 * len(p.ring); p.bytes > target && spins > 0; spins-- {
		if len(p.ring) == 0 {
			return
		}
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		f := p.ring[p.hand]
		if f.dead || f.value == nil {
			// Stale ring entry: compact it out.
			p.ring[p.hand] = p.ring[len(p.ring)-1]
			p.ring = p.ring[:len(p.ring)-1]
			continue
		}
		if f.pins > 0 {
			p.hand++
			continue
		}
		if f.ref {
			f.ref = false
			p.hand++
			continue
		}
		delete(p.frames, f.key)
		f.dead = true
		p.dropLocked(f)
		p.evictions.Add(1)
		p.ring[p.hand] = p.ring[len(p.ring)-1]
		p.ring = p.ring[:len(p.ring)-1]
	}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	bytes, frames := p.bytes, len(p.frames)
	p.mu.Unlock()
	return PoolStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Bytes:     bytes,
		Budget:    p.budget,
		Frames:    frames,
	}
}
