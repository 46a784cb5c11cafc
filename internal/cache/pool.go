package cache

import (
	"runtime"
	"sync"
)

// Pool is a bounded free list of values keyed by K: the design packages
// park a released cache's bulk arrays here, keyed by their geometry, for
// the next cache of the same geometry (docs/performance.md, "The release
// lifecycle"). It holds at most runtime.GOMAXPROCS(0) values — one per
// campaign worker that can release at once. Get takes the most recently
// parked value with an equal key; Put into a full pool drops the oldest
// value, so a sweep's pool follows its current geometry. A mutex rather
// than a sync.Pool guards it: a campaign collects garbage many times per
// second, and a sync.Pool would lose its values between cells.
//
// Make pools with NewPool, so DrainPools reaches them.
type Pool[K comparable, T any] struct {
	mu    sync.Mutex
	items []poolItem[K, T] // oldest first
}

type poolItem[K comparable, T any] struct {
	key K
	val T
}

// drainer is a pool as DrainPools sees it.
type drainer interface{ drain() }

// pools lists every pool NewPool made (DrainPools).
var pools struct {
	mu  sync.Mutex
	all []drainer
}

// NewPool returns an empty pool that DrainPools reaches.
func NewPool[K comparable, T any]() *Pool[K, T] {
	p := &Pool[K, T]{}
	pools.mu.Lock()
	pools.all = append(pools.all, p)
	pools.mu.Unlock()
	return p
}

// DrainPools empties every pool made by NewPool, so the next constructor
// of any design allocates fresh arrays. Tests call it to compare recycled
// state with provably fresh state.
func DrainPools() {
	pools.mu.Lock()
	defer pools.mu.Unlock()
	for _, p := range pools.all {
		p.drain()
	}
}

// Get removes and returns the most recently parked value whose key
// equals key, or reports false when there is none.
func (p *Pool[K, T]) Get(key K) (T, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.items) - 1; i >= 0; i-- {
		if p.items[i].key == key {
			v := p.items[i].val
			n := copy(p.items[i:], p.items[i+1:])
			p.items[i+n] = poolItem[K, T]{}
			p.items = p.items[:i+n]
			return v, true
		}
	}
	var zero T
	return zero, false
}

// Put parks v under key, dropping the oldest values while the pool holds
// GOMAXPROCS or more. The caller must not use v afterwards.
func (p *Pool[K, T]) Put(key K, v T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if drop := len(p.items) - runtime.GOMAXPROCS(0) + 1; drop > 0 {
		n := copy(p.items, p.items[drop:])
		clear(p.items[n:])
		p.items = p.items[:n]
	}
	p.items = append(p.items, poolItem[K, T]{key, v})
}

func (p *Pool[K, T]) drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.items)
	p.items = p.items[:0]
}

// ArrayPool recycles released arrays of one payload type, keyed by their
// Config.
type ArrayPool[P any] struct{ pool *Pool[Config, *Array[P]] }

// NewArrayPool returns an empty array pool that DrainPools reaches.
func NewArrayPool[P any]() ArrayPool[P] {
	return ArrayPool[P]{NewPool[Config, *Array[P]]()}
}

// New returns a parked array of cfg's geometry reset to the state New
// leaves a fresh one in, or a fresh array when none is parked.
func (p ArrayPool[P]) New(cfg Config) *Array[P] {
	if a, ok := p.pool.Get(cfg); ok {
		a.reset()
		return a
	}
	return New[P](cfg)
}

// Put parks a for a later New of the same geometry. The caller must not
// use a afterwards.
func (p ArrayPool[P]) Put(a *Array[P]) { p.pool.Put(a.cfg, a) }
