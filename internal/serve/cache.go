package serve

import (
	"container/list"
	"sync"
)

// lru is the daemon's one bounded store, used three times: the result
// cache (canonical request key → the exact marshaled response body), the
// flight-record store (flight id → JSONL) and the trace store (trace id →
// document plus listing metadata). Storing bytes, not structs, is what
// makes a cache hit byte-identical to the miss that populated it — the
// service's analogue of the pipeline's determinism contract. Eviction is
// LRU with a fixed entry bound; the stored values are small (a few KiB)
// and uniform, so an entry bound behaves like a byte bound, and the byte
// total is kept only for the health surface.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	bytes int64
	order *list.List // front = most recently used; values are *lruEntry[V]
	items map[string]*list.Element
	size  func(V) int
	// replace reports whether a Put over a stored key swaps the new value
	// in; nil keeps the stored value (same content address, same bytes).
	replace func(old, v V) bool
}

type lruEntry[V any] struct {
	key string
	v   V
}

// newLRU returns a store bounded to capacity entries (minimum 1) whose
// byte total sums size over the stored values.
func newLRU[V any](capacity int, size func(V) int, replace func(old, v V) bool) *lru[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[V]{
		cap:     capacity,
		order:   list.New(),
		items:   make(map[string]*list.Element, capacity),
		size:    size,
		replace: replace,
	}
}

// newResultCache returns a byte-body store bounded to capacity entries:
// the result cache and the flight-record store.
func newResultCache(capacity int) *lru[[]byte] {
	return newLRU(capacity, func(b []byte) int { return len(b) }, nil)
}

// Get returns the stored value for key and marks it most recently used.
func (c *lru[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).v, true
}

// Put stores v under key, evicting the least recently used entry when the
// bound is exceeded. It returns how many entries were evicted (0 or 1).
func (c *lru[V]) Put(key string, v V) int {
	evicted, _ := c.put(key, v)
	return evicted
}

// put is Put that also reports whether v was kept: false when key was
// already stored and replace declined v (the stored entry is still marked
// most recently used).
func (c *lru[V]) put(key string, v V) (evicted int, kept bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[V])
		if c.replace != nil && c.replace(e.v, v) {
			c.bytes += int64(c.size(v) - c.size(e.v))
			e.v = v
			kept = true
		}
		c.order.MoveToFront(el)
		return 0, kept
	}
	c.items[key] = c.order.PushFront(&lruEntry[V]{key: key, v: v})
	c.bytes += int64(c.size(v))
	if c.order.Len() <= c.cap {
		return 0, true
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	e := oldest.Value.(*lruEntry[V])
	delete(c.items, e.key)
	c.bytes -= int64(c.size(e.v))
	return 1, true
}

// Values returns the stored values in no particular order.
func (c *lru[V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, len(c.items))
	for _, el := range c.items {
		out = append(out, el.Value.(*lruEntry[V]).v)
	}
	return out
}

// Len returns the current entry count.
func (c *lru[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the summed sizes of the stored values.
func (c *lru[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
