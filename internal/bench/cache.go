package bench

import (
	"errors"
	"sync"
)

// memo is a concurrency-safe, single-flight memoization table. The first
// caller of a key runs compute while later callers of the same key block on
// the entry's once and then share the result; different keys never block
// each other, and compute may itself call into the same memo under a
// different key (the map mutex is not held while compute runs).
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

func (c *memo[V]) entry(key string) *memoEntry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*memoEntry[V])
	}
	e := c.m[key]
	if e == nil {
		e = &memoEntry[V]{}
		c.m[key] = e
	}
	return e
}

// get returns the cached value for key, computing it via compute on first
// use. Errors are cached too: a failed computation is not retried, so every
// caller of the key observes the same outcome. The one exception is
// errStopped: a simulation that never started leaves no entry behind, and
// a later get computes the key afresh.
func (c *memo[V]) get(key string, compute func() (V, error)) (V, error) {
	e := c.entry(key)
	e.once.Do(func() { e.val, e.err = compute() })
	if errors.Is(e.err, errStopped) {
		c.mu.Lock()
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	return e.val, e.err
}

// fill stores val under key if no computation for the key has started yet.
// The session uses it to share one result between two caches whose entries
// are known to be equivalent (a comparison profile also serves as the plain
// profile of the same target).
func (c *memo[V]) fill(key string, val V) {
	e := c.entry(key)
	e.once.Do(func() { e.val = val })
}
