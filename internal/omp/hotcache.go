package omp

import "sync"

// hotTeamsMax is the bound of every site's cache.
const hotTeamsMax = 8

// hotCache is one nesting site's bounded hot-team cache: the teams that
// ran this site's recent parallel regions, parked with their worker
// leases intact so a region of the same size forks with zero
// construction cost. There is one cache per site — the runtime's
// top-level slot plus one per forking worker — and each is bounded by
// hotTeamsMax with LRU eviction, so call-site or team-size churn
// reaches a steady state instead of growing a team (and holding a
// lease) per size forever.
//
// The cache is also the concurrency boundary of the fork path: take
// removes a team from the cache before the region runs and put parks it
// again after the join, so a cached team is owned by exactly one region
// at a time. Two Parallel calls racing on one runtime (two tenants
// share nothing here — each has its own caches) can therefore never
// claim the same team: the loser takes another entry or builds fresh.
type hotCache struct {
	mu   sync.Mutex
	max  int
	tick uint64 // logical clock for LRU age
	ents []hotEnt
}

type hotEnt struct {
	t    *Team
	used uint64
}

func newHotCache(max int) *hotCache { return &hotCache{max: max} }

// take claims the most-recently-used cached team of size n, removing it
// from the cache, or returns nil on a miss. Steady-state take/put pairs
// are allocation-free (swap-remove here, append into retained capacity
// in put).
func (hc *hotCache) take(n int) *Team {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	best := -1
	for i, e := range hc.ents {
		if e.t.n == n && (best < 0 || e.used > hc.ents[best].used) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	t := hc.ents[best].t
	last := len(hc.ents) - 1
	hc.ents[best] = hc.ents[last]
	hc.ents[last] = hotEnt{}
	hc.ents = hc.ents[:last]
	return t
}

// put parks a team and returns the teams evicted to stay within the
// bound, least recently used first; the caller must release their
// leases (the cache never touches the pool itself — lock order stays
// cache→pool everywhere).
func (hc *hotCache) put(t *Team) []*Team {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	hc.tick++
	hc.ents = append(hc.ents, hotEnt{t: t, used: hc.tick})
	var evicted []*Team
	for len(hc.ents) > hc.max {
		lru := 0
		for i, e := range hc.ents {
			if e.used < hc.ents[lru].used {
				lru = i
			}
		}
		evicted = append(evicted, hc.ents[lru].t)
		last := len(hc.ents) - 1
		hc.ents[lru] = hc.ents[last]
		hc.ents[last] = hotEnt{}
		hc.ents = hc.ents[:last]
	}
	return evicted
}

// drain empties the cache and returns everything it held (nil when
// already empty). Used by the lease-shortfall path, the idle-tenant
// rebalance, team release and Close; the caller releases the teams.
func (hc *hotCache) drain() []*Team {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	var out []*Team
	for i, e := range hc.ents {
		out = append(out, e.t)
		hc.ents[i] = hotEnt{}
	}
	hc.ents = hc.ents[:0]
	return out
}

// size returns the number of cached teams.
func (hc *hotCache) size() int {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return len(hc.ents)
}
