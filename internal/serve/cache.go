package serve

import "container/list"

// lruCache is the result cache: a plain LRU over canonical request keys,
// plus a secondary index from graph fingerprint to the entries computed for
// that graph — what lets the PATCH endpoint invalidate exactly the entries a
// live graph delta staled, and nothing else — and body-digest aliases that
// let a repeated schedule body find its entry without being decoded.
// Results are immutable once stored (handlers add per-response envelope
// fields outside the Result), so entries are shared, never copied. The cache
// has its own methods but no own lock — Server.admit and completion consult
// it under Server.mu so cache, index, and pending-job state stay coherent.
type lruCache struct {
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	// byFP indexes cached entry keys by Result.Fingerprint. Results without
	// a fingerprint (shard entries) are not indexed.
	byFP map[string]map[string]bool
	// aliases maps the SHA-256 of a POST /v1/schedule body to the entry its
	// request resolved to. An entry holds at most one digest and takes it
	// along when it leaves the cache, so there are never more aliases than
	// entries and an alias never outlives its entry.
	aliases map[[32]byte]*list.Element
}

type lruEntry struct {
	key     string
	res     *Result
	digest  [32]byte // the entry's alias in lruCache.aliases, if aliased
	aliased bool
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
		byFP:     make(map[string]map[string]bool),
		aliases:  make(map[[32]byte]*list.Element),
	}
}

// get returns the cached result for key and marks it most recently used.
func (c *lruCache) get(key string) (*Result, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

// add stores res under key, evicting the least recently used entry when the
// cache is at capacity. Re-adding an existing key refreshes its value and
// recency (and re-indexes it if the fingerprint changed).
func (c *lruCache) add(key string, res *Result) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		entry := el.Value.(*lruEntry)
		c.unindex(entry)
		entry.res = res
		c.index(key, res)
		return
	}
	for c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		entry := oldest.Value.(*lruEntry)
		delete(c.items, entry.key)
		c.unindex(entry)
		c.unalias(entry)
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, res: res})
	c.index(key, res)
}

// len returns the number of cached entries.
func (c *lruCache) len() int { return c.ll.Len() }

func (c *lruCache) index(key string, res *Result) {
	if res == nil || res.Fingerprint == "" {
		return
	}
	keys := c.byFP[res.Fingerprint]
	if keys == nil {
		keys = make(map[string]bool, 1)
		c.byFP[res.Fingerprint] = keys
	}
	keys[key] = true
}

func (c *lruCache) unindex(entry *lruEntry) {
	if entry.res == nil || entry.res.Fingerprint == "" {
		return
	}
	keys := c.byFP[entry.res.Fingerprint]
	delete(keys, entry.key)
	if len(keys) == 0 {
		delete(c.byFP, entry.res.Fingerprint)
	}
}

// byFingerprint returns the cached results computed for the graph with the
// given fingerprint, without touching recency.
func (c *lruCache) byFingerprint(fp string) []*Result {
	keys := c.byFP[fp]
	if len(keys) == 0 {
		return nil
	}
	out := make([]*Result, 0, len(keys))
	for key := range keys {
		if el, ok := c.items[key]; ok {
			out = append(out, el.Value.(*lruEntry).res)
		}
	}
	return out
}

// invalidate removes every entry computed for the graph with the given
// fingerprint and returns how many were dropped — the surgical invalidation
// behind PATCH: entries for other graphs are untouched.
func (c *lruCache) invalidate(fp string) int {
	keys := c.byFP[fp]
	if len(keys) == 0 {
		return 0
	}
	n := 0
	for key := range keys {
		if el, ok := c.items[key]; ok {
			c.ll.Remove(el)
			delete(c.items, key)
			c.unalias(el.Value.(*lruEntry))
			n++
		}
	}
	delete(c.byFP, fp)
	return n
}

// getAlias returns the cached result whose request body had the given
// SHA-256 and marks it most recently used, as get does for its key.
func (c *lruCache) getAlias(digest [32]byte) (*Result, bool) {
	el, ok := c.aliases[digest]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

// alias makes digest the alias of the entry cached under key, replacing
// the entry's previous alias; it does nothing if key is not cached. A body
// always resolves to the same key, so digest can be aliased to no other
// entry.
func (c *lruCache) alias(digest [32]byte, key string) {
	el, ok := c.items[key]
	if !ok {
		return
	}
	entry := el.Value.(*lruEntry)
	c.unalias(entry)
	entry.digest, entry.aliased = digest, true
	c.aliases[digest] = el
}

func (c *lruCache) unalias(entry *lruEntry) {
	if entry.aliased {
		delete(c.aliases, entry.digest)
		entry.aliased = false
	}
}
