package runahead

// ChainCache holds extracted dependence chains, LRU-replaced (32 entries in
// Mini, 1024 in Big; paper §4.2). Its entries are kept by value in an array
// sized to the capacity, so an installation allocates nothing but the copy
// of a new or changed chain.
type ChainCache struct {
	// entries holds the cached chains in installation order (an eviction
	// takes its victim's place); its capacity is the cache's.
	entries []ccEntry
	clock   uint64
	// serial numbers installations: each one stamps the chain it installs or
	// refreshes with the next value, so no two installations share one.
	serial uint64
}

type ccEntry struct {
	chain *Chain
	lru   uint64
}

// NewChainCache returns a cache holding up to capacity chains.
func NewChainCache(capacity int) *ChainCache {
	return &ChainCache{entries: make([]ccEntry, 0, capacity)}
}

// Install inserts a chain, refreshing the cached one with the same branch
// and tag or replacing the LRU entry when full. Cached chains for the same
// branch with a different trigger PC are dropped: the extraction walk's
// terminator changed (an affector/guard was learned or unlearned — the
// HBT's AGC event), so the old variants no longer describe the branch's
// dataflow. It reports whether the chain was new: no cached chain had its
// branch, tag and micro-ops.
//
// The cache only reads ch, which the extractor reuses for its next walk.
// A refresh whose body is identical keeps the cached object; otherwise the
// cache installs a copy. Either way the installation gets a new serial, so
// the DCE treats a refreshed chain as a new one (Instance.hasInitiated).
func (c *ChainCache) Install(ch *Chain) bool {
	c.clock++
	c.serial++
	n := 0
	for _, e := range c.entries {
		if e.chain.BranchPC == ch.BranchPC && e.chain.Tag.PC != ch.Tag.PC {
			continue
		}
		c.entries[n] = e
		n++
	}
	clear(c.entries[n:])
	c.entries = c.entries[:n]
	for i := range c.entries {
		e := &c.entries[i]
		if e.chain.BranchPC == ch.BranchPC && e.chain.Tag == ch.Tag {
			fresh := !e.chain.Equal(ch)
			if !e.chain.sameBody(ch) {
				e.chain = ch.clone()
			}
			e.chain.serial = c.serial
			e.lru = c.clock
			return fresh
		}
	}
	slot := n
	if n < cap(c.entries) {
		c.entries = c.entries[:n+1]
	} else {
		slot = 0
		for i := 1; i < n; i++ {
			if c.entries[i].lru < c.entries[slot].lru {
				slot = i
			}
		}
	}
	cp := ch.clone()
	cp.serial = c.serial
	c.entries[slot] = ccEntry{chain: cp, lru: c.clock}
	return true
}

// The lookups below append their matches to dst and return it, so the DCE
// can collect them into one reused buffer instead of a fresh slice per
// call.

// Lookup appends the chains triggered by the event (pc, taken): exact-tag
// matches plus wildcard tags for pc. Every match is stamped with the same
// LRU clock, which then advances.
func (c *ChainCache) Lookup(dst []*Chain, pc uint64, taken bool) []*Chain {
	for i := range c.entries {
		if e := &c.entries[i]; e.chain.Tag.Matches(pc, taken) {
			e.lru = c.clock
			dst = push(dst, e.chain)
		}
	}
	c.clock++
	return dst
}

// Wildcards appends the wildcard-tagged chains triggered by pc regardless
// of outcome (Independent-early initiation).
func (c *ChainCache) Wildcards(dst []*Chain, pc uint64) []*Chain {
	for i := range c.entries {
		if ch := c.entries[i].chain; ch.Tag.PC == pc && ch.Tag.Out == OutWildcard {
			dst = push(dst, ch)
		}
	}
	return dst
}

// NonWildcards appends the chains triggered by (pc, taken) with a
// directional tag (Predictive initiation's speculative set).
func (c *ChainCache) NonWildcards(dst []*Chain, pc uint64, taken bool) []*Chain {
	for i := range c.entries {
		if ch := c.entries[i].chain; ch.Tag.Out != OutWildcard && ch.Tag.Matches(pc, taken) {
			dst = push(dst, ch)
		}
	}
	return dst
}

// HasBranch reports whether any cached chain computes branch pc.
func (c *ChainCache) HasBranch(pc uint64) bool {
	for i := range c.entries {
		if c.entries[i].chain.BranchPC == pc {
			return true
		}
	}
	return false
}

// All returns the cached chains (stats and examples).
func (c *ChainCache) All() []*Chain {
	out := make([]*Chain, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e.chain)
	}
	return out
}
