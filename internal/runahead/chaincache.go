package runahead

// ChainCache holds extracted dependence chains, LRU-replaced (32 entries in
// Mini, 1024 in Big; paper §4.2).
type ChainCache struct {
	cap    int
	chains []*ccEntry
	clock  uint64
}

type ccEntry struct {
	chain *Chain
	lru   uint64
}

// NewChainCache returns a cache holding up to capacity chains.
func NewChainCache(capacity int) *ChainCache {
	return &ChainCache{cap: capacity}
}

// Install inserts a chain, replacing an identical one (refresh) or the LRU
// entry when full. Cached chains for the same branch with a different
// trigger PC are dropped: the extraction walk's terminator changed (an
// affector/guard was learned or unlearned — the HBT's AGC event), so the
// old variants no longer describe the branch's dataflow. It reports
// whether the chain was new.
func (c *ChainCache) Install(ch *Chain) bool {
	c.clock++
	live := c.chains[:0]
	for _, e := range c.chains {
		if e.chain.BranchPC == ch.BranchPC && e.chain.Tag.PC != ch.Tag.PC {
			continue
		}
		live = append(live, e)
	}
	c.chains = live
	for _, e := range c.chains {
		if e.chain.BranchPC == ch.BranchPC && e.chain.Tag == ch.Tag {
			fresh := !e.chain.Equal(ch)
			e.chain = ch
			e.lru = c.clock
			return fresh
		}
	}
	if len(c.chains) < c.cap {
		c.chains = append(c.chains, &ccEntry{chain: ch, lru: c.clock})
		return true
	}
	victim := 0
	for i := 1; i < len(c.chains); i++ {
		if c.chains[i].lru < c.chains[victim].lru {
			victim = i
		}
	}
	c.chains[victim] = &ccEntry{chain: ch, lru: c.clock}
	return true
}

// The lookups below append their matches to dst and return it, so the DCE
// can collect them into one reused buffer instead of a fresh slice per
// call.

// Lookup appends the chains triggered by the event (pc, taken): exact-tag
// matches plus wildcard tags for pc. Every match is stamped with the same
// LRU clock, which then advances.
func (c *ChainCache) Lookup(dst []*Chain, pc uint64, taken bool) []*Chain {
	for _, e := range c.chains {
		if e.chain.Tag.Matches(pc, taken) {
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
	for _, e := range c.chains {
		if e.chain.Tag.PC == pc && e.chain.Tag.Out == OutWildcard {
			dst = push(dst, e.chain)
		}
	}
	return dst
}

// NonWildcards appends the chains triggered by (pc, taken) with a
// directional tag (Predictive initiation's speculative set).
func (c *ChainCache) NonWildcards(dst []*Chain, pc uint64, taken bool) []*Chain {
	for _, e := range c.chains {
		if e.chain.Tag.Out != OutWildcard && e.chain.Tag.Matches(pc, taken) {
			dst = push(dst, e.chain)
		}
	}
	return dst
}

// HasBranch reports whether any cached chain computes branch pc.
func (c *ChainCache) HasBranch(pc uint64) bool {
	for _, e := range c.chains {
		if e.chain.BranchPC == pc {
			return true
		}
	}
	return false
}

// Len returns the number of cached chains.
func (c *ChainCache) Len() int { return len(c.chains) }

// All returns the cached chains (stats and examples).
func (c *ChainCache) All() []*Chain {
	out := make([]*Chain, 0, len(c.chains))
	for _, e := range c.chains {
		out = append(out, e.chain)
	}
	return out
}
