// Snapshot/restore seam for the functional cache model, part of the
// level-1 checkpoint chain (internal/cpu). All cache state is plain
// data, so a snapshot is a deep copy of the line arrays plus counters.

package cache

import (
	"fmt"
	"math"
)

// State is the restorable state of a Cache. Geometry (Config) is not
// part of the state: a snapshot restores only onto a cache built with
// the same configuration, which Restore checks via array lengths.
type State struct {
	Tags    []uint64
	Dirty   []bool
	Owner   []uint8
	Stamp   []uint64
	Clock   uint64
	Stats   Stats
	PerCore []Stats
}

// Snapshot deep-copies the cache's dynamic state.
func (c *Cache) Snapshot() State {
	stamps := make([]uint64, len(c.stamp))
	for i, s := range c.stamp {
		stamps[i] = uint64(s)
	}
	return State{
		Tags:    append([]uint64(nil), c.tags...),
		Dirty:   append([]bool(nil), c.dirty...),
		Owner:   append([]uint8(nil), c.owner...),
		Stamp:   stamps,
		Clock:   uint64(c.clock),
		Stats:   c.stats,
		PerCore: append([]Stats(nil), c.perCore...),
	}
}

// Restore overwrites the cache's state from a snapshot taken on a cache
// with the same geometry and core count.
func (c *Cache) Restore(st State) error {
	if len(st.Tags) != len(c.tags) || len(st.Dirty) != len(c.dirty) ||
		len(st.Owner) != len(c.owner) || len(st.Stamp) != len(c.stamp) {
		return fmt.Errorf("cache: restore onto a cache with different geometry")
	}
	if st.Clock > math.MaxUint32 {
		return fmt.Errorf("cache: restore of clock %d past the 32-bit LRU clock", st.Clock)
	}
	if len(st.PerCore) != len(c.perCore) {
		return fmt.Errorf("cache: restore with %d per-core stats onto %d cores", len(st.PerCore), len(c.perCore))
	}
	copy(c.tags, st.Tags)
	copy(c.dirty, st.Dirty)
	copy(c.owner, st.Owner)
	for i, s := range st.Stamp {
		c.stamp[i] = uint32(s)
	}
	c.clock = uint32(st.Clock)
	c.stats = st.Stats
	copy(c.perCore, st.PerCore)
	return nil
}
