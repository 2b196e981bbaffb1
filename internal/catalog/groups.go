// Shared-execution group registry. Continuous queries whose windowed
// stream scans agree on a group key (stream, window kind, slide
// granularity — see plan.GroupKey) share one execution group that drains
// and slices the stream once; the catalog tracks which groups exist and
// how many member queries each has, so CREATE/DROP QUERY can join and
// leave atomically. The group runtime itself lives in the factory layer;
// the registry stores it opaquely to keep the catalog free of plan and
// execution dependencies.
package catalog

import (
	"sort"
)

type groupSlot struct {
	v       any
	members int
}

// JoinGroup adds a member to the group registered under key, creating the
// group via create (called under the registry lock, so two concurrent
// joins cannot double-create) when none exists. It returns the group value
// and the new member count.
func (c *Catalog) JoinGroup(key string, create func() any) (v any, members int) {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	if c.groups == nil {
		c.groups = make(map[string]*groupSlot)
	}
	slot, ok := c.groups[key]
	if !ok {
		slot = &groupSlot{v: create()}
		c.groups[key] = slot
	}
	slot.members++
	return slot.v, slot.members
}

// LeaveGroup removes one member from the group under key. When the last
// member leaves, the slot is deleted under the registry lock — a
// concurrent JoinGroup then creates a fresh group — and the stale value is
// returned for the caller to tear down outside the lock. remaining is the
// member count after leaving (-1 if the key is unknown).
func (c *Catalog) LeaveGroup(key string) (v any, remaining int) {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	slot, ok := c.groups[key]
	if !ok {
		return nil, -1
	}
	slot.members--
	if slot.members <= 0 {
		delete(c.groups, key)
		return slot.v, 0
	}
	return slot.v, slot.members
}

// Group looks up the registered group under key.
func (c *Catalog) Group(key string) (any, bool) {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	slot, ok := c.groups[key]
	if !ok {
		return nil, false
	}
	return slot.v, true
}

// GroupKeys lists the registered group keys, sorted.
func (c *Catalog) GroupKeys() []string {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	out := make([]string, 0, len(c.groups))
	for k := range c.groups {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
