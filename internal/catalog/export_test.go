package catalog

// Test-only reader: the engine reads group membership from its groups.

// GroupMembers reports the member count of the group under key (0 if the
// key is unknown).
func (c *Catalog) GroupMembers(key string) int {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	if slot, ok := c.groups[key]; ok {
		return slot.members
	}
	return 0
}
