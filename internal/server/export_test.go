package server

import (
	"sort"
)

// Test-only listing: the shell completes and documents commands itself.

// SortedCommands lists the control commands (for cmd completion/docs).
func SortedCommands() []string {
	cmds := []string{
		`\help`, `\catalog`, `\network`, `\queries`, `\groups`, `\tenants`, `\fabric`,
		`\plan`, `\cplan`, `\stats`, `\results`, `\pause`, `\resume`,
		`\pause-stream`, `\resume-stream`, `\shards`, `\advance`, `\quit`,
	}
	sort.Strings(cmds)
	return cmds
}
