//go:build !race

package kernel

// raceEnabled reports whether the test binary runs under the race
// detector, which instruments allocations and so voids allocation gates.
const raceEnabled = false
