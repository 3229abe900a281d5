//go:build race

package codec

// raceEnabled reports whether the race detector is compiled in. Allocation
// gates skip under it: race instrumentation adds shadow allocations, and
// sync.Pool drops pooled items at random, so AllocsPerRun miscounts.
const raceEnabled = true
