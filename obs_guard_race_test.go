//go:build race

package codecdb

// raceAllocSlack is the allocation headroom the race detector needs: its
// sync.Pool drops entries at random, so pooled scratch is reallocated.
const raceAllocSlack = 2
