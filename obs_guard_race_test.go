//go:build race

package codecdb

// raceAllocSlack is the allocation headroom the race detector needs: its
// sync.Pool drops entries at random, so pooled scratch is reallocated.
const raceAllocSlack = 2

// raceBytesSlack is the byte headroom per extra row group the race
// detector needs for the same reason: every dropped page scratch or morsel
// state is regrown (measured 4 to 12 KB per extra row group above the
// non-race run's 1 KB).
const raceBytesSlack = 48 << 10
