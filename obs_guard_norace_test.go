//go:build !race

package codecdb

// raceAllocSlack is zero outside the race detector (see
// obs_guard_race_test.go).
const raceAllocSlack = 0
