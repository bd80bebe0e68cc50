package ops

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// chain walks key k's build rows through First and Next.
func chain(tbl *JoinTable, k int64) []int32 {
	var rows []int32
	for r := tbl.First(k); r >= 0; r = tbl.Next(r) {
		rows = append(rows, r)
	}
	return rows
}

// probeAll probes every key through tbl the way the pipeline's inner join
// stage does and returns the (probe row, build row) pairs in output order.
func probeAll(tbl *JoinTable, probeKeys []int64) [][2]int64 {
	var out [][2]int64
	for p, k := range probeKeys {
		for _, b := range chain(tbl, k) {
			out = append(out, [2]int64{int64(p), int64(b)})
		}
	}
	return out
}

// nestedLoopOracle is the trivially-correct equi-join: every matching
// (probe, build) index pair, ascending by probe row, then build row.
func nestedLoopOracle(buildKeys, probeKeys []int64) [][2]int64 {
	var out [][2]int64
	for p, pk := range probeKeys {
		for b, bk := range buildKeys {
			if pk == bk {
				out = append(out, [2]int64{int64(p), int64(b)})
			}
		}
	}
	return out
}

// matchesOracle reports whether probing a table over buildKeys with
// probeKeys yields exactly the nested loop's pairs — each probe row's build
// rows in insertion order — and Contains agrees with it.
func matchesOracle(t *testing.T, name string, buildKeys, probeKeys []int64) bool {
	tbl := NewJoinTable(buildKeys)
	if tbl.Len() != len(buildKeys) {
		t.Logf("%s: Len %d, want %d", name, tbl.Len(), len(buildKeys))
		return false
	}
	// The oracle lists build rows ascending, which is insertion order:
	// equality checks both the pair set and the per-key order.
	got, want := probeAll(tbl, probeKeys), nestedLoopOracle(buildKeys, probeKeys)
	if !slices.Equal(got, want) {
		t.Logf("%s: got %d pairs, want %d", name, len(got), len(want))
		return false
	}
	for _, k := range probeKeys {
		if tbl.Contains(k) != slices.Contains(buildKeys, k) {
			t.Logf("%s: Contains(%d) = %v", name, k, tbl.Contains(k))
			return false
		}
	}
	return true
}

// wrappingKeys returns n build keys, two rows each of n/2 distinct keys
// that all hash to the last slot of a table over n rows, so their chains
// sit in slots that wrap around to the start of the slot array.
func wrappingKeys(t *testing.T, n int) []int64 {
	last := NewJoinTable(make([]int64, n)).mask
	var keys []int64
	for k := int64(0); len(keys) < n; k++ {
		if hash64(k)&last == last {
			keys = append(keys, k, k)
		}
	}
	// Rows go in last to first, so the first key's chain is placed last.
	if s := NewJoinTable(keys).slot(keys[0]); s >= last {
		t.Fatalf("first key's chain is in slot %d; the keys do not wrap", s)
	}
	return keys
}

// TestHashJoinMatchesNestedLoopOracle is the join-correctness property of
// the hash table every engine join stage probes. Across randomized inputs —
// duplicate keys on both sides (cross products), empty sides, heavily
// skewed multi-maps — and adversarial key sets — the int64 extremes,
// sequential keys, keys strided by 2^16 and 2^32 (identical low bits), one
// key repeated, chains that wrap around the slot array — probing yields
// exactly the nested loop's pair set, each probe row's build rows in
// insertion order, and Contains agrees with it.
func TestHashJoinMatchesNestedLoopOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buildN := rng.Intn(200)
		probeN := rng.Intn(300)
		if rng.Intn(8) == 0 {
			buildN = 0
		}
		if rng.Intn(8) == 0 {
			probeN = 0
		}
		// A small key domain forces duplicates and multi-map chains; a
		// skew key makes one chain much longer than the rest.
		domain := int64(1 + rng.Intn(20))
		skew := rng.Int63n(domain)
		draw := func() int64 {
			switch rng.Intn(12) {
			case 0, 1, 2, 3:
				return skew
			case 4:
				return math.MinInt64 + rng.Int63n(2)
			}
			return rng.Int63n(domain)
		}
		buildKeys := make([]int64, buildN)
		for i := range buildKeys {
			buildKeys[i] = draw()
		}
		probeKeys := make([]int64, probeN)
		for i := range probeKeys {
			probeKeys[i] = draw()
		}
		return matchesOracle(t, fmt.Sprintf("seed %d", seed), buildKeys, probeKeys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}

	const n = 1000
	keyed := func(key func(i int) int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = key(i)
		}
		return keys
	}
	adversarial := map[string][]int64{
		"extremes":    {math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MinInt64, 0, -1, math.MinInt64 + 1},
		"sequential":  keyed(func(i int) int64 { return int64(i) }),
		"stride 2^16": keyed(func(i int) int64 { return int64(i) << 16 }),
		"stride 2^32": keyed(func(i int) int64 { return int64(i) << 32 }),
		"one key":     keyed(func(int) int64 { return 7 }),
		"wrapping":    wrappingKeys(t, 64),
	}
	for name, build := range adversarial {
		// Probe every build key shuffled, each neighbour of one (mostly
		// absent), and the extremes.
		rng := rand.New(rand.NewSource(int64(len(build))))
		probe := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64}
		for _, k := range build {
			probe = append(probe, k, k-1, k+1)
		}
		rng.Shuffle(len(probe), func(i, j int) { probe[i], probe[j] = probe[j], probe[i] })
		if !matchesOracle(t, name, build, probe) {
			t.Fatalf("%s: the join differs from the nested loop", name)
		}
	}
}

// TestHashJoinMatchesOblivious checks a larger join with many duplicate
// build keys against a Go-map hash join: the same (probe, build) pairs,
// each as often.
func TestHashJoinMatchesOblivious(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	build := make([]int64, 2000)
	probe := make([]int64, 5000)
	for i := range build {
		build[i] = int64(rng.Intn(500)) // duplicates on the build side
	}
	for i := range probe {
		probe[i] = int64(rng.Intn(800))
	}
	rowsOf := map[int64][]int64{}
	for b, k := range build {
		rowsOf[k] = append(rowsOf[k], int64(b))
	}
	want := map[[2]int64]int{}
	for p, k := range probe {
		for _, b := range rowsOf[k] {
			want[[2]int64{int64(p), b}]++
		}
	}
	got := map[[2]int64]int{}
	pairs := probeAll(NewJoinTable(build), probe)
	for _, pr := range pairs {
		got[pr]++
	}
	if len(got) != len(want) || len(pairs) != len(got) {
		t.Fatalf("pairs: %d (%d distinct), want %d distinct", len(pairs), len(got), len(want))
	}
	for pr, c := range want {
		if got[pr] != c {
			t.Fatalf("pair %v count %d, want %d", pr, got[pr], c)
		}
	}
}

// TestSemiAndAntiJoin checks the membership test the semi and anti join
// stages keep and drop probe rows by.
func TestSemiAndAntiJoin(t *testing.T) {
	tbl := NewJoinTable([]int64{1, 3, 5})
	for _, k := range []int64{0, 1, 2, 3, 4, 5, 6} {
		if in := k == 1 || k == 3 || k == 5; tbl.Contains(k) != in {
			t.Fatalf("Contains(%d) = %v, want %v", k, tbl.Contains(k), in)
		}
	}
}

// TestJoinEmptyInputs covers the degenerate sides explicitly: an empty
// build side matches nothing, an empty probe side yields nothing.
func TestJoinEmptyInputs(t *testing.T) {
	empty := NewJoinTable(nil)
	if empty.Len() != 0 || empty.Contains(1) || len(probeAll(empty, []int64{1, 2})) != 0 {
		t.Fatal("join against empty build should be empty")
	}
	if len(probeAll(NewJoinTable([]int64{1}), nil)) != 0 {
		t.Fatal("empty probe should be empty")
	}
}
