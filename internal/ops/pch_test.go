package ops

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestPCHMultiDuplicates(t *testing.T) {
	m := NewPCHMulti(10)
	m.Insert(5, 100)
	m.Insert(5, 101)
	m.Insert(9, 200)
	var rows []int64
	m.Each(5, func(r int64) { rows = append(rows, r) })
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	if len(rows) != 2 || rows[0] != 100 || rows[1] != 101 {
		t.Fatalf("rows = %v", rows)
	}
	if !m.Contains(9) || m.Contains(6) {
		t.Fatal("Contains wrong")
	}
}

func TestPCHReservedKeysPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPCHMulti(4).Insert(emptyKey, 1)
}

// probeAll probes every key through tbl the way the pipeline's inner join
// stage does and returns the (probe row, build row) pairs in output order.
func probeAll(tbl *JoinTable, probeKeys []int64) [][2]int64 {
	var out [][2]int64
	for p, k := range probeKeys {
		tbl.Each(k, func(b int32) { out = append(out, [2]int64{int64(p), int64(b)}) })
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

// TestHashJoinMatchesNestedLoopOracle is the join-correctness property of
// the hash table every engine join stage probes: across randomized inputs —
// duplicate keys on both sides (cross products), empty sides, heavily
// skewed multi-maps, and the two keys PCHMulti reserves — probing with
// Each yields exactly the nested loop's pair set, each probe row's build
// rows in insertion order, and Contains agrees with it.
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
		tbl := NewJoinTable(buildKeys)
		if tbl.Len() != buildN {
			t.Logf("seed %d: Len %d, want %d", seed, tbl.Len(), buildN)
			return false
		}
		// The oracle lists build rows ascending, which is insertion order:
		// equality checks both the pair set and the per-key order.
		got, want := probeAll(tbl, probeKeys), nestedLoopOracle(buildKeys, probeKeys)
		if !slices.Equal(got, want) {
			t.Logf("seed %d: got %d pairs, want %d", seed, len(got), len(want))
			return false
		}
		for _, k := range probeKeys {
			if tbl.Contains(k) != slices.Contains(buildKeys, k) {
				t.Logf("seed %d: Contains(%d) = %v", seed, k, tbl.Contains(k))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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
