package ops

import (
	"fmt"
	"math"
	"math/bits"
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
// that all hash to the last slot of a hashed table over n rows, so their
// chains sit in slots that wrap around to the start of the slot array.
func wrappingKeys(t *testing.T, n int) []int64 {
	last := hashMask(n)
	var keys []int64
	for k := int64(0); len(keys) < n; k++ {
		if hash64(k)&last == last {
			keys = append(keys, k, k)
		}
	}
	// Rows go in last to first, so the first key's chain is placed last.
	tbl := NewJoinTable(keys)
	if tbl.direct {
		t.Fatalf("keys spanning [%d, %d] index directly; they cannot wrap", keys[0], keys[len(keys)-1])
	}
	if s := tbl.hashSlot(keys[0]); s >= last {
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

// spanKeys returns n build keys spanning exactly [lo, lo+span]: both ends,
// then keys drawn inside with repeats, shuffled. span is taken in uint64,
// so the keys may run past MaxInt64 into negative values.
func spanKeys(rng *rand.Rand, n int, lo int64, span uint64) []int64 {
	keys := []int64{lo, int64(uint64(lo) + span)}
	for len(keys) < n {
		k := int64(uint64(lo) + uint64(rng.Int63n(int64(span)+1)))
		if rng.Intn(4) == 0 {
			k = keys[rng.Intn(len(keys))]
		}
		keys = append(keys, k)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// edgeProbes returns probes around a key set: every key and its
// neighbours, the ends of int64, and keys whose k−min wraps (below min by
// 2^63, above max by the slot count, and min−1).
func edgeProbes(keys []int64) []int64 {
	lo, hi := slices.Min(keys), slices.Max(keys)
	probe := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 0, -1,
		lo - 1, hi + 1, lo + math.MinInt64, hi + math.MinInt64, int64(uint64(hi) - uint64(lo) + uint64(hi) + 1)}
	for _, k := range keys {
		probe = append(probe, k, k-1, k+1)
	}
	return probe
}

// TestJoinTableSpanThreshold checks the layout rules at their edges — a
// key set spanning one less than 8n+directSlack indexes directly, the
// threshold itself and one past it hash; a hashed set spanning one less
// than 64n+presenceSlack keeps a presence bitmap, the threshold itself and
// one past it do not — and that every layout matches the nested loop on
// negative keys, keys straddling zero, keys ending at either int64
// extreme, and probes below the minimum, above the maximum and where k−min
// wraps, and lists its distinct keys ascending.
func TestJoinTableSpanThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{2, 9, 300} {
		thr := 8*uint64(n) + directSlack
		pthr := 64*uint64(n) + presenceSlack
		for _, span := range []uint64{thr - 1, thr, thr + 1, pthr - 1, pthr, pthr + 1} {
			for _, lo := range []int64{0, -int64(span) / 2, -5000, math.MinInt64, math.MaxInt64 - int64(span), 1 << 40} {
				keys := spanKeys(rng, n, lo, span)
				name := fmt.Sprintf("n=%d span=%d lo=%d", n, span, lo)
				tbl := NewJoinTable(keys)
				if got, want := tbl.direct, span < thr; got != want {
					t.Fatalf("%s: direct = %v, want %v", name, got, want)
				}
				if got, want := tbl.present != nil, span >= thr && span < pthr; got != want {
					t.Fatalf("%s: presence bitmap = %v, want %v", name, got, want)
				}
				if !matchesOracle(t, name, keys, edgeProbes(keys)) {
					t.Fatalf("%s: the join differs from the nested loop", name)
				}
				want := slices.Clone(keys)
				slices.Sort(want)
				want = slices.Compact(want)
				if got := tbl.DistinctKeys(); !slices.Equal(got, want) {
					t.Fatalf("%s: distinct keys %v, want %v", name, got, want)
				}
			}
		}
	}
	// A set holding both extremes spans 2^64−1 in uint64: it hashes, with
	// no presence bitmap.
	both := []int64{math.MaxInt64, math.MinInt64, 0, math.MinInt64}
	if tbl := NewJoinTable(both); tbl.direct || tbl.present != nil {
		t.Fatal("a key set holding both int64 extremes indexes directly or keeps a presence bitmap")
	}
	if !matchesOracle(t, "both extremes", both, edgeProbes(both)) {
		t.Fatal("both extremes: the join differs from the nested loop")
	}
	if got := NewJoinTable(both).DistinctKeys(); !slices.Equal(got, []int64{math.MinInt64, 0, math.MaxInt64}) {
		t.Fatalf("both extremes: distinct keys %v", got)
	}
	if tbl := NewJoinTable(nil); tbl.direct || tbl.present != nil || tbl.DistinctKeys() != nil {
		t.Fatal("an empty key set indexes directly, keeps a presence bitmap or lists a key")
	}
}

// FuzzJoinTable checks both layouts against a map from key to build rows:
// the fuzzer picks the keys' base and spread (a narrow spread indexes
// directly, a wide one hashes), build keys and probes. Every probe's chain
// must list exactly the key's build rows in insertion order.
func FuzzJoinTable(f *testing.F) {
	f.Add(int64(0), uint64(10), []byte{1, 2, 3, 3, 9, 0, 1, 7})
	f.Add(int64(-3), uint64(1<<40), []byte{0, 255, 17, 17, 4, 200, 1})
	f.Add(int64(math.MaxInt64-5), uint64(6), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(math.MinInt64), uint64(math.MaxUint64), []byte{0, 255, 0, 255, 128, 1})
	f.Fuzz(func(t *testing.T, base int64, spread uint64, data []byte) {
		if len(data) > 4096 {
			return
		}
		key := func(b byte) int64 {
			// Byte b lands at base + b·spread/255 (wrapping), so b = 0 and
			// b = 255 are the ends of the spread.
			hi, lo := bits.Mul64(spread, uint64(b))
			q, _ := bits.Div64(hi%255, lo, 255)
			return int64(uint64(base) + q)
		}
		half := len(data) / 2
		build := make([]int64, half)
		rowsOf := map[int64][]int32{}
		for i, b := range data[:half] {
			build[i] = key(b)
			rowsOf[build[i]] = append(rowsOf[build[i]], int32(i))
		}
		tbl := NewJoinTable(build)
		if tbl.Len() != len(build) {
			t.Fatalf("Len %d, want %d", tbl.Len(), len(build))
		}
		probes := append(slices.Clone(build), math.MinInt64, math.MaxInt64, base-1)
		for _, b := range data[half:] {
			probes = append(probes, key(b), key(b)+1)
		}
		for _, k := range probes {
			if got, want := chain(tbl, k), rowsOf[k]; !slices.Equal(got, want) {
				t.Fatalf("key %d (direct %v): rows %v, want %v", k, tbl.direct, got, want)
			}
			if tbl.Contains(k) != (rowsOf[k] != nil) {
				t.Fatalf("Contains(%d) = %v", k, tbl.Contains(k))
			}
		}
	})
}

// BenchmarkJoinProbe reports ns per First of a direct table, a hashed one
// whose keys are sparse enough for a presence bitmap and a hashed one
// without, at 1k and 75k build keys, with 0%, 50% and 100% of probes
// hitting — the sparse table at 0%, 5% and 50%, the hit rates of the
// small build sides it serves. The direct keys are the even numbers, the
// sparse ones a stride of 37 and the hashed ones a wide stride, so a miss
// lands inside the key range in every layout.
func BenchmarkJoinProbe(b *testing.B) {
	const probes = 1 << 16
	for _, layout := range []struct {
		name string
		key  func(i int) int64
		hits []int
	}{
		{"direct", func(i int) int64 { return 2 * int64(i) }, []int{0, 50, 100}},
		{"sparse", func(i int) int64 { return 37 * int64(i) }, []int{0, 5, 50}},
		{"hashed", func(i int) int64 { return int64(i) * 1000003 }, []int{0, 50, 100}},
	} {
		for _, n := range []int{1000, 75000} {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = layout.key(i)
			}
			tbl := NewJoinTable(keys)
			if tbl.direct != (layout.name == "direct") || (tbl.present != nil) != (layout.name == "sparse") {
				b.Fatalf("%s keys: direct = %v, presence bitmap = %v", layout.name, tbl.direct, tbl.present != nil)
			}
			for _, hit := range layout.hits {
				rng := rand.New(rand.NewSource(int64(n + hit)))
				probe := make([]int64, probes)
				for i := range probe {
					probe[i] = layout.key(rng.Intn(n))
					if rng.Intn(100) >= hit {
						probe[i]++ // odd, or off the stride: a miss
					}
				}
				b.Run(fmt.Sprintf("%s/keys=%d/hit=%d%%", layout.name, n, hit), func(b *testing.B) {
					var found int
					for i := 0; i < b.N; i++ {
						for _, k := range probe {
							if tbl.First(k) >= 0 {
								found++
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/probe")
					if b.N > 0 && found%b.N != 0 {
						b.Fatalf("found %d over %d passes", found, b.N)
					}
				})
			}
		}
	}
}
