package ops

import (
	"math/rand"
	"sort"
	"testing"

	"codecdb/internal/exec"
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

func joinToSet(j *JoinPairs) map[[2]int64]int {
	m := map[[2]int64]int{}
	for i := range j.Probe {
		m[[2]int64{j.Probe[i], j.Build[i]}]++
	}
	return m
}

func TestHashJoinMatchesOblivious(t *testing.T) {
	pool := exec.NewPool(4)
	rng := rand.New(rand.NewSource(4))
	build := make([]int64, 2000)
	probe := make([]int64, 5000)
	for i := range build {
		build[i] = int64(rng.Intn(500)) // duplicates on the build side
	}
	for i := range probe {
		probe[i] = int64(rng.Intn(800))
	}
	m := HashJoinBuild(pool, build, nil)
	got := HashJoinProbe(pool, m, probe, nil)
	want := ObliviousHashJoin(build, probe)
	gs, ws := joinToSet(got), joinToSet(want)
	if len(gs) != len(ws) {
		t.Fatalf("pair sets differ: %d vs %d", len(gs), len(ws))
	}
	for k, c := range ws {
		if gs[k] != c {
			t.Fatalf("pair %v count %d, want %d", k, gs[k], c)
		}
	}
}

func TestHashJoinCustomRowIDs(t *testing.T) {
	pool := exec.NewPool(2)
	m := HashJoinBuild(pool, []int64{10, 20}, []int64{777, 888})
	pairs := HashJoinProbe(pool, m, []int64{20, 10, 30}, []int64{5, 6, 7})
	set := joinToSet(pairs)
	if len(set) != 2 || set[[2]int64{5, 888}] != 1 || set[[2]int64{6, 777}] != 1 {
		t.Fatalf("pairs = %+v", set)
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	pool := exec.NewPool(4)
	m := HashJoinBuild(pool, []int64{1, 3, 5}, nil)
	probe := []int64{0, 1, 2, 3, 4, 5, 6}
	semi := SemiJoinBitmap(pool, m, probe)
	anti := AntiJoinBitmap(pool, m, probe)
	for i, k := range probe {
		in := k == 1 || k == 3 || k == 5
		if semi.Get(i) != in {
			t.Fatalf("semi row %d", i)
		}
		if anti.Get(i) != !in {
			t.Fatalf("anti row %d", i)
		}
	}
}

func TestNestedLoopVariantsAgree(t *testing.T) {
	pred := func(p, b int) bool { return (p+b)%7 == 0 }
	a := NestedLoopJoin(300, 200, pred)
	b := BlockNestedLoopJoin(300, 200, pred)
	as, bs := joinToSet(a), joinToSet(b)
	if len(as) != len(bs) {
		t.Fatalf("NL %d pairs, BNL %d pairs", len(as), len(bs))
	}
	for k := range as {
		if bs[k] != as[k] {
			t.Fatalf("pair %v differs", k)
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	pool := exec.NewPool(2)
	m := HashJoinBuild(pool, nil, nil)
	pairs := HashJoinProbe(pool, m, []int64{1, 2}, nil)
	if pairs.Len() != 0 {
		t.Fatal("join against empty build should be empty")
	}
	pairs2 := HashJoinProbe(pool, HashJoinBuild(pool, []int64{1}, nil), nil, nil)
	if pairs2.Len() != 0 {
		t.Fatal("empty probe should be empty")
	}
}
