package tpch

import (
	"context"
	"sync"

	"codecdb/internal/bitutil"
	"codecdb/internal/exec"
	"codecdb/internal/memtable"
	"codecdb/internal/ops"
)

// Q3Pipelined is TPC-H Q3 expressed as an operator DAG of pipeline stages
// (paper §5.2, Figure 3): the customer-side and lineitem-side stages have
// no dependency and run in parallel on the operator pool; the orders
// stage consumes the customer stage; the join/aggregate stage blocks on
// both sides. A shared batch cache deduplicates the two reads of
// l_orderkey-adjacent columns. The result is checked equal to the
// engine plan and the oblivious plan in tests.
func (t *Tables) Q3Pipelined(opPool *exec.Pool) (*memtable.RowTable, error) {
	ctx := context.Background()
	cutoff := Date(1995, 3, 15)
	cache := exec.NewBatchCache()

	var (
		mu        sync.Mutex
		custMap   *ops.PCHMulti
		orderDate map[int64]int64
		orderMap  *ops.PCHMulti
		lOrder    []int64
		lPrice    []float64
		lDisc     []float64
		result    *memtable.RowTable
	)

	g := exec.NewGraph()
	// Stage 1: filter customers on segment, build the key set. This stage
	// ends at a blocking operator (hash-table build).
	err := g.AddStage("customer", func() error {
		cSel, err := ops.ApplyFilter(ctx, eqS("c_mktsegment", "BUILDING"), t.C, t.Pool, nil)
		if err != nil {
			return err
		}
		keys, err := ops.GatherInts(t.C, "c_custkey", cSel, t.Pool)
		if err != nil {
			return err
		}
		mu.Lock()
		custMap = ops.HashJoinBuild(t.Pool, keys, nil)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Stage 2 (independent of stage 1): filter lineitem on shipdate and
	// gather the join keys and payload. Column reads go through the batch
	// cache so a second operator needing l_orderkey reuses the load.
	err = g.AddStage("lineitem", func() error {
		lSel, err := ops.ApplyFilter(ctx, gt("l_shipdate", cutoff), t.L, t.Pool, nil)
		if err != nil {
			return err
		}
		ord, err := cachedGather(cache, t, "l_orderkey", lSel)
		if err != nil {
			return err
		}
		price, err := ops.GatherFloats(t.L, "l_extendedprice", lSel, t.Pool)
		if err != nil {
			return err
		}
		disc, err := ops.GatherFloats(t.L, "l_discount", lSel, t.Pool)
		if err != nil {
			return err
		}
		mu.Lock()
		lOrder, lPrice, lDisc = ord, price, disc
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Stage 3: filter orders on date, semi-join against the customer set,
	// build the order hash table. Depends on stage 1 only.
	err = g.AddStage("orders", func() error {
		oSel, err := ops.ApplyFilter(ctx, lt("o_orderdate", cutoff), t.O, t.Pool, nil)
		if err != nil {
			return err
		}
		oCust, err := ops.GatherInts(t.O, "o_custkey", oSel, t.Pool)
		if err != nil {
			return err
		}
		oKey, err := ops.GatherInts(t.O, "o_orderkey", oSel, t.Pool)
		if err != nil {
			return err
		}
		oDate, err := ops.GatherInts(t.O, "o_orderdate", oSel, t.Pool)
		if err != nil {
			return err
		}
		semi := ops.SemiJoinBitmap(t.Pool, custMap, oCust)
		dates := map[int64]int64{}
		var keys []int64
		semi.ForEach(func(i int) {
			dates[oKey[i]] = oDate[i]
			keys = append(keys, oKey[i])
		})
		mu.Lock()
		orderDate = dates
		orderMap = ops.HashJoinBuild(t.Pool, keys, nil)
		mu.Unlock()
		return nil
	}, "customer")
	if err != nil {
		return nil, err
	}
	// Stage 4: probe + aggregate + top-n; blocks on both sides.
	err = g.AddStage("aggregate", func() error {
		match := ops.SemiJoinBitmap(t.Pool, orderMap, lOrder)
		revenue := map[int64]float64{}
		match.ForEach(func(i int) {
			revenue[lOrder[i]] += lPrice[i] * (1 - lDisc[i])
		})
		mu.Lock()
		result = q3Finish(t, revenue, orderDate)
		mu.Unlock()
		return nil
	}, "orders", "lineitem")
	if err != nil {
		return nil, err
	}

	if err := g.Run(opPool); err != nil {
		return nil, err
	}
	return result, nil
}

// cachedGather routes a gathered column read through the query's batch
// cache keyed by column and selection identity (§5.2 batch execution).
func cachedGather(cache *exec.BatchCache, t *Tables, col string, sel *bitutil.SectionalBitmap) ([]int64, error) {
	v, err := cache.Load(col, func() (any, error) {
		return ops.GatherInts(t.L, col, sel, t.Pool)
	})
	if err != nil {
		return nil, err
	}
	return v.([]int64), nil
}
