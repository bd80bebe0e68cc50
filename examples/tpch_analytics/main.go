// TPC-H analytics: generate a small TPC-H instance, load it with
// CodecDB's encodings, and run a selection of queries with both the
// encoding-aware plans and the decode-first baseline — the query half of
// the paper in one program.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"codecdb/internal/colstore"
	"codecdb/internal/core"
	"codecdb/internal/tpch"
)

func main() {
	dir, err := os.MkdirTemp("", "codecdb-tpch")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const sf = 0.01
	fmt.Printf("generating TPC-H at SF %.2f ...\n", sf)
	data := tpch.Generate(sf, 42)
	fmt.Printf("  lineitem: %d rows, orders: %d rows\n",
		len(data.Lineitem.OrderKey), len(data.Orders.OrderKey))

	db, err := core.Open(dir, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := tpch.LoadCodecDB(db, data, colstore.Options{}); err != nil {
		log.Fatal(err)
	}
	encs, _ := db.Encodings("lineitem")
	fmt.Printf("  l_shipdate encoded as %s (order-preserving, shared dict with commit/receipt)\n\n",
		encs["l_shipdate"])

	ts, err := tpch.OpenTables(db)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-4s %-30s %12s %12s %9s\n", "Q", "shape", "CodecDB ms", "oblivious ms", "speedup")
	shapes := map[int]string{
		1:  "scan+filter+group (dict dates)",
		3:  "3-way join, top-n",
		4:  "two-column compare + semijoin",
		6:  "range filter + sum",
		12: "IN + two two-col compares",
		14: "LIKE rewrite on dictionary",
	}
	for _, q := range []int{1, 3, 4, 6, 12, 14} {
		// Warm the page cache and dictionaries so the timing compares
		// execution strategies, not cold-start IO.
		if _, err := ts.CodecDB(q); err != nil {
			log.Fatal(err)
		}
		if _, err := ts.Oblivious(q); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		aware, err := ts.CodecDB(q)
		if err != nil {
			log.Fatal(err)
		}
		awareMs := float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		obliv, err := ts.Oblivious(q)
		if err != nil {
			log.Fatal(err)
		}
		oblivMs := float64(time.Since(start).Microseconds()) / 1000
		if aware.NumRows() != obliv.NumRows() {
			log.Fatalf("Q%d: plans disagree", q)
		}
		fmt.Printf("q%-3d %-30s %12.2f %12.2f %8.1fx\n",
			q, shapes[q], awareMs, oblivMs, oblivMs/awareMs)
	}

	// Show one actual result: the Q1 pricing summary.
	res, err := ts.CodecDB(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nQ1 pricing summary (returnflag, linestatus, sum_qty, count):")
	for i := 0; i < res.NumRows(); i++ {
		row := res.Row(i)
		fmt.Printf("  %s %s %12.0f %10d\n", row[0], row[1], row[2], row[9])
	}
}
