package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"codecdb"
)

// seedFor derives an independent, reproducible seed for one named
// stream of a run, so columns can be generated concurrently and still
// come out the same whatever the scheduling.
func seedFor(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

func rngFor(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(seedFor(seed, stream)))
}

// parallelDo runs the tasks on at most p goroutines.
func parallelDo(p int, tasks []func()) {
	if p < 1 {
		p = 1
	}
	ch := make(chan func())
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				t()
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
}

// The `events` table of the scan workloads. Every column's encoding is
// forced, so the workload cannot drift when the selector changes; value
// distributions are fixed and only labels, offsets and constants move
// with the seed, so every seed costs the same to scan.
//
//	status     dict string      8 labels, fixed skew 40/20/12/10/8/5/3/2 %
//	region     dict-RLE string  24 labels in runs of 16..111 rows, gzip pages;
//	                            grouped on, never filtered on: at this commit
//	                            every predicate on a DICTIONARY_RLE string
//	                            column fails at run time ("pages are not
//	                            packed-scannable") although the builders
//	                            accept it
//	url        delta-length     4096 distinct paths, snappy pages
//	level      bit-packed w3    0..3
//	code       bit-packed w8    0..127, gzip pages
//	user       bit-packed w20   0..2^19-1
//	ts         delta            ascending, gaps 1..16
//	start_day  dict int   \ one shared order-preserving dictionary,
//	end_day    dict int   / so the two columns compare key to key
//	latency    plain float64    log-normal, snappy pages
type eventsConsts struct {
	statusByRank [8][]byte // label holding each frequency rank
	userLo       int64     // packed range [userLo, userLo+2^16)
	codeLt       int64     // OR-tree / two-conjunct bounds
	codeLt2      int64
	codeEq       int64 // ~0.8% gather key
	likeSub      []byte
	tsLo, tsHi   int64 // covers 1/16 of the rows, contiguous
}

var statusWeights = [8]int{40, 20, 12, 10, 8, 5, 3, 2}

func genEvents(seed int64, n, p int) (*dataset, eventsConsts) {
	var k eventsConsts
	crng := rngFor(seed, "events/consts")

	labels := []string{"200", "201", "204", "301", "400", "404", "500", "503"}
	crng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	var rankOf [100]int
	pos := 0
	for r, w := range statusWeights {
		k.statusByRank[r] = []byte(labels[r])
		for j := 0; j < w; j++ {
			rankOf[pos] = r
			pos++
		}
	}
	regions := make([][]byte, 0, 24)
	for _, geo := range []string{"us", "eu", "ap"} {
		for _, dir := range []string{"east", "west", "north", "south"} {
			for i := 1; i <= 2; i++ {
				regions = append(regions, []byte(fmt.Sprintf("%s-%s-%d", geo, dir, i)))
			}
		}
	}
	k.likeSub = []byte([]string{"20", "40", "50"}[crng.Intn(3)])
	k.userLo = int64(crng.Intn(7 << 16))
	k.codeLt = 30 + int64(crng.Intn(5))
	k.codeLt2 = 60 + int64(crng.Intn(9))
	k.codeEq = int64(crng.Intn(128))
	tsBase := int64(1_600_000_000) + int64(crng.Intn(1<<24))
	dayBase := int64(18000 + crng.Intn(1000))
	// The ts range is one of the table's middle fourteen sixteenths,
	// aligned to its own size: wherever the seed puts it, it covers the
	// same number of row groups and pages.
	r0 := (1 + crng.Intn(14)) * (n / 16)

	d := &dataset{n: n}
	add := func(c *column) *column { d.cols = append(d.cols, c); return c }
	status := add(&column{name: "status", strs: make([][]byte, n)})
	region := add(&column{name: "region", strs: make([][]byte, n)})
	url := add(&column{name: "url", strs: make([][]byte, n)})
	level := add(&column{name: "level", ints: make([]int64, n)})
	code := add(&column{name: "code", ints: make([]int64, n)})
	user := add(&column{name: "user", ints: make([]int64, n)})
	ts := add(&column{name: "ts", ints: make([]int64, n)})
	startDay := add(&column{name: "start_day", ints: make([]int64, n)})
	endDay := add(&column{name: "end_day", ints: make([]int64, n)})
	latency := add(&column{name: "latency", floats: make([]float64, n)})

	uniform := func(c *column, stream string, bound int) func() {
		return func() {
			rng := rngFor(seed, stream)
			for i := range c.ints {
				c.ints[i] = int64(rng.Intn(bound))
			}
		}
	}
	parallelDo(p, []func(){
		func() {
			rng := rngFor(seed, "events/status")
			for i := range status.strs {
				status.strs[i] = k.statusByRank[rankOf[rng.Intn(100)]]
			}
		},
		func() {
			rng := rngFor(seed, "events/region")
			for i := 0; i < n; {
				v, run := regions[rng.Intn(len(regions))], 16+rng.Intn(96)
				for j := 0; j < run && i < n; j, i = j+1, i+1 {
					region.strs[i] = v
				}
			}
		},
		func() {
			rng := rngFor(seed, "events/url")
			words := []string{"cart", "checkout", "search", "item", "user", "login", "feed", "asset", "report", "admin", "export", "health"}
			pool := make([][]byte, 4096)
			for i := range pool {
				pool[i] = []byte(fmt.Sprintf("/svc/%s/%s/%d", words[rng.Intn(len(words))], words[rng.Intn(len(words))], rng.Intn(100000)))
			}
			for i := range url.strs {
				url.strs[i] = pool[rng.Intn(len(pool))]
			}
		},
		uniform(level, "events/level", 4),
		uniform(code, "events/code", 128),
		uniform(user, "events/user", 1<<19),
		func() {
			rng := rngFor(seed, "events/ts")
			t := tsBase
			for i := range ts.ints {
				t += 1 + int64(rng.Intn(16))
				ts.ints[i] = t
			}
		},
		func() {
			rng := rngFor(seed, "events/days")
			for i := range startDay.ints {
				s := dayBase + int64(rng.Intn(365))
				startDay.ints[i] = s
				endDay.ints[i] = s + int64(rng.Intn(15)) - 4
			}
		},
		func() {
			rng := rngFor(seed, "events/latency")
			for i := range latency.floats {
				latency.floats[i] = math.Exp(rng.NormFloat64()*0.8 + 3)
			}
		},
	})
	k.tsLo, k.tsHi = ts.ints[r0], ts.ints[r0+n/16]
	return d, k
}

func eventsColumns(d *dataset) []codecdb.Column {
	forced := func(name string, enc codecdb.Encoding, compression, group string) codecdb.Column {
		c := d.col(name)
		return codecdb.Column{Name: name, Ints: c.ints, Floats: c.floats, Strings: c.strs,
			ForceEncoding: enc, Forced: true, Compression: compression, DictGroup: group}
	}
	return []codecdb.Column{
		forced("status", codecdb.Dictionary, "", ""),
		forced("region", codecdb.DictRLE, "gzip", ""),
		forced("url", codecdb.DeltaLength, "snappy", ""),
		forced("level", codecdb.BitPacked, "", ""),
		forced("code", codecdb.BitPacked, "gzip", ""),
		forced("user", codecdb.BitPacked, "", ""),
		forced("ts", codecdb.Delta, "", ""),
		forced("start_day", codecdb.Dictionary, "", "days"),
		forced("end_day", codecdb.Dictionary, "", "days"),
		forced("latency", codecdb.Plain, "snappy", ""),
	}
}

// warmTemplates is scan_warm's fixed 12-template mix: every predicate
// kind and every terminal the root Query API offers, over every encoding
// in the table.
func warmTemplates(k eventsConsts) []template {
	st := func(rank int) []byte { return k.statusByRank[rank] }
	return []template{
		{name: "dict_eq_count", term: tCount, pred: cmp("status", opEq, st(2))},
		{name: "packed_range_count", term: tCount,
			pred: and(cmp("user", opGe, k.userLo), cmp("user", opLt, k.userLo+1<<16))},
		{name: "in_count", term: tCount, pred: in("status", st(1), st(4), st(6))},
		{name: "or_tree_count", term: tCount,
			pred: or(cmp("status", opEq, st(3)), and(cmp("level", opGe, int64(2)), cmp("code", opLt, k.codeLt)))},
		{name: "two_column_count", term: tCount, pred: cols("start_day", opLt, "end_day")},
		{name: "like_count", term: tCount, pred: like("status", k.likeSub)},
		{name: "two_conjunct_sum", term: tSum, col: "latency",
			pred: and(cmp("status", opEq, st(0)), cmp("code", opLt, k.codeLt2))},
		{name: "group_count", term: tGroupCount, col: "region", pred: cmp("level", opGe, int64(1))},
		{name: "full_scan_sum", term: tSum, col: "latency"},
		{name: "ts_range_count", term: tCount,
			pred: and(cmp("ts", opGe, k.tsLo), cmp("ts", opLt, k.tsHi))},
		{name: "ints_gather", term: tInts, col: "user", pred: cmp("code", opEq, k.codeEq)},
		// Gathers ~0.8% of the rows, from one sixteenth of the pages:
		// delta-length pages decode whole, so an unclustered gather would
		// cost a full-column decode and outweigh the other eleven together.
		{name: "strings_gather", term: tStrings, col: "url",
			pred: and(cmp("ts", opGe, k.tsLo), cmp("ts", opLt, k.tsHi), cmp("code", opLt, int64(16)))},
	}
}

// coldTemplates is scan_cold's mix: few templates, each IO-bound.
func coldTemplates(k eventsConsts) []template {
	return []template{
		{name: "full_scan_sum", term: tSum, col: "latency"},
		{name: "ts_range_count", term: tCount,
			pred: and(cmp("ts", opGe, k.tsLo), cmp("ts", opLt, k.tsHi))},
		{name: "two_conjunct_count", term: tCount,
			pred: and(cmp("status", opEq, k.statusByRank[0]), cmp("code", opLt, k.codeLt2))},
		{name: "group_count", term: tGroupCount, col: "region", pred: cmp("level", opGe, int64(1))},
	}
}
