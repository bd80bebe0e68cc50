package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"codecdb"
	"codecdb/internal/arena"
	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/features"
	"codecdb/internal/sboost"
	"codecdb/internal/selector"
	"codecdb/internal/xcompress"
)

// The layer probes: direct calls into each storage and execution layer's
// public functions over scan_warm's `events` table, timed one layer at a
// time. They are the same whatever workload the traced run is for, which
// is what lets every traced run report every per-layer metric; a traced
// run of scan_warm reuses its own table, the others build one.
//
// Together they are the kernel → page → pipeline budget: what one
// predicate costs per row as a bare SWAR kernel over packed bytes in
// memory, as a page fetched, checksummed and scanned, and as a Count()
// through the root API (one worker, so wall time is CPU time).

// timeReps runs fn reps times and returns the median wall time in ns.
func timeReps(reps int, fn func()) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ns)
}

// probeCheck counts one probe's verification as an operation.
func probeCheck(res *runResult, what string, got, want any) {
	if fmt.Sprint(got) == fmt.Sprint(want) {
		res.count(1, 0)
		return
	}
	res.count(1, 1)
	res.mismatch("probe "+what, got, want, nil)
}

func runLayerProbes(cfg runConfig, res *runResult, st *scanTable) error {
	if st == nil {
		var err error
		st, err = setupScan(cfg, scanWarm, filepath.Join(cfg.workDir, "probe"))
		if err != nil {
			return err
		}
		defer st.close()
	}
	reps := cfg.scale.probeReps
	path := filepath.Join(st.dir, "events.cdb")

	res.put("colstore.open_ms", "ms", timeReps(reps, func() {
		if r, err := colstore.Open(path); err == nil {
			r.Close()
		}
	})/1e6)
	r, err := colstore.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()

	if err := probeKernels(res, r, st, reps); err != nil {
		return err
	}
	if err := probeColstore(res, r, st, reps); err != nil {
		return err
	}
	probeCodecs(res, st, reps)
	probeExec(cfg, res, reps)
	probeSelector(cfg, res)
	return probePipeline(res, r, st, reps)
}

// packedColumn loads every page of a packed column into memory, so the
// kernel probes time the kernel and nothing else.
func packedColumn(r *colstore.Reader, name string) ([]colstore.PackedPage, error) {
	ci, _, err := r.Column(name)
	if err != nil {
		return nil, err
	}
	var pages []colstore.PackedPage
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		pp, err := r.Chunk(rg, ci).PackedPages()
		if err != nil {
			return nil, err
		}
		pages = append(pages, pp...)
	}
	return pages, nil
}

// scanPages runs kernel over every page into a reused bitmap and
// returns the total number of hits.
func scanPages(pages []colstore.PackedPage, kernel func(out *bitutil.Bitmap, p *colstore.PackedPage)) int {
	hits := 0
	var out *bitutil.Bitmap
	for i := range pages {
		p := &pages[i]
		out = cleared(out, p.N)
		kernel(out, p)
		hits += out.Cardinality()
	}
	return hits
}

// cleared returns an all-zero bitmap of n bits, reusing b when it has
// that length.
func cleared(b *bitutil.Bitmap, n int) *bitutil.Bitmap {
	if b == nil || b.Len() != n {
		return bitutil.NewBitmap(n)
	}
	b.Reset()
	return b
}

func zig(v int64) uint64 { return uint64(v) << 1 } // v >= 0

func probeKernels(res *runResult, r *colstore.Reader, st *scanTable, reps int) error {
	d, k := st.data, st.consts
	rows := float64(d.n)
	count := func(p bpred) int64 { return d.expect(template{term: tCount, pred: p}).count }
	// The status dictionary is order-preserving: a label's key is its
	// rank among the sorted labels.
	labels := make([]string, len(k.statusByRank))
	for i, l := range k.statusByRank {
		labels[i] = string(l)
	}
	sort.Strings(labels)
	keyOf := func(label []byte) uint64 { return uint64(sort.SearchStrings(labels, string(label))) }
	inSet := []any{k.statusByRank[1], k.statusByRank[4], k.statusByRank[6]}
	inKeys := []uint64{keyOf(k.statusByRank[1]), keyOf(k.statusByRank[4]), keyOf(k.statusByRank[6])}

	rangePred := and(cmp("user", opGe, k.userLo), cmp("user", opLt, k.userLo+1<<16))
	for _, kn := range []struct {
		metric, col string
		pred        bpred
		fn          func(out *bitutil.Bitmap, p *colstore.PackedPage)
	}{
		{"sboost.scan_ns_per_row.w3", "level", cmp("level", opEq, int64(2)),
			func(out *bitutil.Bitmap, p *colstore.PackedPage) {
				sboost.ScanPackedInto(out, p.Data, p.Width, sboost.OpEq, zig(2))
			}},
		{"sboost.scan_ns_per_row.w8", "code", cmp("code", opLt, k.codeLt2),
			func(out *bitutil.Bitmap, p *colstore.PackedPage) {
				sboost.ScanPackedInto(out, p.Data, p.Width, sboost.OpLt, zig(k.codeLt2))
			}},
		{"sboost.scan_ns_per_row.w20", "user", cmp("user", opGe, k.userLo),
			func(out *bitutil.Bitmap, p *colstore.PackedPage) {
				sboost.ScanPackedInto(out, p.Data, p.Width, sboost.OpGe, zig(k.userLo))
			}},
		{"sboost.range_ns_per_row.w20", "user", rangePred,
			func(out *bitutil.Bitmap, p *colstore.PackedPage) {
				sboost.ScanPackedRangeInto(out, p.Data, p.Width, zig(k.userLo), zig(k.userLo+1<<16-1))
			}},
		{"sboost.in_ns_per_row.w3", "status", in("status", inSet...),
			func(out *bitutil.Bitmap, p *colstore.PackedPage) {
				sboost.ScanPackedInInto(out, p.Data, p.Width, inKeys)
			}},
	} {
		pages, err := packedColumn(r, kn.col)
		if err != nil {
			return err
		}
		var hits int
		ns := timeReps(reps, func() { hits = scanPages(pages, kn.fn) })
		res.put(kn.metric, "ns/row", ns/rows)
		probeCheck(res, kn.metric, hits, count(kn.pred))
	}

	// Two-stream compare at width 20: the user column's pages against
	// the same column one page later — two real packed streams of equal
	// width and length.
	pages, err := packedColumn(r, "user")
	if err != nil {
		return err
	}
	user := d.col("user").ints
	var want int64
	var pairs [][2]*colstore.PackedPage
	for i := 0; i+1 < len(pages); i++ {
		a, b := &pages[i], &pages[i+1]
		if a.N != b.N || a.Width != b.Width {
			continue
		}
		pairs = append(pairs, [2]*colstore.PackedPage{a, b})
	}
	// Pages are equal-sized except possibly the last, so page i starts at
	// row i*N of the generated column.
	for i := range pairs {
		n := pairs[i][0].N
		for j := 0; j < n; j++ {
			if user[i*n+j] < user[(i+1)*n+j] {
				want++
			}
		}
	}
	var hits int
	var pairRows int
	ns := timeReps(reps, func() {
		hits, pairRows = 0, 0
		var out *bitutil.Bitmap
		for _, pr := range pairs {
			out = cleared(out, pr[0].N)
			sboost.CompareStreamsInto(out, pr[0].Data, pr[1].Data, pr[0].Width, sboost.OpLt)
			hits += out.Cardinality()
			pairRows += pr[0].N
		}
	})
	res.put("sboost.streams_ns_per_row.w20", "ns/row", ns/float64(max(pairRows, 1)))
	probeCheck(res, "sboost.streams_ns_per_row.w20", hits, want)
	return nil
}

// probeColstore times the page layer: fetching a page body (read +
// checksum + decompress) and decoding whole chunks of each encoding.
func probeColstore(res *runResult, r *colstore.Reader, st *scanTable, reps int) error {
	d := st.data
	rows := float64(d.n)
	sc := arena.Get()
	defer arena.Put(sc)

	ci, _, err := r.Column("latency")
	if err != nil {
		return err
	}
	var bodyBytes int
	ns := timeReps(reps, func() {
		bodyBytes = 0
		for rg := 0; rg < r.NumRowGroups(); rg++ {
			c := r.Chunk(rg, ci)
			for p := 0; p < c.NumPages(); p++ {
				body, err := c.PageBodyScratch(p, sc)
				if err != nil {
					bodyBytes = -1
					return
				}
				bodyBytes += len(body)
			}
		}
	})
	res.put("colstore.page_body_ns_per_row", "ns/row", ns/rows)
	probeCheck(res, "colstore.page_body_ns_per_row", bodyBytes >= 8*d.n, true)

	type decode struct {
		col string
		fn  func(c *colstore.Chunk) (int, error)
	}
	intsOf := func(c *colstore.Chunk) (int, error) { v, err := c.Ints(); return len(v), err }
	keysOf := func(c *colstore.Chunk) (int, error) { v, err := c.Keys(); return len(v), err }
	strsOf := func(c *colstore.Chunk) (int, error) { v, err := c.Strings(); return len(v), err }
	floatsOf := func(c *colstore.Chunk) (int, error) { v, err := c.Floats(); return len(v), err }
	for _, dec := range []decode{
		{"status", keysOf}, {"region", strsOf}, {"url", strsOf}, {"level", intsOf},
		{"user", intsOf}, {"ts", intsOf}, {"latency", floatsOf},
	} {
		ci, _, err := r.Column(dec.col)
		if err != nil {
			return err
		}
		var n int
		var derr error
		ns := timeReps(reps, func() {
			n = 0
			for rg := 0; rg < r.NumRowGroups(); rg++ {
				m, err := dec.fn(r.Chunk(rg, ci))
				if err != nil {
					derr = err
					return
				}
				n += m
			}
		})
		if derr != nil {
			return fmt.Errorf("decode %s: %w", dec.col, derr)
		}
		metric := "colstore.decode_ns_per_row." + dec.col
		res.put(metric, "ns/row", ns/rows)
		probeCheck(res, metric, n, d.n)
	}
	return nil
}

// probeSlice is how many values each codec probe encodes and decodes.
const probeSlice = 1 << 16

// probeCodecs times every encoding's decoder (and all the encoders
// together) and both page compressors, over slices of the events
// columns each encoding suits.
func probeCodecs(res *runResult, st *scanTable, reps int) {
	d := st.data
	n := min(probeSlice, d.n)
	ints := func(col string) []int64 { return d.col(col).ints[:n] }
	strs := func(col string) [][]byte { return d.col(col).strs[:n] }
	// region as integers: the run structure RLE and the hybrid dictionary
	// are built for.
	regionID := map[string]int64{}
	regionInts := make([]int64, n)
	for i, s := range strs("region") {
		id, ok := regionID[string(s)]
		if !ok {
			id = int64(len(regionID))
			regionID[string(s)] = id
		}
		regionInts[i] = id
	}

	var enc encodeTotals
	intCodec := func(kind encoding.Kind) (func([]int64) ([]byte, error), func([]byte) ([]int64, error)) {
		c, err := encoding.IntCodecFor(kind)
		if err != nil {
			panic(err) // a kind the encoding package itself lists for integers
		}
		return c.Encode, c.Decode
	}
	strCodec := func(kind encoding.Kind) (func([][]byte) ([]byte, error), func([]byte) ([][]byte, error)) {
		c, err := encoding.StringCodecFor(kind)
		if err != nil {
			panic(err)
		}
		return c.Encode, func(buf []byte) ([][]byte, error) { return c.Decode(nil, buf) }
	}
	intProbe := func(name string, kind encoding.Kind, vals []int64) {
		e, d := intCodec(kind)
		codecProbe(res, &enc, reps, name, vals, float64(8*len(vals)), e, d, slices.Equal[[]int64])
	}
	strProbe := func(name string, kind encoding.Kind, vals [][]byte) {
		e, d := strCodec(kind)
		plain := 0
		for _, v := range vals {
			plain += 4 + len(v)
		}
		codecProbe(res, &enc, reps, name, vals, float64(plain), e, d,
			func(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) })
	}
	intProbe("plain", encoding.KindPlain, ints("user"))
	intProbe("bit_packed", encoding.KindBitPacked, ints("user"))
	intProbe("rle", encoding.KindRLE, regionInts)
	intProbe("delta", encoding.KindDelta, ints("ts"))
	intProbe("bit_vector", encoding.KindBitVector, ints("level"))
	strProbe("dictionary", encoding.KindDict, strs("status"))
	strProbe("dictionary_rle", encoding.KindDictRLE, strs("region"))
	strProbe("delta_length", encoding.KindDeltaLength, strs("url"))
	floats := d.col("latency").floats[:n]
	codecProbe(res, &enc, reps, "xor_float", floats, float64(8*len(floats)),
		encoding.XorFloat{}.Encode, encoding.XorFloat{}.Decode, slices.Equal[[]float64])
	res.put("encoding.encode_mb_per_s", "MB/s", enc.plainBytes/1e6/(enc.ns/1e9))

	// Page compressors, over plain-encoded url text.
	text, _ := encoding.PlainString{}.Encode(strs("url"))
	for _, name := range []string{"snappy", "gzip"} {
		comp, err := xcompress.For(name)
		if err != nil {
			probeCheck(res, name, err, nil)
			continue
		}
		packed, err := comp.Compress(text)
		if err != nil {
			probeCheck(res, name, err, nil)
			continue
		}
		var out []byte
		dst := make([]byte, 0, len(text))
		ns := timeReps(reps, func() { out, _ = comp.DecompressInto(dst, packed) })
		res.put("xcompress.decompress_mb_per_s."+name, "MB/s", float64(len(text))/1e6/(ns/1e9))
		probeCheck(res, "xcompress "+name, bytes.Equal(out, text), true)
	}
}

// encodeTotals accumulates what encoding.encode_mb_per_s is computed
// from across the codec probes.
type encodeTotals struct{ plainBytes, ns float64 }

// codecProbe times one codec's encoder and decoder over vals (plain
// bytes of plain-encoded input), reports the decode cost per value and
// checks the round trip.
func codecProbe[T any](res *runResult, enc *encodeTotals, reps int, name string, vals []T, plain float64,
	encode func([]T) ([]byte, error), decode func([]byte) ([]T, error), equal func(a, b []T) bool) {
	var buf []byte
	enc.ns += timeReps(reps, func() { buf, _ = encode(vals) })
	enc.plainBytes += plain
	var out []T
	ns := timeReps(reps, func() { out, _ = decode(buf) })
	res.put("encoding.decode_ns_per_value."+name, "ns/value", ns/float64(len(vals)))
	// An encode or decode error leaves out short: the round trip fails.
	probeCheck(res, "encoding "+name, equal(out, vals), true)
}

// probeExec times the morsel scheduler alone: ParallelMorsels over
// morsels whose body does nothing.
func probeExec(cfg runConfig, res *runResult, reps int) {
	const morsels = 4096
	pool := exec.NewPool(cfg.p)
	var ran int
	ns := timeReps(reps, func() {
		states, _ := exec.ParallelMorsels(context.Background(), pool, morsels,
			func(int) *int { return new(int) },
			func(_ context.Context, s *int, _ int) error { *s++; return nil })
		ran = 0
		for _, s := range states {
			if s != nil {
				ran += *s
			}
		}
	})
	res.put("exec.morsel_overhead_ns", "ns", ns/morsels)
	probeCheck(res, "exec.morsel_overhead_ns", ran, morsels)
}

// probeSelector times feature extraction and encoding selection on the
// ingest columns (what every flush pays per column) and reports how far
// the size chosen from the candidate set is from the best any
// implemented encoding achieves.
func probeSelector(cfg runConfig, res *runResult) {
	d, _ := genLogs(cfg.seed, min(cfg.scale.ingestRows, 1<<14), cfg.p)
	var extractNS, selectNS, chosen, best float64
	var ncols int
	// column runs the three steps for one column: extract features,
	// select among the candidates, and size every implemented encoding.
	column := func(name string, extract func(), pick func() (int, error), all func() (map[encoding.Kind]int, error)) {
		t0 := time.Now()
		extract()
		extractNS += float64(time.Since(t0).Nanoseconds())
		t0 = time.Now()
		size, err := pick()
		selectNS += float64(time.Since(t0).Nanoseconds())
		sizes, err2 := all()
		if err != nil || err2 != nil {
			probeCheck(res, "selector "+name, fmt.Sprint(err, err2), nil)
			return
		}
		smallest := size
		for _, s := range sizes {
			smallest = min(smallest, s)
		}
		chosen += float64(size)
		best += float64(smallest)
		ncols++
	}
	for _, c := range d.cols {
		c := c
		switch {
		case c.ints != nil:
			column(c.name, func() { features.ExtractInts(c.ints) },
				func() (int, error) { _, size, err := selector.BestInt(c.ints); return size, err },
				func() (map[encoding.Kind]int, error) { return selector.SizesInt(c.ints, encoding.AllIntKinds()) })
		case c.strs != nil:
			column(c.name, func() { features.ExtractStrings(c.strs) },
				func() (int, error) { _, size, err := selector.BestString(c.strs); return size, err },
				func() (map[encoding.Kind]int, error) { return selector.SizesString(c.strs, encoding.AllStringKinds()) })
		}
	}
	res.put("features.extract_ms_per_col", "ms", extractNS/1e6/float64(max(ncols, 1)))
	res.put("selector.select_ms_per_col", "ms", selectNS/1e6/float64(max(ncols, 1)))
	res.put("selector.size_over_best", "ratio", ratio(chosen, best))
}

// probePipeline times the same range predicate the w20 range kernel
// probe scans, one level up (page fetch + checksum + kernel) and two
// levels up (Count() through the root API on one worker), reports the
// overhead of each level over the one below, and times one 16-member
// shared wave.
func probePipeline(res *runResult, r *colstore.Reader, st *scanTable, reps int) error {
	d, k := st.data, st.consts
	rows := float64(d.n)
	lo, hi := k.userLo, k.userLo+1<<16
	rangePred := and(cmp("user", opGe, lo), cmp("user", opLt, hi))
	want := d.expect(template{term: tCount, pred: rangePred}).count

	ci, _, err := r.Column("user")
	if err != nil {
		return err
	}
	sc := arena.Get()
	defer arena.Put(sc)
	var hits int
	var perr error
	pageNS := timeReps(reps, func() {
		hits = 0
		var out *bitutil.Bitmap
		for rg := 0; rg < r.NumRowGroups(); rg++ {
			c := r.Chunk(rg, ci)
			for p := 0; p < c.NumPages(); p++ {
				pp, err := c.PackedPageAt(p, sc)
				if err != nil {
					perr = err
					return
				}
				out = cleared(out, pp.N)
				sboost.ScanPackedRangeInto(out, pp.Data, pp.Width, zig(lo), zig(hi-1))
				hits += out.Cardinality()
			}
		}
	})
	if perr != nil {
		return perr
	}
	probeCheck(res, "codecdb.page_ns_per_row", hits, want)

	q := st.tbl.Query(rangePred.engine()).WithExec(codecdb.ExecOptions{MaxWorkers: 1})
	var got int64
	var qerr error
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	queryNS := timeReps(reps, func() { got, qerr = q.Count() })
	runtime.ReadMemStats(&m1)
	if qerr != nil {
		return qerr
	}
	probeCheck(res, "codecdb.range_query_ns_per_row", got, want)

	kernel := res.Metrics["sboost.range_ns_per_row.w20"].Value
	res.put("codecdb.kernel_ns_per_row", "ns/row", kernel)
	res.put("codecdb.page_ns_per_row", "ns/row", pageNS/rows)
	res.put("codecdb.range_query_ns_per_row", "ns/row", queryNS/rows)
	res.put("codecdb.overhead_over_kernel_ns_per_row", "ns/row", queryNS/rows-kernel)
	res.put("codecdb.overhead_over_page_ns_per_row", "ns/row", (queryNS-pageNS)/rows)
	res.put("codecdb.allocs_per_query", "count", float64(m1.Mallocs-m0.Mallocs)/float64(reps))

	// One shared wave of 16 range counts over disjoint user ranges.
	const members = 16
	qs := make([]codecdb.WaveQuery, members)
	wants := make([]int64, members)
	for i := range qs {
		l, h := int64(i)<<15, int64(i+1)<<15
		p := and(cmp("user", opGe, l), cmp("user", opLt, h))
		qs[i] = codecdb.WaveQuery{Pred: p.engine(), Terminal: codecdb.TerminalCount}
		wants[i] = d.expect(template{term: tCount, pred: p}).count
	}
	var results []codecdb.WaveResult
	var werr error
	before := st.tbl.IOStats()
	waveNS := timeReps(reps, func() { results, werr = st.tbl.Wave(context.Background(), qs) })
	after := st.tbl.IOStats()
	if werr != nil {
		return werr
	}
	for i, wr := range results {
		if wr.Err != nil {
			return wr.Err
		}
		probeCheck(res, fmt.Sprintf("wave member %d", i), wr.Count, wants[i])
	}
	res.put("codecdb.wave16_ns_per_row_member", "ns/row", waveNS/rows/members)
	res.put("codecdb.wave16_pages_per_member", "count", float64(after.PagesRead-before.PagesRead)/float64(reps)/members)
	return nil
}
