package ops

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/sboost"
)

// This file is the binder: the one place a logical leaf meets a part's
// column. bind looks at the column's type, encoding, dictionary and chunk
// statistics and returns a boundLeaf — and everything downstream reads
// that and nothing else: the planner its estimate, the prefetcher its
// page schedule, the pipeline its kernel, Explain its name and detail
// lines. A bound leaf is the leaf's predicate translated into the domain
// the column's pages are stored in (packedPred: dictionary keys or zigzag
// values) or kept in the value domain (valueTest), plus the scan primitive
// that runs on the pages a metadata verdict leaves undecided:
//
//	leaf × encoding ──► verdict(page) + scan primitive
//	                      │
//	                      ├─► estimate   (price: verdict over every page)
//	                      ├─► schedule   (pages: the mixed ones)
//	                      ├─► kernel     (kernel.run: walk, verdict, scan)
//	                      └─► explain    (text)

// kernelKind names the scan primitive a bound leaf runs on mixed pages.
type kernelKind uint8

const (
	kernPacked  kernelKind = iota // SBoost scan over packed keys or zigzag values
	kernStreams                   // two packed key streams compared directly
	kernDecode                    // colstore decodes the kept rows, then test
)

// Cost weights per scan primitive: in-situ packed SWAR scans touch each
// byte once, key-set scans a little more, two-column scans touch two
// streams, delta pages decode through the delta decoder's fused block walk,
// and decode-first scans fully decode whatever the encoding.
const (
	costPacked = 1.0
	costKeySet = 1.2
	costTwoCol = 2.0
	costDelta  = 3.0
	costDecode = 6.0
)

// valueTest is a leaf's predicate in the value domain; the function for the
// column's type is set. The decode primitive applies it to every kept row
// of the pages it decodes.
type valueTest struct {
	ints   func(int64) bool
	strs   func([]byte) bool
	floats func(float64) bool
}

// packedPred is a leaf's predicate in a column's packed domain — dictionary
// keys, or zigzag(value) — where page zone maps and the SBoost kernels
// live: the key interval [lo, hi] (empty where lo > hi), its complement
// where not (which only <> asks for), or membership in a key set.
type packedPred struct {
	lo, hi uint64
	not    bool
	keys   []uint64 // sorted, distinct and not contiguous; nil for an interval
	// evens is the set's even keys — keys itself where it holds no odd one:
	// the keys a zigzag image takes on a chunk proven non-negative.
	evens []uint64
}

// dispose classifies a page from its packed-domain zone map. An interval
// gets full all/none resolution; a key set prunes when no member falls
// inside [Min, Max].
func (q *packedPred) dispose(st *colstore.PageStats) sboost.Disposition {
	switch {
	case st == nil:
		return sboost.DispMixed
	case q.keys == nil:
		return sboost.DisposeRange(q.lo, q.hi, st.Min, st.Max, q.not)
	}
	if i := sort.Search(len(q.keys), func(i int) bool { return q.keys[i] >= st.Min }); i == len(q.keys) || q.keys[i] > st.Max {
		return sboost.DispNone
	}
	return sboost.DispMixed
}

// fraction estimates the matching share of a page whose zone map straddles
// the predicate, assuming values spread uniformly over the keys of [Min,
// Max] — even keys only where evens is set: on a zigzag-packed chunk proven
// non-negative no value maps to an odd key. For a single key on a page that
// counts its distinct values, it assumes the key is one of them.
func (q *packedPred) fraction(st *colstore.PageStats, evens bool) float64 {
	count := func(lo, hi uint64) float64 { // keys in [lo, hi], lo <= hi
		if evens {
			return float64(hi/2 - (lo+1)/2 + 1)
		}
		return float64(hi-lo) + 1
	}
	span := count(st.Min, st.Max)
	if keys := q.keys; keys != nil {
		if evens {
			keys = q.evens
		}
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= st.Min })
		j := sort.Search(len(keys), func(i int) bool { return keys[i] > st.Max })
		return float64(j-i) / span
	}
	f := 0.0
	if lo, hi := max(q.lo, st.Min), min(q.hi, st.Max); lo <= hi {
		f = count(lo, hi) / span
	}
	if q.lo == q.hi && st.Distinct > 0 {
		f = 1 / float64(st.Distinct)
	}
	if q.not {
		return 1 - f
	}
	return f
}

// boundLeaf is a logical leaf bound to one part: the decision which kernel
// serves this leaf on this column, made once.
type boundLeaf struct {
	r      *colstore.Reader
	leaf   Filter
	ci, cj int // column indexes the kernel reads; cj < 0 unless Cols
	kern   kernelKind
	q      packedPred
	// table is q.keys as a lookup table, for a set larger than the SWAR
	// disjunction takes: built once, read by every worker.
	table []bool
	// zigzag: q lives in the zigzag domain of a plain integer column.
	// Zigzag is a bijection, so one value's key and key sets hold
	// everywhere; it is monotone only on non-negative values, so the image
	// of a wider value interval (order) holds on a chunk only when its
	// statistics prove Min >= 0 (inDomain). Elsewhere — and on delta pages,
	// which decode — the leaf runs test.
	zigzag, order bool
	op            sboost.Op // Cols: the comparison of the two key streams
	test          valueTest
	// empty and all are whole-part verdicts (e.g. equality on a value absent
	// from the dictionary): no row group is visited and no counter moves.
	empty, all bool
	// weight and guess parameterise estimate: the scan primitive's cost per
	// column byte, and the selectivity of a page metadata says nothing about.
	weight, guess float64
	// kernel names the physical operator ("DictFilter"); details renders the
	// plan choices made above, on demand: untraced queries never pay for the
	// formatting.
	kernel  string
	details func() []string
}

// text renders the display name — `DictFilter(status = "ERROR")` — and the
// detail lines.
func (b *boundLeaf) text() (name string, details []string) {
	return b.kernel + "(" + b.leaf.expr() + ")", b.details()
}

func newBound(r *colstore.Reader, leaf Filter, ci int) *boundLeaf {
	return &boundLeaf{r: r, leaf: leaf, ci: ci, cj: -1}
}

// inDomain reports whether q means on this chunk what the leaf means.
func (b *boundLeaf) inDomain(a *colstore.Chunk) bool {
	return !b.order || a.Stats().MinInt >= 0
}

// packed reports whether the leaf carries a packed-domain predicate q —
// dictionary keys or a zigzag image — for page zone maps to judge.
func (b *boundLeaf) packed() bool { return b.kern == kernPacked || b.zigzag }

// verdict classifies page p of the leaf's chunk(s) from metadata alone: the
// kernel scans exactly the pages it leaves mixed, so the estimate and the
// prefetch schedule derived from it cannot drift from the reads.
func (b *boundLeaf) verdict(a, bb *colstore.Chunk, p int) sboost.Disposition {
	switch {
	case b.kern == kernStreams:
		// Shared dictionary: both zone maps live in the same key domain, so
		// disjoint ranges resolve every row without reading either page.
		stA, stB := a.PageStatsOf(p), bb.PageStatsOf(p)
		if stA == nil || stB == nil {
			return sboost.DispMixed
		}
		return sboost.DisposeStreams(b.op, stA.Min, stA.Max, stB.Min, stB.Max)
	case !b.packed() || !b.inDomain(a):
		return sboost.DispMixed
	}
	return b.q.dispose(a.PageStatsOf(p))
}

// pages lists, per column, the pages of row group rg the unrestricted
// kernel will fetch — the prefetcher's schedule, derived from the verdict
// the kernel itself consults. It runs before any worker and touches no tap
// or counter.
func (b *boundLeaf) pages(rg int) []schedSet {
	if b.empty || b.all {
		return nil
	}
	a, bb := b.r.Chunk(rg, b.ci), b.second(rg)
	var pages []int
	for p := 0; p < a.NumPages(); p++ {
		if a.PageValues(p) > 0 && b.verdict(a, bb, p) == sboost.DispMixed {
			pages = append(pages, p)
		}
	}
	if bb != nil {
		return []schedSet{{col: b.ci, pages: pages}, {col: b.cj, pages: pages}}
	}
	return []schedSet{{col: b.ci, pages: pages}}
}

// estimate prices the leaf for the planner by walking the verdict over
// every page: pages metadata resolves count exactly, mixed pages by the
// predicate's share of the page's zone-map span — or by guess where the
// file carries no page statistics or the zone map is out of domain. Cost
// is the column bytes weighted by the scan primitive, charged for the
// share of pages whose verdict is mixed: those are the only pages the
// kernel reads, so a leaf metadata decides costs nothing. Any mixed page
// keeps Sel strictly inside (0, 1): the kernel will read it, so nothing is
// proven. Metadata only — no page is fetched.
func (b *boundLeaf) estimate() PredEstimate {
	est := PredEstimate{Sel: b.guess}
	if b.empty || b.all {
		est.Sel = 0
		if b.all {
			est.Sel = 1
		}
		return est
	}
	var rows, keep, mixed float64
	var pages, mixedPages int
	for rg := 0; rg < b.r.NumRowGroups(); rg++ {
		a, bb := b.r.Chunk(rg, b.ci), b.second(rg)
		for p := 0; p < a.NumPages(); p++ {
			n := float64(a.PageValues(p))
			if n == 0 {
				continue
			}
			rows += n
			pages++
			switch b.verdict(a, bb, p) {
			case sboost.DispAll:
				keep += n
			case sboost.DispMixed:
				f := b.guess
				if st := a.PageStatsOf(p); st != nil && b.packed() && b.inDomain(a) {
					f = b.q.fraction(st, b.zigzag && a.Stats().MinInt >= 0)
				}
				keep += n * f
				mixed += n
				mixedPages++
			}
		}
	}
	if rows > 0 {
		est.Sel = keep / rows
	}
	if mixed > 0 {
		est.Sel = min(max(est.Sel, 0.5/rows), 1-0.5/rows)
		bytes := float64(b.r.ColumnBytes(b.ci) + 1)
		if b.cj >= 0 {
			bytes += float64(b.r.ColumnBytes(b.cj) + 1)
		}
		est.Cost = b.weight * bytes * float64(mixedPages) / float64(pages)
	}
	return est
}

// constant is a Cmp/In operand normalised to its column type.
type constant struct {
	typ colstore.Type
	i   int64
	s   []byte
	f   float64
}

func constOf(v any) (constant, bool) {
	switch x := v.(type) {
	case int:
		return constant{typ: colstore.TypeInt64, i: int64(x)}, true
	case int64:
		return constant{typ: colstore.TypeInt64, i: x}, true
	case string:
		return constant{typ: colstore.TypeString, s: []byte(x)}, true
	case []byte:
		return constant{typ: colstore.TypeString, s: x}, true
	case float64:
		return constant{typ: colstore.TypeFloat64, f: x}, true
	}
	return constant{}, false
}

func (c constant) String() string {
	switch c.typ {
	case colstore.TypeInt64:
		return fmt.Sprint(c.i)
	case colstore.TypeString:
		return fmt.Sprintf("%q", c.s)
	}
	return fmt.Sprint(c.f)
}

// typeWord names a column type the way predicate errors do.
func typeWord(t colstore.Type) string {
	switch t {
	case colstore.TypeInt64:
		return "integer"
	case colstore.TypeString:
		return "string"
	}
	return "float"
}

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// deltaDecoder names what decodes a delta leaf's mixed pages in Explain.
const deltaDecoder = "encoding.DeltaInt (fused block walk per page)"

// zigzagPaged reports whether the column's pages carry zigzag zone maps —
// bit-packed integer columns, scanned in place, and delta ones, whose
// mixed pages decode — and the scan primitive's cost weight and display
// names for comparisons and key sets.
func zigzagPaged(col *colstore.Column) (kern kernelKind, weight float64, cmpName, inName string, ok bool) {
	if col.Type == colstore.TypeInt64 {
		switch col.Encoding {
		case encoding.KindBitPacked:
			return kernPacked, costPacked, "BitPackedFilter", "BitPackedInFilter", true
		case encoding.KindDelta:
			return kernDecode, costDelta, "DeltaFilter", "DeltaInFilter", true
		}
	}
	return 0, 0, "", "", false
}

// opGuess is the structural selectivity guess for a comparison nothing
// better is known about.
func opGuess(op sboost.Op, order float64) float64 {
	switch op {
	case sboost.OpEq:
		return 0.1
	case sboost.OpNe:
		return 0.9
	}
	return order
}

func (f *Cmp) expr() string {
	if c, ok := constOf(f.Value); ok {
		return fmt.Sprintf("%s %s %s", f.Col, f.Op, c)
	}
	return fmt.Sprintf("%s %s %v", f.Col, f.Op, f.Value)
}

func (f *Cmp) bind(r *colstore.Reader, resolve bool) (*boundLeaf, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return nil, err
	}
	c, ok := constOf(f.Value)
	if !ok {
		return nil, fmt.Errorf("ops: unsupported predicate value %T", f.Value)
	}
	if c.typ != col.Type {
		return nil, fmt.Errorf("ops: %s predicate on %v column %q", typeWord(c.typ), col.Type, f.Col)
	}
	if !resolve {
		return nil, nil
	}
	b := newBound(r, f, ci)
	if col.HasDict() {
		// §5.3: translate the constant to a key through the
		// order-preserving dictionary and scan the packed keys in place.
		lb, exact, dictLen, err := dictLowerBound(r, b.ci, col, c.i, c.s)
		if err != nil {
			return nil, err
		}
		b.keyRange(f.Op, uint64(lb), exact, dictLen)
		b.kernel, b.weight = "DictFilter", costPacked
		b.details = func() []string {
			switch {
			case b.all:
				return []string{fmt.Sprintf("dict rewrite: provably all rows (dict=%d entries, no scan)", dictLen)}
			case b.empty:
				return []string{fmt.Sprintf("dict rewrite: provably empty (dict=%d entries, no scan)", dictLen)}
			}
			return []string{
				fmt.Sprintf("dict rewrite: value %s %s → key %s (dict=%d entries, exact=%v)", f.Op, c, b.q.interval(uint64(dictLen-1)), dictLen, exact),
				"kernel=sboost.ScanPackedRangeIntoSel",
				"zone-maps=key-domain min/max per page",
			}
		}
		return b, nil
	}
	if kern, weight, name, _, ok := zigzagPaged(col); ok {
		// Entries and zone maps are zigzag-mapped: the comparison is a value
		// interval, scanned as its zigzag image (zigzagRange).
		b.kern, b.zigzag = kern, true
		b.zigzagRange(sboost.Interval(f.Op, c.i, math.MinInt64, math.MaxInt64))
		b.kernel, b.weight, b.guess = name, weight, opGuess(f.Op, 1.0/3)
		b.details = func() []string {
			return b.zigzagDetails(fmt.Sprintf("zigzag rewrite: value %s %d → packed %s", f.Op, c.i, b.q.interval(zigzag(math.MaxInt64))))
		}
		return b, nil
	}
	b.decodeFirst(col, cmpTest(f.Op, c))
	return b, nil
}

// keyRange binds the leaf to `v op x` over an order-preserving dictionary
// of dictLen entries as the key interval it keeps (rejects, for <>), from
// lb — the smallest key whose entry is >= x — and whether that entry is x
// exactly: an absent x keeps no key for =, rejects none for <>, and splits
// the keys at lb for the order comparisons. An interval keeping no key is
// empty, one keeping every key all, and the guess is the share of the
// dictionary it keeps.
func (b *boundLeaf) keyRange(op sboost.Op, lb uint64, exact bool, dictLen int) {
	if !exact {
		switch op {
		case sboost.OpLe:
			op = sboost.OpLt
		case sboost.OpGt:
			op = sboost.OpGe
		}
	}
	lo, hi, not := sboost.Interval(op, lb, 0, math.MaxUint64)
	if !exact && (op == sboost.OpEq || op == sboost.OpNe) {
		lo, hi = 1, 0 // no key holds x
	}
	b.q = packedPred{lo: lo, hi: hi, not: not}
	share := 0.0
	if top := uint64(dictLen) - 1; dictLen > 0 && lo <= min(hi, top) {
		share = float64(min(hi, top)-lo+1) / float64(dictLen)
	}
	if not {
		share = 1 - share
	}
	b.empty, b.all, b.guess = share == 0, share == 1, share
}

// zigzagRange binds the leaf to the value interval [vlo, vhi] of a
// zigzag-packed column — its complement where not, which only a single
// value takes: test is the interval in the value domain and q its zigzag
// image. A single value's image is its key, which holds on every chunk; a
// wider interval's is the image of its non-negative part, which holds on
// chunks proven non-negative alone (order).
func (b *boundLeaf) zigzagRange(vlo, vhi int64, not bool) {
	b.empty = vlo > vhi
	b.test.ints = func(v int64) bool { return (v >= vlo && v <= vhi) != not }
	switch {
	case vlo == vhi:
		b.q = packedPred{lo: zigzag(vlo), hi: zigzag(vlo), not: not}
	case vhi < 0:
		b.q, b.order = packedPred{lo: 1, hi: 0}, true
	default:
		b.q, b.order = packedPred{lo: zigzag(max(vlo, 0)), hi: zigzag(vhi)}, true
	}
}

// interval renders an interval q; an upper end at or past top, the
// largest key of the domain, is open unless the interval is one key.
func (q *packedPred) interval(top uint64) string {
	switch {
	case q.lo > q.hi:
		return "range empty"
	case q.not:
		return fmt.Sprintf("<> %d", q.lo)
	case q.hi >= top && q.lo < q.hi:
		return fmt.Sprintf("range [%d, max]", q.lo)
	}
	return fmt.Sprintf("range [%d, %d]", q.lo, q.hi)
}

// zigzagDetails renders a zigzag-bound comparison's plan choices after the
// rewrite line: where the image holds, and the kernel.
func (b *boundLeaf) zigzagDetails(rewrite string) []string {
	how, rest := "kernel=sboost.ScanPackedRangeIntoSel", "decode-and-test"
	if b.kern == kernDecode {
		how, rest = "kernel="+deltaDecoder+", then range test", "decode every page"
	}
	if b.order {
		in := 0
		for rg := 0; rg < b.r.NumRowGroups(); rg++ {
			if b.inDomain(b.r.Chunk(rg, b.ci)) {
				in++
			}
		}
		rewrite += fmt.Sprintf(" on %d of %d chunks with min >= 0, else %s", in, b.r.NumRowGroups(), rest)
	}
	return []string{rewrite, how, "zone-maps=zigzag-domain min/max per page"}
}

// rangeLeaf is comparisons on one column, from one conjunction, bound as a
// single range leaf: the planner makes it (fuseRanges), so one walk of the
// column's pages runs one range scan where each comparison would run its
// own.
type rangeLeaf []*Cmp

func (f rangeLeaf) expr() string {
	parts := make([]string, len(f))
	for i, c := range f {
		parts[i] = c.expr()
	}
	return strings.Join(parts, " AND ")
}

func (f rangeLeaf) bind(r *colstore.Reader, resolve bool) (*boundLeaf, error) {
	parts := make([]*boundLeaf, len(f))
	for i, c := range f {
		b, err := c.bind(r, resolve)
		if err != nil {
			return nil, err
		}
		parts[i] = b
	}
	if !resolve {
		return nil, nil
	}
	for _, b := range parts {
		if !fusable(b) || b.ci != parts[0].ci {
			return nil, fmt.Errorf("ops: %s does not bind as one range", f.expr())
		}
	}
	return fuse(parts), nil
}

// fusable reports whether a bound leaf is a comparison a range can absorb:
// an interval of the packed domain, of dictionary keys or zigzag values.
func fusable(b *boundLeaf) bool {
	_, ok := b.leaf.(*Cmp)
	return ok && !b.q.not && b.packed()
}

// fuseRanges binds the fusable comparisons of a conjunction that share a
// column as one range leaf, in the place of the first of them; the other
// conjuncts keep their nodes.
func fuseRanges(kids []*PlanNode) []*PlanNode {
	out := make([]*PlanNode, 0, len(kids))
	used := make([]bool, len(kids))
	for i, k := range kids {
		if used[i] {
			continue
		}
		if k.Pred.Kind != PredLeaf || !fusable(k.leaf) {
			out = append(out, k)
			continue
		}
		parts := []*boundLeaf{k.leaf}
		for j := i + 1; j < len(kids); j++ {
			o := kids[j]
			if o.Pred.Kind == PredLeaf && fusable(o.leaf) && o.leaf.ci == k.leaf.ci {
				parts, used[j] = append(parts, o.leaf), true
			}
		}
		if len(parts) == 1 {
			out = append(out, k)
			continue
		}
		b := fuse(parts)
		out = append(out, &PlanNode{Pred: LeafPred(b.leaf), Est: b.estimate(), leaf: b})
	}
	return out
}

// fuse binds fusable comparisons on one column as the range they intersect
// to. Dictionary key intervals intersect in the key domain; a zigzag
// column's value intervals intersect in the value domain and bind as a
// comparison does (zigzagRange).
func fuse(parts []*boundLeaf) *boundLeaf {
	first := parts[0]
	f := make(rangeLeaf, len(parts))
	b := newBound(first.r, f, first.ci)
	b.kern, b.zigzag, b.weight, b.kernel, b.guess = first.kern, first.zigzag, first.weight, first.kernel, 1
	for i, p := range parts {
		f[i] = p.leaf.(*Cmp)
		b.guess *= p.guess
	}
	if !b.zigzag {
		// A decided part's interval holds every key (all) or may still
		// hold keys past the dictionary's (empty): its verdict carries over.
		b.q.hi, b.all = math.MaxUint64, true
		for _, p := range parts {
			b.q.lo, b.q.hi = max(b.q.lo, p.q.lo), min(b.q.hi, p.q.hi)
			b.empty, b.all = b.empty || p.empty, b.all && p.all
		}
		b.empty = b.empty || b.q.lo > b.q.hi
		b.details = func() []string {
			switch {
			case b.empty:
				return []string{fmt.Sprintf("dict rewrite: %d conjuncts fused, no key in range: provably empty (no scan)", len(f))}
			case b.all:
				return []string{fmt.Sprintf("dict rewrite: %d conjuncts fused, every key in range: provably all rows (no scan)", len(f))}
			}
			return []string{
				fmt.Sprintf("dict rewrite: %d conjuncts fused into key %s, one walk", len(f), b.q.interval(math.MaxUint64)),
				"kernel=sboost.ScanPackedRangeIntoSel",
				"zone-maps=key-domain min/max per page",
			}
		}
		return b
	}
	vlo, vhi := int64(math.MinInt64), int64(math.MaxInt64)
	for _, c := range f {
		v, _ := constOf(c.Value)
		lo, hi, _ := sboost.Interval(c.Op, v.i, math.MinInt64, math.MaxInt64)
		vlo, vhi = max(vlo, lo), min(vhi, hi)
	}
	b.zigzagRange(vlo, vhi, false)
	b.details = func() []string {
		if b.empty {
			return []string{fmt.Sprintf("zigzag rewrite: %d conjuncts fused, value ranges disjoint: provably empty (no scan)", len(f))}
		}
		return b.zigzagDetails(fmt.Sprintf("zigzag rewrite: %d conjuncts fused into value range [%d, %d] → packed %s",
			len(f), vlo, vhi, b.q.interval(zigzag(math.MaxInt64))))
	}
	return b
}

// cmpTest is `v op c` in the value domain.
func cmpTest(op sboost.Op, c constant) valueTest {
	switch c.typ {
	case colstore.TypeInt64:
		return valueTest{ints: func(v int64) bool { return chunkMatch(v, op, c.i) }}
	case colstore.TypeString:
		return valueTest{strs: func(v []byte) bool { return chunkMatch(int64(bytes.Compare(v, c.s)), op, 0) }}
	}
	return valueTest{floats: func(v float64) bool {
		switch {
		case v < c.f:
			return chunkMatch(-1, op, 0)
		case v > c.f:
			return chunkMatch(1, op, 0)
		}
		return chunkMatch(0, op, 0)
	}}
}

// decodeFirst binds the leaf to the decode-first kernel. The kernel decodes
// through the dictionary where the column has one, so it is faulted here,
// inside the planner's IO window, not by whichever worker runs first.
func (b *boundLeaf) decodeFirst(col *colstore.Column, test valueTest) {
	b.kern, b.test = kernDecode, test
	faultDict(b.r, b.ci, col) // a failed load is the kernel's to report
	b.weight, b.guess = costDecode, 0.5
	switch col.Type {
	case colstore.TypeInt64:
		b.kernel = "IntPredicateFilter"
	case colstore.TypeString:
		b.kernel = "StrPredicateFilter"
	default:
		b.kernel = "FloatPredicateFilter"
	}
	b.details = func() []string { return []string{"decode-first: decode every selected row, test predicate"} }
}

// faultDict loads a dict-encoded column's dictionary into the reader's
// cache, so the read books into the caller's IO window.
func faultDict(r *colstore.Reader, ci int, c *colstore.Column) {
	if !c.HasDict() {
		return
	}
	switch c.Type {
	case colstore.TypeInt64:
		_, _ = r.IntDict(ci)
	case colstore.TypeString:
		_, _ = r.StrDict(ci)
	}
}

func (f *In) expr() string { return fmt.Sprintf("%s IN <%d values>", f.Col, len(f.Values)) }

func (f *In) bind(r *colstore.Reader, resolve bool) (*boundLeaf, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return nil, err
	}
	if len(f.Values) == 0 {
		return nil, fmt.Errorf("ops: IN on %s needs at least one value", f.Col)
	}
	if col.Type == colstore.TypeFloat64 {
		return nil, fmt.Errorf("ops: IN on %v column %s", col.Type, f.Col)
	}
	vals := make([]constant, len(f.Values))
	for i, v := range f.Values {
		c, ok := constOf(v)
		if !ok || c.typ == colstore.TypeFloat64 {
			return nil, fmt.Errorf("ops: unsupported IN value %T for column %s", v, f.Col)
		}
		if c.typ != col.Type {
			return nil, fmt.Errorf("ops: %s IN values for %s column %s", typeWord(c.typ), typeWord(col.Type), f.Col)
		}
		vals[i] = c
	}
	if !resolve {
		return nil, nil
	}
	b := newBound(r, f, ci)
	if col.HasDict() {
		// §5.3, e.g. l_shipmode IN ('MAIL','SHIP'): each value resolves to
		// its key, and the packed keys are scanned once for the set.
		var keys []uint64
		var dictLen int
		for _, c := range vals {
			lb, exact, n, err := dictLowerBound(r, b.ci, col, c.i, c.s)
			if err != nil {
				return nil, err
			}
			if dictLen = n; exact {
				keys = append(keys, uint64(lb))
			}
		}
		resolved := len(keys)
		b.kernel, b.weight, b.guess = "DictInFilter", costKeySet, float64(len(keys))/float64(max(dictLen, 1))
		b.keySet(sortedSet(keys), func() string {
			return fmt.Sprintf("dict rewrite: %d of %d IN values present as keys", resolved, len(vals))
		}, "key")
		return b, nil
	}
	test := valueTest{}
	if col.Type == colstore.TypeInt64 {
		set := make(map[int64]struct{}, len(vals))
		for _, c := range vals {
			set[c.i] = struct{}{}
		}
		test.ints = func(v int64) bool { _, ok := set[v]; return ok }
	} else {
		set := make(map[string]struct{}, len(vals))
		for _, c := range vals {
			set[string(c.s)] = struct{}{}
		}
		test.strs = func(v []byte) bool { _, ok := set[string(v)]; return ok }
	}
	if kern, weight, _, name, ok := zigzagPaged(col); ok {
		keys := make([]uint64, len(vals))
		for i, c := range vals {
			keys[i] = zigzag(c.i)
		}
		b.kern, b.zigzag, b.test = kern, true, test
		b.kernel, b.weight, b.guess = name, max(weight, costKeySet), min(0.1*float64(len(keys)), 0.9)
		b.keySet(sortedSet(keys), func() string {
			return fmt.Sprintf("zigzag rewrite: %d of %d IN values become a packed key set (zigzag is a bijection)", len(vals), len(vals))
		}, "zigzag")
		return b, nil
	}
	b.decodeFirst(col, test)
	return b, nil
}

// sortedSet sorts keys and drops repeats, in place.
func sortedSet(keys []uint64) []uint64 {
	slices.Sort(keys)
	return slices.Compact(keys)
}

// keySet binds the leaf to membership in keys, a sorted set of distinct
// packed-domain keys: a contiguous set is one interval; a set too large
// for the SWAR disjunction, of keys small enough, gets its lookup table.
// rewrite renders the detail line that says where the keys came from.
func (b *boundLeaf) keySet(keys []uint64, rewrite func() string, domain string) {
	switch last := len(keys) - 1; {
	case last < 0:
		b.empty = true
	case keys[last]-keys[0] == uint64(last):
		b.q = packedPred{lo: keys[0], hi: keys[last]}
	default:
		b.q = packedPred{keys: keys}
		if b.kern == kernPacked && last >= sboost.SWARKeys && keys[last] < maxTable {
			b.table = make([]bool, keys[last]+1)
			for _, k := range keys {
				b.table[k] = true
			}
		}
		if b.zigzag {
			b.q.evens = keys
			if slices.ContainsFunc(keys, func(k uint64) bool { return k%2 == 1 }) {
				b.q.evens = nil
				for _, k := range keys {
					if k%2 == 0 {
						b.q.evens = append(b.q.evens, k)
					}
				}
			}
		}
	}
	b.details = func() []string {
		var how string
		switch {
		case b.empty:
			how = "kernel=none (empty key set, provably empty)"
		case b.all:
			how = "kernel=none (every key in the set, provably all rows)"
		case b.kern == kernDecode:
			how = "kernel=" + b.decoder() + ", then set test"
		case b.q.keys == nil:
			how = fmt.Sprintf("kernel=sboost.ScanPackedRangeIntoSel (%d contiguous keys)", len(keys))
		case b.table != nil:
			how = fmt.Sprintf("kernel=sboost.ScanPackedInIntoSel (lookup table, %d keys)", len(keys))
		case len(keys) <= sboost.SWARKeys:
			how = fmt.Sprintf("kernel=sboost.ScanPackedInIntoSel (SWAR disjunction, %d keys)", len(keys))
		default:
			how = fmt.Sprintf("kernel=sboost.ScanPackedInIntoSel (binary search, %d keys)", len(keys))
		}
		return []string{rewrite(), how, "zone-maps=" + domain + "-domain per page (prune when no key in [min,max])"}
	}
}

// decoder names what decodes a decode-primitive leaf's mixed pages in
// Explain.
func (b *boundLeaf) decoder() string {
	if b.r.Schema().Columns[b.ci].Encoding == encoding.KindDelta {
		return deltaDecoder
	}
	return "colstore page decode"
}

// maxTable bounds a key set's lookup table: a set with a larger key is
// searched instead.
const maxTable = 1 << 24

func (f *Match) expr() string {
	if f.Str != nil {
		return f.Col + " LIKE ..."
	}
	return f.Col
}

func (f *Match) bind(r *colstore.Reader, resolve bool) (*boundLeaf, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return nil, err
	}
	test, err := matchTest(col, f.Int, f.Str, f.Float)
	if err != nil || !resolve {
		return nil, err
	}
	b := newBound(r, f, ci)
	if !col.HasDict() {
		b.decodeFirst(col, test)
		return b, nil
	}
	// The LIKE rewrite of §5.3, generalised to computed predicates: evaluate
	// once per dictionary entry, scan the packed keys for the matches.
	var keys []uint64
	var dictLen int
	b.kernel = "DictLikeFilter"
	if col.Type == colstore.TypeInt64 {
		b.kernel = "DictIntPredFilter"
		dict, err := r.IntDict(b.ci)
		if err != nil {
			return nil, err
		}
		keys, dictLen = matching(dict, test.ints), len(dict)
	} else {
		dict, err := r.StrDict(b.ci)
		if err != nil {
			return nil, err
		}
		keys, dictLen = matching(dict, test.strs), len(dict)
	}
	b.weight, b.guess = costKeySet, float64(len(keys))/float64(max(dictLen, 1))
	b.keySet(keys, func() string {
		return fmt.Sprintf("predicate rewrite: evaluated per dictionary entry, %d of %d match and become a key set", len(keys), dictLen)
	}, "key")
	return b, nil
}

// matching lists the keys of the dictionary entries test keeps.
func matching[T any](dict []T, test func(T) bool) (keys []uint64) {
	for k, e := range dict {
		if test(e) {
			keys = append(keys, uint64(k))
		}
	}
	return keys
}

// matchTest picks the function for the column's type.
func matchTest(col *colstore.Column, ints func(int64) bool, strs func([]byte) bool, floats func(float64) bool) (valueTest, error) {
	var t valueTest
	switch col.Type {
	case colstore.TypeInt64:
		t.ints = ints
	case colstore.TypeString:
		t.strs = strs
	default:
		t.floats = floats
	}
	switch {
	case t.ints != nil || t.strs != nil || t.floats != nil:
		return t, nil
	case ints == nil && strs == nil && floats == nil:
		return t, fmt.Errorf("ops: match on %s needs a non-nil match function", col.Name)
	case strs != nil:
		return t, fmt.Errorf("ops: LIKE / string match needs a string column; %s is %v", col.Name, col.Type)
	}
	return t, fmt.Errorf("ops: match function does not fit %v column %s", col.Type, col.Name)
}

func (f *Decode) expr() string { return f.Col }

func (f *Decode) bind(r *colstore.Reader, resolve bool) (*boundLeaf, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return nil, err
	}
	test, err := matchTest(col, f.Int, f.Str, f.Float)
	if err != nil || !resolve {
		return nil, err
	}
	b := newBound(r, f, ci)
	b.decodeFirst(col, test)
	return b, nil
}

func (f *KeySet) expr() string { return fmt.Sprintf("%s IN <join %s>", f.Col, f.Join) }

func (f *KeySet) bind(r *colstore.Reader, resolve bool) (*boundLeaf, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return nil, err
	}
	switch {
	case f.Codes && !col.HasDict():
		return nil, fmt.Errorf("ops: join %s tests the dictionary codes of %s, which has none", f.Join, f.Col)
	case f.Codes || col.Type == colstore.TypeInt64:
		if f.Table == nil {
			return nil, fmt.Errorf("ops: join %s has no int key table for %s", f.Join, f.Col)
		}
	case col.Type != colstore.TypeString || f.Strs == nil:
		return nil, fmt.Errorf("ops: join %s's keys do not fit %v column %s", f.Join, col.Type, f.Col)
	}
	if !resolve {
		return nil, nil
	}
	b := newBound(r, f, ci)
	var test valueTest
	if col.Type == colstore.TypeString && !f.Codes {
		test.strs = func(v []byte) bool { _, ok := f.Strs[string(v)]; return ok }
		b.empty = len(f.Strs) == 0
	} else {
		test.ints = f.Table.Contains
		b.empty = f.Table.Len() == 0
	}
	switch kern, weight, _, name, zz := zigzagPaged(col); {
	case f.Codes:
		// The keys are the codes: no dictionary entry is read.
		var keys []uint64
		for _, k := range f.Table.DistinctKeys() {
			if k >= 0 {
				keys = append(keys, uint64(k))
			}
		}
		b.kernel, b.weight, b.guess = "DictInFilter", costKeySet, 0.5
		b.keySet(keys, func() string {
			return fmt.Sprintf("join rewrite: %d build keys are dictionary codes", len(keys))
		}, "key")
	case col.HasDict():
		// One pass over the dictionary: the codes whose entry is a build key.
		var keys []uint64
		var dictLen int
		if test.ints != nil {
			dict, err := r.IntDict(ci)
			if err != nil {
				return nil, err
			}
			keys, dictLen = matching(dict, test.ints), len(dict)
		} else {
			dict, err := r.StrDict(ci)
			if err != nil {
				return nil, err
			}
			keys, dictLen = matching(dict, test.strs), len(dict)
		}
		b.kernel, b.weight, b.guess = "DictInFilter", costKeySet, float64(len(keys))/float64(max(dictLen, 1))
		b.keySet(keys, func() string {
			return fmt.Sprintf("join rewrite: %d of %d dictionary entries are build keys", len(keys), dictLen)
		}, "key")
		b.all = len(keys) == dictLen && !b.empty
	case zz:
		// The build keys come off the table in order, and their zigzag
		// images are scanned in place (bit-packed) or bound the zone maps of
		// pages that decode (delta). A set past the lookup table's reach
		// decodes too, testing each value against the table in O(1) rather
		// than searching the keys.
		keys := zigzagKeys(f.Table.DistinctKeys())
		if kern == kernPacked && len(keys) > sboost.SWARKeys && keys[len(keys)-1] >= maxTable {
			kern = kernDecode
		}
		b.kern, b.zigzag, b.test = kern, true, test
		b.kernel, b.weight, b.guess = name, max(weight, costKeySet), 0.5
		b.keySet(keys, func() string {
			return fmt.Sprintf("join rewrite: %d distinct build keys become a packed key set (zigzag is a bijection)", len(keys))
		}, "zigzag")
	default:
		b.decodeFirst(col, test)
		b.details = func() []string {
			if b.empty {
				return []string{"join rewrite: empty build side, provably empty (no scan)"}
			}
			return []string{"join rewrite: decode every selected row, test it against the build keys in O(1)",
				"kernel=" + b.decoder() + ", then set test"}
		}
	}
	return b, nil
}

// zigzagKeys maps ascending distinct int keys to their zigzag images,
// ascending. A negative key v maps to 2|v|−1 and a non-negative one to 2v,
// so the images of the negative keys, read from the largest down, merge
// with those of the rest in one pass: no sort.
func zigzagKeys(keys []int64) []uint64 {
	out := make([]uint64, 0, len(keys))
	p, _ := slices.BinarySearch(keys, 0)
	for i, j := p-1, p; i >= 0 || j < len(keys); {
		if j == len(keys) || (i >= 0 && zigzag(keys[i]) < zigzag(keys[j])) {
			out, i = append(out, zigzag(keys[i])), i-1
		} else {
			out, j = append(out, zigzag(keys[j])), j+1
		}
	}
	return out
}

func (f *Cols) expr() string { return fmt.Sprintf("%s %s %s", f.A, f.Op, f.B) }

func (f *Cols) bind(r *colstore.Reader, resolve bool) (*boundLeaf, error) {
	ci, _, err := r.Column(f.A)
	if err != nil {
		return nil, err
	}
	b := newBound(r, f, ci)
	if b.cj, _, err = r.Column(f.B); err != nil {
		return nil, err
	}
	if !r.SharedDict(b.ci, b.cj) {
		return nil, fmt.Errorf("ops: %s and %s do not share a dictionary (load both with the same DictGroup)", f.A, f.B)
	}
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		if a, bb := b.r.Chunk(rg, b.ci), b.second(rg); a.NumPages() != bb.NumPages() {
			return nil, fmt.Errorf("ops: page layout mismatch between %s and %s", f.A, f.B)
		}
	}
	b.kern, b.op = kernStreams, f.Op
	b.kernel, b.weight, b.guess = "TwoColumnFilter", costTwoCol, opGuess(f.Op, 0.5)
	b.details = func() []string {
		return []string{
			"two-column compare: shared order-preserving dictionary, packed key streams compared directly",
			"kernel=sboost.CompareStreamsIntoSel",
			"zone-maps=key-domain, both pages (disjoint ranges resolve without a read)",
		}
	}
	return b, nil
}

// dictLowerBound resolves the predicate value against the column's global
// dictionary: the smallest key whose entry is >= value, and whether the
// value is present exactly.
func dictLowerBound(r *colstore.Reader, ci int, col *colstore.Column, iv int64, sv []byte) (lb int64, exact bool, dictLen int, err error) {
	switch col.Type {
	case colstore.TypeInt64:
		dict, err := r.IntDict(ci)
		if err != nil {
			return 0, false, 0, err
		}
		lb = lowerBoundInt(dict, iv)
		exact = lb < int64(len(dict)) && dict[lb] == iv
		return lb, exact, len(dict), nil
	case colstore.TypeString:
		dict, err := r.StrDict(ci)
		if err != nil {
			return 0, false, 0, err
		}
		lb = lowerBoundStr(dict, sv)
		exact = lb < int64(len(dict)) && bytes.Equal(dict[lb], sv)
		return lb, exact, len(dict), nil
	}
	return 0, false, 0, fmt.Errorf("ops: dictionary filter on %v column", col.Type)
}

func lowerBoundInt(dict []int64, v int64) int64 {
	return int64(sort.Search(len(dict), func(i int) bool { return dict[i] >= v }))
}

func lowerBoundStr(dict [][]byte, v []byte) int64 {
	return int64(sort.Search(len(dict), func(i int) bool { return bytes.Compare(dict[i], v) >= 0 }))
}
