package ops

import (
	"bytes"
	"fmt"

	"codecdb/internal/colstore"
	"codecdb/internal/obs"
)

// This file is the descriptive half of EXPLAIN for the operator layer:
// filter names, the static plan choices each filter will make, and the
// IO-delta helper the traced pipeline attributes reader counters to spans
// with.

// FilterName returns a short operator label for a filter, e.g.
// "DictFilter(shipdate < 40)".
func FilterName(f Filter) string {
	switch f := f.(type) {
	case *DictFilter:
		if f.StrValue != nil {
			return fmt.Sprintf("DictFilter(%s %s %q)", f.Col, f.Op, f.StrValue)
		}
		return fmt.Sprintf("DictFilter(%s %s %d)", f.Col, f.Op, f.IntValue)
	case *DictInFilter:
		n := len(f.IntValues)
		if n == 0 {
			n = len(f.StrValues)
		}
		return fmt.Sprintf("DictInFilter(%s IN <%d values>)", f.Col, n)
	case *DictLikeFilter:
		return fmt.Sprintf("DictLikeFilter(%s LIKE ...)", f.Col)
	case *DictIntPredFilter:
		return fmt.Sprintf("DictIntPredFilter(%s)", f.Col)
	case *BitPackedFilter:
		return fmt.Sprintf("BitPackedFilter(%s %s %d)", f.Col, f.Op, f.Value)
	case *DeltaFilter:
		return fmt.Sprintf("DeltaFilter(%s %s %d)", f.Col, f.Op, f.Value)
	case *TwoColumnFilter:
		return fmt.Sprintf("TwoColumnFilter(%s %s %s)", f.ColA, f.Op, f.ColB)
	case *IntPredicateFilter:
		return fmt.Sprintf("IntPredicateFilter(%s)", f.Col)
	case *StrPredicateFilter:
		return fmt.Sprintf("StrPredicateFilter(%s)", f.Col)
	case *FloatPredicateFilter:
		return fmt.Sprintf("FloatPredicateFilter(%s)", f.Col)
	default:
		return fmt.Sprintf("%T", f)
	}
}

// DescribeFilter reports the plan choices the filter will make against r:
// dictionary predicate rewrites (including provably-empty/all outcomes),
// the SBoost kernel selected, and whether zone maps can dispose pages.
// It re-runs the same decision procedures prepare uses, without touching
// any packed data.
func DescribeFilter(f Filter, r *colstore.Reader) []string {
	switch f := f.(type) {
	case *DictFilter:
		ci, col, err := r.Column(f.Col)
		if err != nil {
			return []string{"error: " + err.Error()}
		}
		lb, exact, dictLen, err := dictLowerBound(r, ci, col, f.IntValue, f.StrValue)
		if err != nil {
			return []string{"error: " + err.Error()}
		}
		op, match, all := rewriteDictPredicate(f.Op, lb, exact, dictLen)
		switch {
		case all:
			return []string{fmt.Sprintf("dict rewrite: provably all rows (dict=%d entries, no scan)", dictLen)}
		case !match:
			return []string{fmt.Sprintf("dict rewrite: provably empty (dict=%d entries, no scan)", dictLen)}
		}
		return []string{
			fmt.Sprintf("dict rewrite: value %s → key %s %d (dict=%d entries, exact=%v)", f.Op, op, lb, dictLen, exact),
			"kernel=sboost.ScanPacked",
			"zone-maps=key-domain min/max per page",
		}
	case *DictInFilter:
		keys, err := describeResolveIn(f, r)
		if err != nil {
			return []string{"error: " + err.Error()}
		}
		return append([]string{fmt.Sprintf("dict rewrite: %d of %d IN values present as keys",
			keys, len(f.IntValues)+len(f.StrValues))}, describeKeysIn(keys)...)
	case *DictLikeFilter:
		return []string{
			"LIKE rewrite: pattern evaluated per dictionary entry, matches become an IN key set",
			"zone-maps=key-domain per page (prune when no key in [min,max])",
		}
	case *DictIntPredFilter:
		return []string{
			"predicate rewrite: evaluated per dictionary entry, matches become an IN key set",
			"zone-maps=key-domain per page (prune when no key in [min,max])",
		}
	case *BitPackedFilter:
		zz := func(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
		op, target, match, all := rewriteZigzagPredicate(f.Op, f.Value, zz)
		switch {
		case all:
			return []string{"zigzag rewrite: provably all rows (negative target, no scan)"}
		case !match:
			return []string{"zigzag rewrite: provably empty (negative target, no scan)"}
		}
		return []string{
			fmt.Sprintf("zigzag rewrite: value %s %d → packed %s %d (in-situ on chunks with min >= 0, else decode-and-test)",
				f.Op, f.Value, op, target),
			"kernel=sboost.ScanPacked",
			"zone-maps=zigzag-domain min/max per page",
		}
	case *DeltaFilter:
		return []string{
			fmt.Sprintf("delta scan: SWAR cumulative-sum reconstruct, compare %s %d", f.Op, f.Value),
			"kernel=sboost.CumSum",
		}
	case *TwoColumnFilter:
		return []string{
			"two-column compare: shared order-preserving dictionary, packed key streams compared directly",
			"kernel=sboost.CompareStreams",
		}
	case *IntPredicateFilter, *StrPredicateFilter, *FloatPredicateFilter:
		return []string{"encoding-oblivious: decode every row, test predicate"}
	default:
		return nil
	}
}

// describeResolveIn counts how many IN values resolve to dictionary keys,
// mirroring DictInFilter.prepare's resolution.
func describeResolveIn(f *DictInFilter, r *colstore.Reader) (int, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return 0, err
	}
	n := 0
	switch col.Type {
	case colstore.TypeInt64:
		dict, err := r.IntDict(ci)
		if err != nil {
			return 0, err
		}
		for _, v := range f.IntValues {
			lb := lowerBoundInt(dict, v)
			if lb < int64(len(dict)) && dict[lb] == v {
				n++
			}
		}
	case colstore.TypeString:
		dict, err := r.StrDict(ci)
		if err != nil {
			return 0, err
		}
		for _, v := range f.StrValues {
			lb := lowerBoundStr(dict, v)
			if lb < int64(len(dict)) && bytes.Equal(dict[lb], v) {
				n++
			}
		}
	}
	return n, nil
}

// describeKeysIn names the scan strategy prepareKeysIn will pick for a key
// set of the given size (the contiguity and width checks are data-
// dependent, so the description covers the candidates).
func describeKeysIn(keys int) []string {
	switch {
	case keys == 0:
		return []string{"kernel=none (empty key set, provably empty)"}
	case keys <= swarInThreshold:
		return []string{fmt.Sprintf("kernel=sboost.ScanPackedRange if keys contiguous, else ScanPackedIn (SWAR disjunction, %d keys)", keys)}
	default:
		return []string{fmt.Sprintf("kernel=sboost.ScanPackedRange if keys contiguous, else lookup table (%d keys; ScanPackedIn above width 24)", keys)}
	}
}

// IODelta converts a before/after pair of reader snapshots into span IO.
func IODelta(before, after colstore.IOStats) obs.SpanIO {
	return obs.SpanIO{
		PagesRead:         after.PagesRead - before.PagesRead,
		PagesPruned:       after.PagesPruned - before.PagesPruned,
		PagesSkipped:      after.PagesSkipped - before.PagesSkipped,
		BytesRead:         after.BytesRead - before.BytesRead,
		BytesDecompressed: after.BytesDecompressed - before.BytesDecompressed,
	}
}
