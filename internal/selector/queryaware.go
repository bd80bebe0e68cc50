package selector

import (
	"math"

	"codecdb/internal/encoding"
	"codecdb/internal/features"
)

// QueryAware extends the compression-driven selector with the paper's
// stated future work (§8: "expanding CodecDB to support query-aware
// encoding selection"): when a column is expected to carry predicates,
// the selector trades a little compression for an encoding the query
// engine can scan in place.
//
// The mechanism is a scan-cost model layered on the ranking model's
// predicted compression ratios. Dictionary encoding admits in-situ
// key-domain scans (the fastest filter path), bit-packing admits in-situ
// scans on non-negative data, delta forces a page decode before comparing, and
// RLE forces full expansion. Each candidate's predicted ratio is divided
// by a scan-efficiency factor weighted by how predicate-heavy the column
// is, and the best adjusted score wins.
type QueryAware struct {
	// Base is the trained compression-ratio ranking model.
	Base *Learned
	// PredicateWeight in [0, 1] expresses how often the column is
	// filtered: 0 reduces to pure compression ranking, 1 ranks almost
	// entirely by scan efficiency.
	PredicateWeight float64
}

// scanEfficiency scores how cheaply the query engine filters each
// encoding, on (0, 1]: 1 means in-situ SWAR scanning, lower means decode
// work proportional to the column before any comparison happens.
func scanEfficiency(k encoding.Kind) float64 {
	switch k {
	case encoding.KindDict, encoding.KindDictRLE:
		return 1.0 // predicate rewriting + packed-key scan (§5.3)
	case encoding.KindBitPacked:
		return 0.8 // in-situ scan, but no dictionary pre-filtering of LIKE/IN
	case encoding.KindDelta:
		return 0.4 // page decode (fused block walk) before comparing
	case encoding.KindRLE:
		return 0.5 // run-level evaluation possible but not vectorised
	default:
		return 0.6 // plain: bulk decode, no per-row transform
	}
}

// SelectInt picks an encoding for an integer column balancing predicted
// compression against scan cost.
func (q *QueryAware) SelectInt(vals []int64) encoding.Kind {
	v := features.ExtractInts(vals)
	return q.pick(q.Base.intScores(v), encoding.IntCandidates())
}

// SelectString picks an encoding for a string column.
func (q *QueryAware) SelectString(vals [][]byte) encoding.Kind {
	v := features.ExtractStrings(vals)
	return q.pick(q.Base.strScores(v), encoding.StringCandidates())
}

// pick minimises ratio / efficiency^w — equivalently, log ratio minus
// w·log efficiency — so w=0 is pure compression and w=1 weighs a 2x scan
// advantage like a 2x size advantage.
func (q *QueryAware) pick(scores []float64, kinds []encoding.Kind) encoding.Kind {
	w := q.PredicateWeight
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	best := 0
	bestScore := adjusted(scores[0], kinds[0], w)
	for i := 1; i < len(kinds); i++ {
		if s := adjusted(scores[i], kinds[i], w); s < bestScore {
			best, bestScore = i, s
		}
	}
	return kinds[best]
}

func adjusted(ratio float64, k encoding.Kind, w float64) float64 {
	return ratio / math.Pow(scanEfficiency(k), w)
}

// intScores exposes the raw per-candidate predicted ratios for integer
// columns, aligned with encoding.IntCandidates().
func (l *Learned) intScores(v features.Vector) []float64 {
	if l.intNet == nil {
		return defaultScores(len(encoding.IntCandidates()))
	}
	x := normalise(applyMask(v.Slice(), l.Mask), l.intMean, l.intStd)
	return l.intNet.Forward(x)
}

// strScores exposes the raw per-candidate predicted ratios for string
// columns, aligned with encoding.StringCandidates().
func (l *Learned) strScores(v features.Vector) []float64 {
	if l.strNet == nil {
		return defaultScores(len(encoding.StringCandidates()))
	}
	x := normalise(applyMask(v.Slice(), l.Mask), l.strMean, l.strStd)
	return l.strNet.Forward(x)
}

func defaultScores(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.5
	}
	return out
}
