package codecdb

// Benchmark harness: one benchmark per paper table/figure (see DESIGN.md
// for the experiment index). The benchmarks reuse the entry points in
// internal/experiments, so `go test -bench .` regenerates the numbers the
// same way `cmd/expt` does. Scale factors are kept small so the full
// suite runs in minutes; pass -sf via cmd/expt for larger runs.

import (
	"fmt"
	"sync"
	"testing"

	"codecdb/internal/corpus"
	"codecdb/internal/encoding"
	"codecdb/internal/experiments"
	"codecdb/internal/sboost"
	"codecdb/internal/selector"
	"codecdb/internal/ssb"
	"codecdb/internal/tpch"
	"codecdb/internal/xcompress"

	"codecdb/internal/bitutil"
)

var benchCorpus = experiments.CorpusConfig{Seed: 42, Rows: 2000, PerCat: 8}

// ---- Figure 1a ----

func BenchmarkFig1aCompressionRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig1a(benchCorpus)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("int ratios %v", rep.IntR)
		}
	}
}

// ---- Figure 1b ----

func BenchmarkFig1bThroughput(b *testing.B) {
	addrs := corpus.GenerateIPv6(100_000, 1)
	plainBuf, _ := encoding.PlainString{}.Encode(addrs)
	b.Run("DictionaryEncode", func(b *testing.B) {
		b.SetBytes(int64(len(plainBuf)))
		for i := 0; i < b.N; i++ {
			if _, err := (encoding.DictString{}).Encode(addrs); err != nil {
				b.Fatal(err)
			}
		}
	})
	dictBuf, _ := encoding.DictString{}.Encode(addrs)
	b.Run("DictionaryDecode", func(b *testing.B) {
		b.SetBytes(int64(len(plainBuf)))
		for i := 0; i < b.N; i++ {
			if _, err := (encoding.DictString{}).Decode(nil, dictBuf); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, comp := range []xcompress.Compressor{xcompress.Snappy{}, xcompress.Gzip{}} {
		comp := comp
		b.Run(comp.Name()+"Encode", func(b *testing.B) {
			b.SetBytes(int64(len(plainBuf)))
			for i := 0; i < b.N; i++ {
				if _, err := comp.Compress(plainBuf); err != nil {
					b.Fatal(err)
				}
			}
		})
		compBuf, _ := comp.Compress(plainBuf)
		b.Run(comp.Name()+"Decode", func(b *testing.B) {
			b.SetBytes(int64(len(plainBuf)))
			for i := 0; i < b.N; i++ {
				if _, err := comp.Decompress(compBuf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table 2 ----

func BenchmarkTable2CorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(benchCorpus)
	}
}

// ---- Figure 5a / 5b ----

var (
	selOnce    sync.Once
	selLearned *selector.Learned
	selTest    []corpus.Column
)

func selectorSetup(b *testing.B) {
	selOnce.Do(func() {
		cols := corpus.Generate(corpus.Config{Seed: 42, Rows: 2000, PerCat: 10})
		train, _, test := corpus.Split(cols, 1)
		var intCols [][]int64
		var strCols [][][]byte
		for i := range train {
			if train[i].IsInt() {
				intCols = append(intCols, train[i].Ints)
			} else {
				strCols = append(strCols, train[i].Strings)
			}
		}
		var err error
		selLearned, err = selector.TrainLearned(intCols, strCols, selector.TrainOptions{Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		selTest = test
	})
}

func BenchmarkFig5aSelectionAccuracy(b *testing.B) {
	selectorSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		correct, total := 0, 0
		for j := range selTest {
			c := &selTest[j]
			if c.IsInt() {
				best, _, _ := selector.BestInt(c.Ints)
				if selLearned.SelectInt(c.Ints) == best {
					correct++
				}
			} else {
				best, _, _ := selector.BestString(c.Strings)
				if selLearned.SelectString(c.Strings) == best {
					correct++
				}
			}
			total++
		}
		if i == 0 {
			b.Logf("strict accuracy %d/%d", correct, total)
		}
	}
}

func BenchmarkFig5bEncodedSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig5b(benchCorpus)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("int bytes %v", rep.IntBytes)
		}
	}
}

// ---- §6.2.3 selection overhead ----

func BenchmarkS623SelectionVsExhaustive(b *testing.B) {
	selectorSetup(b)
	vals := make([]int64, 500_000)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	b.Run("DataDrivenSampled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			selLearned.SelectInt(vals[:20_000]) // ~1MB-head equivalent
		}
	})
	b.Run("Exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := selector.BestInt(vals); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- TPC-H environment (Figs 6-9) ----

var (
	tpchOnce sync.Once
	tpchEnv  *experiments.TPCHEnv
	tpchErr  error
)

func tpchSetup(b *testing.B) *experiments.TPCHEnv {
	tpchOnce.Do(func() {
		tpchEnv, tpchErr = experiments.SetupTPCH(0.01, 42, "")
	})
	if tpchErr != nil {
		b.Fatal(tpchErr)
	}
	return tpchEnv
}

func BenchmarkFig6Operators(b *testing.B) {
	env := tpchSetup(b)
	for op := tpch.MicroOp(0); op < tpch.NumMicroOps; op++ {
		op := op
		b.Run(fmt.Sprintf("%v/CodecDB", op), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.Codec.RunMicro(op); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%v/Oblivious", op), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.Codec.RunMicroOblivious(op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig7TPCH(b *testing.B) {
	env := tpchSetup(b)
	for q := 1; q <= tpch.QueryCount; q++ {
		q := q
		b.Run(fmt.Sprintf("Q%02d/CodecDB", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.Codec.CodecDB(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Q%02d/PrestoLike", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.Codec.Oblivious(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Q%02d/DBMSXLayout", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.DBMSX.Oblivious(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig8TimeBreakdown(b *testing.B) {
	env := tpchSetup(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig8(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("codec cpu %v io %v", rep.CodecCPU, rep.CodecIO)
		}
	}
}

func BenchmarkFig9MemoryFootprint(b *testing.B) {
	env := tpchSetup(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig9(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("codec MB %v oblivious MB %v", rep.CodecMB, rep.ObliviousMB)
		}
	}
}

// ---- Figure 10: SSB ----

var (
	ssbOnce sync.Once
	ssbEnv  *experiments.SSBEnv
	ssbErr  error
)

func ssbSetup(b *testing.B) *experiments.SSBEnv {
	ssbOnce.Do(func() {
		ssbEnv, ssbErr = experiments.SetupSSB(0.01, 42, "")
	})
	if ssbErr != nil {
		b.Fatal(ssbErr)
	}
	return ssbEnv
}

func BenchmarkFig10SSB(b *testing.B) {
	env := ssbSetup(b)
	for _, q := range ssb.QueryIDs() {
		q := q
		b.Run("Q"+q+"/CodecDB", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := env.Tables.CodecDB(q)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.IntermediateBytes), "interB")
				}
			}
		})
		b.Run("Q"+q+"/MorphLike", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := env.Tables.Morph(q)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.IntermediateBytes), "interB")
				}
			}
		})
		b.Run("Q"+q+"/Oblivious", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.Tables.Oblivious(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Substrate micro-benchmarks (support the figures above) ----

func BenchmarkSBoostScanVsScalar(b *testing.B) {
	const n = 1 << 20
	const width = 10
	w := bitutil.NewWriter()
	for i := 0; i < n; i++ {
		w.WriteBits(uint64(i)&1023, width)
	}
	data := append(w.Bytes(), make([]byte, 16)...)
	b.Run("SWAR", func(b *testing.B) {
		b.SetBytes(n * width / 8)
		for i := 0; i < b.N; i++ {
			sboost.ScanPackedInto(bitutil.NewBitmap(n), data, width, sboost.OpLe, 511)
		}
	})
	b.Run("DecodeThenCompare", func(b *testing.B) {
		b.SetBytes(n * width / 8)
		for i := 0; i < b.N; i++ {
			r := bitutil.NewReader(data)
			bm := bitutil.NewBitmap(n)
			for j := 0; j < n; j++ {
				if r.ReadBits(width) <= 511 {
					bm.Set(j)
				}
			}
		}
	})
}

func BenchmarkEncodings(b *testing.B) {
	sorted := make([]int64, 100_000)
	lowCard := make([]int64, 100_000)
	for i := range sorted {
		sorted[i] = int64(1_000_000 + i)
		lowCard[i] = int64(i % 16)
	}
	cases := []struct {
		name string
		kind encoding.Kind
		vals []int64
	}{
		{"Delta/sorted", encoding.KindDelta, sorted},
		{"BitPacked/lowCard", encoding.KindBitPacked, lowCard},
		{"RLE/lowCard", encoding.KindRLE, lowCard},
		{"Dict/lowCard", encoding.KindDict, lowCard},
	}
	for _, c := range cases {
		codec, _ := encoding.IntCodecFor(c.kind)
		b.Run(c.name+"/Encode", func(b *testing.B) {
			b.SetBytes(int64(8 * len(c.vals)))
			for i := 0; i < b.N; i++ {
				if _, err := codec.Encode(c.vals); err != nil {
					b.Fatal(err)
				}
			}
		})
		buf, _ := codec.Encode(c.vals)
		b.Run(c.name+"/Decode", func(b *testing.B) {
			b.SetBytes(int64(8 * len(c.vals)))
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
