package codecdb

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// pair (or sweep) isolates one mechanism — data skipping, stripe fan-out,
// batch column-read caching, the phase-concurrent hash table, sectional
// bitmap compression — against its naive alternative.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/ops"
)

// ablationTable writes a single-column table used by the skipping bench.
func ablationTable(b *testing.B, n int) *colstore.Reader {
	b.Helper()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 2000)
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "v", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
	}}
	path := filepath.Join(b.TempDir(), "t.cdb")
	if err := colstore.WriteFile(path, schema, []colstore.ColumnData{{Ints: vals}},
		colstore.Options{RowGroupRows: 65536, PageRows: 4096}); err != nil {
		b.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkAblationStripeCount sweeps the stripe fan-out of stripe hash
// aggregation; 1 stripe degenerates to a single hash table.
func BenchmarkAblationStripeCount(b *testing.B) {
	const n = 1 << 19
	rng := rand.New(rand.NewSource(2))
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 18)
		vals[i] = rng.Int63n(100)
	}
	specs := []ops.VecAgg{{Kind: ops.AggSumInt, Ints: vals}}
	pool := exec.NewPool(0)
	for _, stripes := range []int{1, 4, 16, 32, 128} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ops.StripeHashAggregateN(pool, keys, specs, stripes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("singleHashMap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ops.HashAggregate(keys, specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBatchCache measures the batch execution feature
// (§5.2): eight operators reading the same column with and without the
// shared cache.
func BenchmarkAblationBatchCache(b *testing.B) {
	const n = 1 << 18
	r := ablationTable(b, n)
	pool := exec.NewPool(0)
	const readers = 8
	b.Run("WithCache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := exec.NewBatchCache()
			var wg sync.WaitGroup
			for k := 0; k < readers; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, err := cache.Load("v", func() (any, error) {
						return ops.ReadAllInts(r, "v", pool)
					})
					if err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
	})
	b.Run("WithoutCache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for k := 0; k < readers; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := ops.ReadAllInts(r, "v", pool); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
	})
}

// BenchmarkAblationPCHBuild compares the lock-free phase-concurrent build
// against a mutex-guarded Go map under the same parallelism (§5.5).
func BenchmarkAblationPCHBuild(b *testing.B) {
	const n = 1 << 18
	keys := make([]int64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = rng.Int63n(1 << 30)
	}
	pool := exec.NewPool(0)
	b.Run("PhaseConcurrent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ops.HashJoinBuild(pool, keys, nil)
		}
	})
	b.Run("MutexMap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := make(map[int64][]int64, n)
			var mu sync.Mutex
			pool.ParallelChunks(n, func(start, end int) {
				for j := start; j < end; j++ {
					mu.Lock()
					m[keys[j]] = append(m[keys[j]], int64(j))
					mu.Unlock()
				}
			})
		}
	})
	b.Run("SingleThreadMap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := make(map[int64][]int64, n)
			for j, k := range keys {
				m[k] = append(m[k], int64(j))
			}
		}
	})
}

// BenchmarkAblationSectionalCompression measures RLE-compressing bitmap
// sections: the memory trade (§5.1) costs compress/decompress time.
func BenchmarkAblationSectionalCompression(b *testing.B) {
	const n = 1 << 20
	s := bitutil.NewSectionalBitmap(n, 65536)
	for i := 0; i+1 < n; i += 3 { // runs of 2 with gaps: RLE-friendly enough
		s.Set(i)
		s.Set(i + 1)
	}
	b.Run("CompressAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := bitutil.NewSectionalBitmap(n, 65536)
			s.ForEach(func(j int) { c.Set(j) })
			for sec := 0; sec < c.NumSections(); sec++ {
				c.Compress(sec)
			}
		}
	})
	b.Run("Cardinality/Uncompressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Cardinality()
		}
	})
}
