package codecdb

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// pair isolates one mechanism — the phase-concurrent hash table, sectional
// bitmap compression — against its naive alternative.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/exec"
	"codecdb/internal/ops"
)

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
			m := ops.NewPCHMulti(n)
			parallelInsert(b, pool, n, func(j int) { m.Insert(keys[j], int64(j)) })
		}
	})
	b.Run("MutexMap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := make(map[int64][]int64, n)
			var mu sync.Mutex
			parallelInsert(b, pool, n, func(j int) {
				mu.Lock()
				m[keys[j]] = append(m[keys[j]], int64(j))
				mu.Unlock()
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

// parallelInsert inserts rows [0, n) in parallel chunks on the pool.
func parallelInsert(b *testing.B, pool *exec.Pool, n int, insert func(j int)) {
	err := pool.ParallelChunksErr(context.Background(), n, func(start, end int) error {
		for j := start; j < end; j++ {
			insert(j)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
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
