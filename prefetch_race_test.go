package codecdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"codecdb/internal/colstore"
)

// TestPrefetchUnderConcurrentQueries hammers one table from many
// goroutines with the prefetcher active, interleaving queries whose
// context is cancelled mid-scan. Run under -race (make check wires it
// in): the fetcher's background goroutine shares page buffers with
// consumer workers, and cancellation can land at any point in the
// fetch/serve/release cycle — of the scheduled first stage, and of the
// demand units a second filter stage and a sink gather read. Every query
// must end in a correct result or context.Canceled — and once the storm
// passes, the bytes-in-flight gauge must read zero: cancelled fetchers
// released every buffer.
func TestPrefetchUnderConcurrentQueries(t *testing.T) {
	const n = 3000
	db := openTestDB(t)
	propTable(t, db, "preflight", n)
	tbl, err := db.Table("preflight")
	if err != nil {
		t.Fatal(err)
	}
	want, err := tbl.Where("grade", Ge, 1).Count()
	if err != nil {
		t.Fatal(err)
	}
	wantGroups, err := tbl.Where("grade", Ge, 1).And("small", Lt, 500).GroupCount("cat")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 30; i++ {
				q := tbl.Where("grade", Ge, 1)
				staged := i%2 == 1 // a second stage and a gather: demand units
				if staged {
					q = q.And("small", Lt, 500)
				}
				cancelled := i%3 == 0
				if cancelled {
					// A deadline somewhere inside the scan: the query may
					// finish first or die mid-morsel, both are legal.
					ctx, cancel := context.WithTimeout(context.Background(),
						time.Duration(rng.Intn(200))*time.Microsecond)
					q = q.WithContext(ctx)
					defer cancel()
				}
				var (
					got    int64
					groups map[string]int64
					err    error
				)
				if staged {
					groups, err = q.GroupCount("cat")
				} else {
					got, err = q.Count()
				}
				switch {
				case err == nil && staged:
					if !reflect.DeepEqual(groups, wantGroups) {
						errs <- fmt.Errorf("goroutine %d iter %d: groups = %v, want %v", g, i, groups, wantGroups)
						return
					}
				case err == nil:
					if got != want {
						errs <- fmt.Errorf("goroutine %d iter %d: count = %d, want %d", g, i, got, want)
						return
					}
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					// expected for the cancelled fraction
				default:
					errs <- fmt.Errorf("goroutine %d iter %d: unexpected error: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if bif := colstore.GlobalStats().BytesInFlight; bif != 0 {
		t.Fatalf("bytes-in-flight gauge = %d after concurrent storm, want 0", bif)
	}
}
