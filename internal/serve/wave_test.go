package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"codecdb"
	"codecdb/internal/vfs"
)

func ctxBG() context.Context { return context.Background() }

// TestSharedScanMatchesSerial: N concurrent clients with mixed
// terminals get exactly the answers the serial API gives, and — with
// the page cache on, the serving configuration — total page IO is
// bounded by the number of distinct pages, not the number of clients.
// Injected IO latency holds the first wave open long enough that the
// remaining clients provably batch.
func TestSharedScanMatchesSerial(t *testing.T) {
	const rows, pageRows = 4000, 256
	db, tbl := newEventsDB(t, rows, codecdb.Options{
		FS:             vfs.NewFaultFS(vfs.OS(), vfs.FaultConfig{Latency: 2 * time.Millisecond}),
		PageCacheBytes: 32 << 20,
	})
	// Plenty of admission slots: this test isolates the batcher, so the
	// controller must not be the thing serialising arrivals.
	s, _ := newTestServer(t, db, Config{
		Admit: AdmitConfig{MaxConcurrent: 64, MaxQueued: 64, MaxWait: 10 * time.Second},
	})

	// Expected answers come from a second DB over identical data, so the
	// serving DB's page cache stays cold until the burst.
	_, ref := newEventsDB(t, rows, codecdb.Options{})
	wantErr, _ := ref.Where("status", codecdb.Eq, "ERROR").Count()
	wantHi, _ := ref.Where("level", codecdb.Ge, 3).Count()
	wantSum, _ := ref.Where("status", codecdb.Eq, "RETRY").SumFloat("latency")

	reqs := []QueryRequest{
		{Table: "events", Terminal: "count", NoCache: true,
			Predicate: &WirePred{Kind: "cmp", Col: "status", Op: "eq", Value: "ERROR"}},
		{Table: "events", Terminal: "count", NoCache: true,
			Predicate: &WirePred{Kind: "cmp", Col: "level", Op: "ge", Value: 3}},
		{Table: "events", Terminal: "sum", Column: "latency", NoCache: true,
			Predicate: &WirePred{Kind: "cmp", Col: "status", Op: "eq", Value: "RETRY"}},
	}

	runBurst := func() {
		const perReq = 8 // 24 concurrent clients total
		var wg sync.WaitGroup
		var mu sync.Mutex
		var fails []string
		start := make(chan struct{})
		for i := 0; i < perReq; i++ {
			for j := range reqs {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					<-start
					req := reqs[j]
					resp, werr := s.Query(ctxBG(), &req)
					var bad string
					switch {
					case werr != nil:
						bad = "error: " + werr.Message
					case j == 0 && resp.Count != wantErr:
						bad = "ERROR count mismatch"
					case j == 1 && resp.Count != wantHi:
						bad = "level count mismatch"
					case j == 2 && resp.Sum != wantSum:
						bad = "sum mismatch"
					}
					if bad != "" {
						mu.Lock()
						fails = append(fails, bad)
						mu.Unlock()
					}
				}(j)
			}
		}
		close(start)
		wg.Wait()
		for _, f := range fails {
			t.Error(f)
		}
	}

	// Cold burst: 24 clients over 3 distinct scans. Unshared that is
	// 24 full column scans (~24 × rows/pageRows pages). Shared, page IO
	// is bounded by the distinct pages the waves touch: 3 columns ×
	// rows/pageRows pages, with slack for concurrent same-page misses.
	tbl.ResetIOStats()
	runBurst()
	pagesPerCol := int64(rows / pageRows)
	distinct := 3 * pagesPerCol
	burstPages := tbl.IOStats().PagesRead
	if burstPages == 0 {
		t.Fatal("burst read no pages")
	}
	if burstPages > 3*distinct {
		t.Fatalf("24 concurrent clients read %d pages (distinct pages = %d): shared scan not batching",
			burstPages, distinct)
	}

	// Warm burst: every page is cached; no page is read or decompressed
	// again regardless of client count.
	st1 := tbl.IOStats()
	runBurst()
	st2 := tbl.IOStats()
	if st2.PagesRead != st1.PagesRead || st2.BytesDecompressed != st1.BytesDecompressed {
		t.Fatalf("warm burst did IO: %+v -> %+v", st1, st2)
	}
	if st2.PageCacheHits == st1.PageCacheHits {
		t.Fatal("warm burst recorded no page-cache hits")
	}
}

// TestWaveJoinMembersConcurrent: concurrent join requests — rows under
// order_by/limit, semi and anti counts — ride the probe table's waves
// beside scalar requests, and every one gets the direct API's answer.
func TestWaveJoinMembersConcurrent(t *testing.T) {
	db, tbl, svc := newJoinDB(t, 4000)
	s, _ := newTestServer(t, db, Config{
		Admit: AdmitConfig{MaxConcurrent: 64, MaxQueued: 64, MaxWait: 10 * time.Second},
	})
	bad := svc.Where("s_class", codecdb.Eq, "bad")
	badSvc := &WirePred{Kind: "cmp", Col: "s_class", Op: "eq", Value: "bad"}
	join := func(kind string) *WireJoin {
		return &WireJoin{Table: "services", LeftCol: "status", RightCol: "s_status", Kind: kind, Predicate: badSvc}
	}
	wantRows, err := tbl.Where("level", codecdb.Ge, 2).JoinOn(bad, "status", "s_status").
		OrderBy("latency", true).Limit(4).Rows("latency", "s_class")
	if err != nil {
		t.Fatal(err)
	}
	wantSemi, _ := tbl.All().SemiJoin(bad, "status", "s_status").Count()
	wantAnti, _ := tbl.All().AntiJoin(bad, "status", "s_status").Count()
	wantHi, _ := tbl.Where("level", codecdb.Ge, 3).Count()

	reqs := []QueryRequest{
		{Table: "events", Terminal: "rows", NoCache: true, Join: join(""),
			Predicate: &WirePred{Kind: "cmp", Col: "level", Op: "ge", Value: 2},
			Columns:   []string{"latency", "s_class"}, OrderBy: []WireOrder{{Col: "latency", Desc: true}}, Limit: 4},
		{Table: "events", Terminal: "count", NoCache: true, Join: join("semi")},
		{Table: "events", Terminal: "count", NoCache: true, Join: join("anti")},
		{Table: "events", Terminal: "count", NoCache: true,
			Predicate: &WirePred{Kind: "cmp", Col: "level", Op: "ge", Value: 3}},
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 6*len(reqs); i++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			<-start
			req := reqs[j]
			resp, werr := s.Query(ctxBG(), &req)
			switch {
			case werr != nil:
				t.Errorf("request %d: %s", j, werr.Message)
			case j == 0 && !reflect.DeepEqual(resp.Rows, wantRows.Data):
				t.Errorf("join rows = %v, want %v", resp.Rows, wantRows.Data)
			case j == 1 && resp.Count != wantSemi, j == 2 && resp.Count != wantAnti, j == 3 && resp.Count != wantHi:
				t.Errorf("request %d: count %d", j, resp.Count)
			}
		}(i % len(reqs))
	}
	close(start)
	wg.Wait()
}

// TestWaveBatcherGroupCommit drives the batcher directly: a member
// attaching while a wave is in flight rides the next wave, and both
// get correct answers.
func TestWaveBatcherGroupCommit(t *testing.T) {
	db, tbl := newEventsDB(t, 2000, codecdb.Options{
		FS: vfs.NewFaultFS(vfs.OS(), vfs.FaultConfig{Latency: 2 * time.Millisecond}),
	})
	b := newWaveBatcher()
	want, _ := tbl.All().Count()

	const k = 6
	var wg sync.WaitGroup
	results := make([]codecdb.WaveResult, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = b.run(ctxBG(), tbl,
				codecdb.WaveQuery{Terminal: codecdb.TerminalCount},
				time.Time{}, codecdb.ExecOptions{})
		}(i)
		// Stagger so later members attach mid-wave.
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	for i := 0; i < k; i++ {
		if errs[i] != nil || results[i].Err != nil {
			t.Fatalf("member %d: %v / %v", i, errs[i], results[i].Err)
		}
		if results[i].Count != want {
			t.Fatalf("member %d: count %d, want %d", i, results[i].Count, want)
		}
	}
	_ = db
}
