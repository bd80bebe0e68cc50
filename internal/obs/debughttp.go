package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Debug HTTP surface for the flight recorder: plain-text views (with
// progress bars) by default, JSON with ?format=json, so the endpoints
// read equally well from curl and from tooling. Handlers are methods on
// *Recorder so they test with httptest and mount on any mux.

func wantJSON(req *http.Request) bool {
	if req.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(req.Header.Get("Accept"), "application/json")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// progressBar renders `[=====>    ] 12/34` for a morsel counter; an
// unsized scan ("0/0") renders as a spinner-less pending bar.
func progressBar(done, total int32) string {
	const width = 24
	if total <= 0 {
		return fmt.Sprintf("[%s] ?/?", strings.Repeat(" ", width))
	}
	filled := int(int64(done) * width / int64(total))
	if filled > width {
		filled = width
	}
	bar := strings.Repeat("=", filled)
	if filled < width && done > 0 {
		bar += ">"
	}
	return fmt.Sprintf("[%-*s] %d/%d", width, bar, done, total)
}

// HandleInFlight serves /debug/queries: every in-flight query with its
// row-group progress bar.
func (r *Recorder) HandleInFlight(w http.ResponseWriter, req *http.Request) {
	live := r.InFlight()
	if wantJSON(req) {
		writeJSON(w, map[string]any{"inflight": live})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "in-flight queries: %d\n\n", len(live))
	for _, q := range live {
		fmt.Fprintf(w, "#%-6d %-8s %-16s %-14s %s  elapsed=%s workers=%d\n",
			q.ID, q.Kind, q.Table, q.Terminal,
			progressBar(q.MorselsDone, q.MorselsTotal),
			q.Elapsed.Round(time.Millisecond), q.Workers)
		if q.Predicate != "" {
			fmt.Fprintf(w, "        where %s\n", q.Predicate)
		}
	}
}

func writeRecordText(w http.ResponseWriter, recs []*QueryRecord) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, rec := range recs {
		status := "ok"
		if rec.Cancelled {
			status = "cancelled"
		} else if rec.Err != "" {
			status = "error: " + rec.Err
		}
		fmt.Fprintf(w, "#%-6d %-8s %-16s %-14s wall=%-10s rows=%d→%d  %s\n",
			rec.ID, rec.KindName, rec.Table, rec.Terminal,
			rec.Wall.Round(time.Microsecond), rec.RowsIn, rec.RowsOut, status)
		if rec.Predicate != "" {
			fmt.Fprintf(w, "        where %s\n", rec.Predicate)
		}
		fmt.Fprintf(w, "        pages[read=%d pruned=%d skipped=%d coalesced=%d] bytes[read=%d decompressed=%d] io=%s scan=%s workers=%d\n",
			rec.IO.PagesRead, rec.IO.PagesPruned, rec.IO.PagesSkipped, rec.IO.PagesCoalesced,
			rec.IO.BytesRead, rec.IO.BytesDecompressed,
			rec.IORead.Round(time.Microsecond), rec.Scan.Round(time.Microsecond), rec.Workers)
	}
}

// HandleRecent serves /debug/queries/recent: the completion ring,
// newest first.
func (r *Recorder) HandleRecent(w http.ResponseWriter, req *http.Request) {
	recs := r.Recent()
	if wantJSON(req) {
		writeJSON(w, map[string]any{"recent": recs})
		return
	}
	writeRecordText(w, recs)
}

// HandleSlow serves /debug/queries/slow: ring entries at or above the
// slow threshold (override with ?threshold=250ms), slowest first.
func (r *Recorder) HandleSlow(w http.ResponseWriter, req *http.Request) {
	var d time.Duration
	if t := req.URL.Query().Get("threshold"); t != "" {
		var err error
		if d, err = time.ParseDuration(t); err != nil {
			http.Error(w, "bad threshold: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if d <= 0 {
		d = r.SlowThreshold()
	}
	recs := r.Slow(d)
	if wantJSON(req) {
		writeJSON(w, map[string]any{"threshold": d.String(), "slow": recs})
		return
	}
	writeRecordText(w, recs)
}

// HandleTrace serves /debug/queries/trace?id=N: the recorded span tree
// as Chrome trace-event JSON (404 when the record is gone from the
// ring or was untraced).
func (r *Recorder) HandleTrace(w http.ResponseWriter, req *http.Request) {
	var id uint64
	if _, err := fmt.Sscanf(req.URL.Query().Get("id"), "%d", &id); err != nil {
		http.Error(w, "missing or bad id parameter", http.StatusBadRequest)
		return
	}
	rec := r.Find(id)
	if rec == nil {
		http.Error(w, "no such record (evicted from ring?)", http.StatusNotFound)
		return
	}
	if rec.TraceRoot == nil {
		http.Error(w, "record was not traced; re-run via the trace subcommand", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = WriteChromeTrace(w, rec.TraceRoot, rec)
}

var processStart = time.Now()

// HealthzHandler returns a readiness probe handler: 200 with uptime and
// in-flight/recorded counts once the process is serving.
func HealthzHandler(r *Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		body := map[string]any{
			"status":   "ok",
			"uptime":   time.Since(processStart).Round(time.Millisecond).String(),
			"inflight": len(r.InFlight()),
			"recorded": len(r.Recent()),
		}
		if wantJSON(req) {
			writeJSON(w, body)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok uptime=%s inflight=%d recorded=%d\n",
			body["uptime"], body["inflight"], body["recorded"])
	}
}
