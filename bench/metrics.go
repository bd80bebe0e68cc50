package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef names one metric of the contract in BENCHMARK.json. The
// tables below are the single source: the contract line is built from
// them, a test holds BENCHMARK.json to them, and -glossary prints the
// README's tables from them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	What   string
}

// endToEnd are the metrics a user of the system would see. Every
// workload reports every one of them; a "request" is one operation a
// client issues and waits for: a Query terminal call (scan_*), one
// TPC-H/SSB query (relational), one POST /v1/query (serve_mix), one
// Append (ingest).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"median over the run's set-ups of: generate the data, encode and load it, open it for queries (ingest: generate, create the empty table, open)"},
	{"pass_ms", "ms", "lower", 0.15,
		"median time of one pass over the workload's fixed mix: its templates once each (scan_*, relational, ingest read passes after the final flush) or the seeded request block at P clients (serve_mix)"},
	{"geomean_ms", "ms", "lower", 0.20,
		"geometric mean over the mix's templates of each template's median latency, so a regression on a cheap pruned query (or, on serve_mix, on cache hits) is not hidden by the expensive ones"},
	{"req_per_s", "1/s", "higher", 0.25,
		"requests completed per second of timed work at the workload's client count (ingest: acknowledged rows per second of the append phase, seal and background-flush stalls included)"},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.01,
		"bytes on disk after load/flush over the same rows plain-encoded (8 B per number, 4 B + length per string): the paper's storage claim"},
}

// layerGroup is a module's per-layer metrics with the prediction that
// goes with them: which end-to-end metric they should move on which
// workload, and where no change is predicted.
type layerGroup struct {
	Module  string
	Source  string // what is measured, on what
	Moves   string
	Still   string
	Metrics []metricDef
}

func lower(name, unit, what string) metricDef  { return metricDef{name, unit, "lower", 0, what} }
func higher(name, unit, what string) metricDef { return metricDef{name, unit, "higher", 0, what} }

const perPass = "per traced pass of the named workload"

var layerGroups = []layerGroup{
	{
		Module: "colstore (page IO)", Source: "process-wide colstore.GlobalStats deltas, " + perPass,
		Moves: "fetch/prefetch/coalescing → pass_ms on scan_cold; page cache → req_per_s on serve_mix; pruning → geomean_ms on scan_warm",
		Still: "counts repeat exactly at one client (scan_*, relational); a kernel change moves none of them",
		Metrics: []metricDef{
			lower("colstore.pages_read", "count", "pages fetched, verified and decompressed"),
			higher("colstore.pages_pruned", "count", "pages rejected from their zone map, never read"),
			higher("colstore.pages_skipped", "count", "pages skipped because no selected row fell in them"),
			lower("colstore.bytes_read", "bytes", "bytes handed back by ReadAt"),
			lower("colstore.bytes_decompressed", "bytes", "page-body bytes after decompression"),
			higher("colstore.pages_coalesced", "count", "ReadAt calls saved by merging adjacent pages"),
			higher("colstore.prefetch_hit_share", "share", "fetch units found already fetched by the prefetcher"),
			higher("colstore.page_cache_hit_share", "share", "page bodies served from the decompressed-page cache"),
			lower("colstore.io_wait_share", "share", "time inside ReadAt over wall time of the traced passes"),
		},
	},
	{
		Module: "vfs (device)", Source: "bench-local counting vfs.FS under the engine, " + perPass + " (ingest: writes and fsyncs of the whole append phase)",
		Moves: "read_calls → pass_ms on scan_cold (each costs the device latency); fsyncs, write_bytes → req_per_s on ingest",
		Still: "zero writes on the read-only workloads",
		Metrics: []metricDef{
			lower("vfs.read_calls", "count", "ReadAt calls that reached the device"),
			lower("vfs.read_bytes", "bytes", "bytes those calls returned"),
			lower("vfs.write_bytes", "bytes", "bytes written"),
			lower("vfs.fsyncs", "count", "file and directory syncs"),
		},
	},
	{
		Module: "xcompress / exec / codecdb (work counts)", Source: "process-wide counters, " + perPass,
		Moves: "decompress work → pass_ms on scan_warm and relational; tasks → geomean_ms where morsels are small (ingest)",
		Still: "serve_mix hits do none of this work",
		Metrics: []metricDef{
			lower("xcompress.decompress_calls", "count", "snappy + gzip blocks decompressed"),
			lower("xcompress.decompressed_bytes", "bytes", "their output bytes"),
			lower("exec.tasks", "count", "worker-pool tasks finished"),
			lower("codecdb.queries", "count", "queries the root API evaluated (codecdb_queries_total)"),
		},
	},
	{
		Module: "proc / trace", Source: "runtime.MemStats and /proc/self/status around the traced passes; the trace itself",
		Moves: "allocations and GC → pass_ms on relational (Q18, Q13) and req_per_s on serve_mix",
		Still: "trace.overhead_share says how far traced timings sit from untraced ones; end-to-end numbers always come from the untraced run",
		Metrics: []metricDef{
			lower("proc.allocs_per_pass", "count", "heap objects allocated"),
			lower("proc.alloc_bytes_per_pass", "bytes", "heap bytes allocated"),
			lower("proc.gc_pause_share", "share", "stop-the-world GC pause time over wall time"),
			lower("proc.gc_cycles", "count", "GC cycles per pass"),
			lower("proc.peak_rss_mb", "MB", "process high-water RSS (VmHWM) at the end of the traced passes"),
			lower("trace.overhead_share", "share", "traced pass_ms over untraced pass_ms, minus one"),
			lower("trace.spans_per_pass", "count", "spans recorded per pass"),
			lower("fail_share", "share", "operations that errored, were shed, answered wrong, or (ingest) acknowledged rows missing after reopen / crash-reopen, over operations attempted; must be 0"),
		},
	},
	{
		Module: "span (bench-local trace)", Source: "self time (duration minus children) of the spans the benchmark records around each call into a layer, over traced wall time × clients",
		Moves: "the layer the workload enters carries nearly all of it: codecdb on scan_* and ingest reads, relq on relational, serve on serve_mix, shard on ingest appends",
		Still: "span.bench_share is the benchmark's own bookkeeping and should stay near zero",
		Metrics: []metricDef{
			lower("span.bench_share", "share", "the benchmark's own code between calls"),
			lower("span.codecdb_share", "share", "root Query API calls, outside the engine stages below"),
			lower("span.serve_share", "share", "Server.HandleV1Query"),
			lower("span.relq_share", "share", "tpch/ssb engine-compiled plans"),
			lower("span.shard_share", "share", "Table.Append and Table.Flush"),
		},
	},
	{
		Module: "ops (engine stages)", Source: "busy time summed over workers of the engine's own span tree (the one Query.AnalyzeTrace returns), over traced wall time; on relational from three root-API join / group-by / order-by queries over the TPC-H tables, because the TPC-H plans take no context; zero on serve_mix, whose handler exposes no span tree",
		Moves: "filter, scan, decompress → pass_ms on scan_warm; wait → pass_ms on scan_cold; build, join, groupby, sort → pass_ms on relational",
		Still: "wait_share stays near zero on scan_warm; filter and scan do not move on scan_cold",
		Metrics: []metricDef{
			lower("ops.plan_share", "share", "predicate binding and planning"),
			lower("ops.prepare_share", "share", "pipeline compilation, dictionary faults"),
			lower("ops.filter_share", "share", "filter stages"),
			lower("ops.terminal_share", "share", "terminal stage (count, gather, aggregate)"),
			lower("ops.build_share", "share", "join build sides"),
			lower("ops.join_share", "share", "join probe stages"),
			lower("ops.groupby_share", "share", "group-by sinks"),
			lower("ops.sort_share", "share", "order-by / top-K sinks"),
			lower("ops.wait_share", "share", "stage time waiting on reads"),
			lower("ops.decompress_share", "share", "stage time decompressing pages"),
			lower("ops.scan_share", "share", "stage time left: kernels and decode"),
		},
	},
	{
		Module: "sboost (probe)", Source: "SWAR kernels over PackedPageAt pages of scan_warm's events table held in memory, single thread",
		Moves: "pass_ms on scan_warm only, by at most the kernels' share of it (codecdb.kernel_ns_per_row over codecdb.range_query_ns_per_row)",
		Still: "scan_cold, serve_mix hits",
		Metrics: []metricDef{
			lower("sboost.scan_ns_per_row.w3", "ns/row", "ScanPackedInto, = on level"),
			lower("sboost.scan_ns_per_row.w8", "ns/row", "ScanPackedInto, < on code"),
			lower("sboost.scan_ns_per_row.w20", "ns/row", "ScanPackedInto, >= on user"),
			lower("sboost.range_ns_per_row.w20", "ns/row", "ScanPackedRangeInto on user"),
			lower("sboost.in_ns_per_row.w3", "ns/row", "ScanPackedInInto on status keys"),
			lower("sboost.streams_ns_per_row.w20", "ns/row", "CompareStreamsInto, user page i against page i+1"),
		},
	},
	{
		Module: "xcompress / encoding (probe)", Source: "65,536-value slices of the events columns each encoding suits; url text for the compressors",
		Moves: "decode → pass_ms on scan_warm and relational; encode → setup_s everywhere and req_per_s on ingest (flush)",
		Still: "serve_mix hits; scan_cold",
		Metrics: []metricDef{
			higher("xcompress.decompress_mb_per_s.snappy", "MB/s", "Snappy.DecompressInto"),
			higher("xcompress.decompress_mb_per_s.gzip", "MB/s", "Gzip.DecompressInto"),
			lower("encoding.decode_ns_per_value.plain", "ns/value", "PlainInt on user"),
			lower("encoding.decode_ns_per_value.bit_packed", "ns/value", "BitPackedInt on user"),
			lower("encoding.decode_ns_per_value.rle", "ns/value", "RLEInt on region ids"),
			lower("encoding.decode_ns_per_value.delta", "ns/value", "DeltaInt on ts"),
			lower("encoding.decode_ns_per_value.bit_vector", "ns/value", "BitVectorInt on level"),
			lower("encoding.decode_ns_per_value.dictionary", "ns/value", "DictString on status"),
			lower("encoding.decode_ns_per_value.dictionary_rle", "ns/value", "hybrid DictString on region"),
			lower("encoding.decode_ns_per_value.delta_length", "ns/value", "DeltaLengthString on url"),
			lower("encoding.decode_ns_per_value.xor_float", "ns/value", "XorFloat on latency"),
			higher("encoding.encode_mb_per_s", "MB/s", "plain bytes of the nine slices over the time to encode them all"),
		},
	},
	{
		Module: "colstore (probe)", Source: "a bench-local colstore.Reader on scan_warm's events.cdb, single thread, OS cache warm",
		Moves: "pass_ms on scan_warm and relational (page decode); open_ms → setup_s and shard.reopen_ms",
		Still: "serve_mix hits",
		Metrics: []metricDef{
			lower("colstore.open_ms", "ms", "colstore.Open + Close: footer read, checksum, metadata parse"),
			lower("colstore.page_body_ns_per_row", "ns/row", "Chunk.PageBodyScratch over latency: read + CRC + snappy"),
			lower("colstore.decode_ns_per_row.status", "ns/row", "Chunk.Keys, dictionary"),
			lower("colstore.decode_ns_per_row.region", "ns/row", "Chunk.Strings, dictionary-RLE + gzip"),
			lower("colstore.decode_ns_per_row.url", "ns/row", "Chunk.Strings, delta-length + snappy"),
			lower("colstore.decode_ns_per_row.level", "ns/row", "Chunk.Ints, bit-packed w3"),
			lower("colstore.decode_ns_per_row.user", "ns/row", "Chunk.Ints, bit-packed w20"),
			lower("colstore.decode_ns_per_row.ts", "ns/row", "Chunk.Ints, delta"),
			lower("colstore.decode_ns_per_row.latency", "ns/row", "Chunk.Floats, plain + snappy"),
		},
	},
	{
		Module: "exec / features / selector (probe)", Source: "ParallelMorsels over 4,096 empty morsels at P workers; feature extraction and exhaustive selection over 16,384 rows of the ingest columns",
		Moves: "morsel overhead → geomean_ms on scan_warm (cheap templates) and ingest (many small shards); selection → req_per_s and stored_bytes_per_user_byte on ingest, setup_s elsewhere",
		Still: "relational, serve_mix",
		Metrics: []metricDef{
			lower("exec.morsel_overhead_ns", "ns", "scheduling cost of one morsel"),
			lower("features.extract_ms_per_col", "ms", "features.ExtractInts / ExtractStrings"),
			lower("selector.select_ms_per_col", "ms", "selector.BestInt / BestString (what a flush pays per column with no trained model)"),
			lower("selector.size_over_best", "ratio", "size chosen from the candidate set over the best size any implemented encoding reaches; repeats exactly"),
		},
	},
	{
		Module: "codecdb (probe: the kernel → page → pipeline budget)", Source: "one predicate, user in [lo, lo+2^16), on scan_warm's events table: as a bare kernel, as pages fetched + checksummed + scanned, and as Query.Count() on one worker; plus one Table.Wave call with 16 members",
		Moves: "range_query and both overheads → pass_ms on scan_warm; wave numbers → req_per_s on serve_mix",
		Still: "scan_cold (IO-bound)",
		Metrics: []metricDef{
			lower("codecdb.kernel_ns_per_row", "ns/row", "= sboost.range_ns_per_row.w20"),
			lower("codecdb.page_ns_per_row", "ns/row", "Chunk.PackedPageAt + the same kernel, every page of user"),
			lower("codecdb.range_query_ns_per_row", "ns/row", "Query(range).Count(), MaxWorkers 1"),
			lower("codecdb.overhead_over_kernel_ns_per_row", "ns/row", "range_query minus kernel: the ROADMAP gap"),
			lower("codecdb.overhead_over_page_ns_per_row", "ns/row", "range_query minus page: what planning, the morsel pipeline and the terminal add"),
			lower("codecdb.allocs_per_query", "count", "heap objects per Count() call"),
			lower("codecdb.wave16_ns_per_row_member", "ns/row", "wall time of a 16-member wave over rows × 16"),
			lower("codecdb.wave16_pages_per_member", "count", "pages read by the wave over 16"),
		},
	},
}

// perLayer is the flat per-layer list of the contract, in group order.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, g := range layerGroups {
		out = append(out, g.Metrics...)
	}
	return out
}()

// workloadWhy is the one-sentence rationale BENCHMARK.json records per
// workload.
var workloadWhy = map[string]string{
	"scan_warm":  "12 query templates over one static table, OS cache warm, 1 client: kernels, page decode and the morsel pipeline do nearly all the work",
	"scan_cold":  "same table behind a 1 ms-per-read device with a page cache smaller than it: IO wait, coalescing and prefetch dominate, kernels do little",
	"relational": "all 22 TPC-H + 13 SSB queries through the engine: join build/probe, group-by, top-K and plan compilation dominate, scans are a small share",
	"serve_mix":  "P clients on /v1/query, 60% cacheable (Zipf constants), 25% no_cache, 15% joins: result cache, admission, waves and page cache decide",
	"ingest":     "P appenders (fsync per Append) beside 4-template reads over shards + tail, flush, reopen, crash-reopen: write path against read path",
}

// printGlossary writes the README's metric tables as markdown.
func printGlossary(w io.Writer) {
	fmt.Fprintln(w, "| metric | unit | better | bound | meaning |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %g%% | %s |\n", d.Name, d.Unit, d.Better, d.Bound*100, d.What)
	}
	for _, g := range layerGroups {
		fmt.Fprintf(w, "\n**%s** — %s.  \nShould move: %s.  \nNo change predicted: %s.\n\n", g.Module, g.Source, g.Moves, g.Still)
		fmt.Fprintln(w, "| metric | unit | better | meaning |")
		fmt.Fprintln(w, "|---|---|---|---|")
		for _, d := range g.Metrics {
			fmt.Fprintf(w, "| `%s` | %s | %s | %s |\n", d.Name, d.Unit, d.Better, strings.ReplaceAll(d.What, "|", "\\|"))
		}
	}
}

// runSeconds is the length of one measured run in BENCHMARK.json.
const runSeconds = 10

// contractJSON renders BENCHMARK.json from the tables above.
func contractJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, name := range workloadOrder {
		c.Workloads = append(c.Workloads, wl{name, workloadWhy[name]})
	}
	for _, d := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(c, "", "  ")
	return append(out, '\n'), err
}
