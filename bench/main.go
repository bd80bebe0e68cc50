// Command bench is the repository's benchmark: five named workloads over
// generated data, every result checked against a bench-local oracle,
// every metric printed by name with its unit, and — with -trace 1 — a
// second, traced run that times the calls into each module's public
// functions. See README.md for the metric glossary and BENCHMARK.json
// (repository root) for the contract the driver runs it under.
//
//	bash bench/run.sh --workload scan_warm --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --seed 1 --trace 1
//	bash bench/run.sh --workload all --repeat 5 --out a.json
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// scale fixes the input sizes. "full" is what BENCHMARK.json measures;
// "toy" is the same code at smoke-test size with fixed pass counts and
// no dependence on the clock.
type scale struct {
	name        string
	warmRows    int
	coldRows    int
	coldLatency time.Duration
	tpchSF      float64
	ssbSF       float64
	serveBlock  int // requests in one serve_mix pass
	ingestRows  int
	checkpoints int // read passes taken while ingesting
	sealBytes   int
	crashRows   int
	setups      int // set-ups per run; setup_s is their median
	fixedPasses int // >0: run exactly this many passes per phase
	probeReps   int // repetitions of each layer probe
}

var scales = map[string]scale{
	"full": {
		name: "full", warmRows: 1 << 20, coldRows: 1 << 17, coldLatency: time.Millisecond,
		tpchSF: 0.05, ssbSF: 0.05, serveBlock: 256,
		ingestRows: 1 << 20, checkpoints: 8, sealBytes: 4 << 20, crashRows: 20000,
		setups: 3, probeReps: 9,
	},
	"toy": {
		name: "toy", warmRows: 1 << 16, coldRows: 1 << 16, coldLatency: 50 * time.Microsecond,
		tpchSF: 0.002, ssbSF: 0.002, serveBlock: 256,
		ingestRows: 16 << 10, checkpoints: 4, sealBytes: 256 << 10, crashRows: 2000,
		setups: 1, fixedPasses: 3, probeReps: 2,
	},
}

// runConfig is one invocation's settings, shared by every workload.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   int
	scale   scale
	p       int // GOMAXPROCS and the client/appender count
	workDir string
	outDir  string
}

// minPasses is the fewest timed passes a phase accepts, however slow
// the machine.
const minPasses = 5

type workloadFn func(cfg runConfig) (*runResult, error)

var workloadOrder = []string{"scan_warm", "scan_cold", "relational", "serve_mix", "ingest"}

var workloads = map[string]workloadFn{
	"scan_warm":  runScanWarm,
	"scan_cold":  runScanCold,
	"relational": runRelational,
	"serve_mix":  runServeMix,
	"ingest":     runIngest,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errFailed = errors.New("operations failed or returned wrong answers")

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, "+fmt.Sprint(workloadOrder))
	seed := fs.Int64("seed", 1, "drives generated data, predicate constants and request sequences")
	seconds := fs.Float64("seconds", 10, "length of each workload's timed phase")
	trace := fs.Int("trace", 0, "1 repeats the workload traced and reports the per-layer metrics")
	scaleName := fs.String("scale", "full", "input sizes: full or toy")
	clients := fs.Int("clients", 0, "client/appender count (default and maximum: min(nproc, 4))")
	repeat := fs.Int("repeat", 1, "run each workload this many times into one result file")
	out := fs.String("out", "", "result file (default bench/out/<workload>-seed<n>-trace<t>.json)")
	appendTo := fs.Bool("append", false, "add this invocation's runs to the runs already in -out")
	work := fs.String("work", "", "data directory, inside the checkout (default .bench_build/work)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	contract := fs.Bool("contract", false, "print BENCHMARK.json as the metric tables define it and exit")
	glossary := fs.Bool("glossary", false, "print the metric glossary (README tables) and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *glossary {
		printGlossary(os.Stdout)
		return nil
	}
	if *contract {
		out, err := contractJSON()
		if err == nil {
			_, err = os.Stdout.Write(out)
		}
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	p := min(runtime.NumCPU(), 4)
	if *clients > p {
		return fmt.Errorf("-clients %d exceeds P = min(nproc, 4) = %d: more clients than cores measures the scheduler", *clients, p)
	}
	if *clients > 0 {
		p = *clients
	}
	runtime.GOMAXPROCS(p)
	sc, ok := scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown -scale %q", *scaleName)
	}
	root := repoRoot()
	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace,
		scale: sc, p: p,
		workDir: filepath.Join(root, ".bench_build", "work"),
		outDir:  filepath.Join(root, "bench", "out"),
	}
	if *work != "" {
		cfg.workDir = *work
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}

	file := &resultFile{Env: captureEnv(cfg)}
	if *appendTo {
		if *out == "" {
			return errors.New("-append needs -out")
		}
		// Keep the runs already in the file (say, the untraced set) and
		// add this invocation's (the traced run) after them.
		if prev, err := readResultFile(*out); err == nil {
			file.Runs = prev.Runs
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	var last string
	failed := false
	for _, name := range names {
		for i := 0; i < *repeat; i++ {
			res, err := runWorkload(cfg, name)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			file.Runs = append(file.Runs, res)
			res.printLines(os.Stdout)
			if last, err = res.contractLine(); err != nil {
				return err
			}
			failed = failed || !res.Correct
			if len(names) > 1 || *repeat > 1 {
				fmt.Println(last)
			}
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *workload, cfg.seed, cfg.trace))
	}
	if err := file.write(path); err != nil {
		return err
	}
	// The contract's last line: one JSON object. A run with failures
	// still prints it (correct=false, failed>0) and then exits non-zero.
	if len(names) == 1 && *repeat == 1 {
		fmt.Println(last)
	}
	if failed {
		return errFailed
	}
	return nil
}

// runWorkload runs one workload in a fresh data directory and removes
// the directory afterwards.
func runWorkload(cfg runConfig, name string) (*runResult, error) {
	cfg.workDir = filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(cfg.workDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	res, err := workloads[name](cfg)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.put("fail_share", "share", ratio(float64(res.Failed), float64(res.Attempted)))
	return res, nil
}
