// Command bench is the repository's benchmark. It measures the campaigns
// people wait on, end to end, and splits their time into the layers of
// the simulator.
//
// An untraced run builds cmd/thesaurus from source and times whole
// invocations of it as child processes, one at a time (a closed loop with
// one client). A traced run (-trace 1) also times calls into each layer's
// public functions in-process and writes the spans as Chrome trace-event
// JSON to .bench_build/trace-<workload>.json, from which it derives the
// per-layer metrics. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory explains them.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bash bench/run.sh -compare A.json B.json
//	bash bench/run.sh -golden
//
// Without -workload every workload runs in turn. The last line of standard
// output is one JSON object: correctness, operation counts, and the median
// of every end-to-end metric (or, with -trace 1, every per-layer metric).
// When every workload runs, that object describes the whole suite and
// -out holds the per-workload results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Seeds. Only thesaurus-writes consumes a seed (the CLI takes none); a
// speed-up claimed on it must also hold on heldOutSeed, which is never used
// while a change is being written.
const (
	defaultSeed = 1
	heldOutSeed = 20240917
)

// options are the command-line settings of one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string

	// Set by tests only.
	smoke     bool   // smoke size: 2 profiles, 20k accesses, one set-up
	traceDir  string // where traced runs write trace-<workload>.json
	tmpParent string // where the private temp root is created
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(writesChildMain(os.Args[1:]))
	}
	os.Exit(cliMain(os.Args[1:], os.Stdout))
}

// cliMain parses args and runs the requested mode, returning the exit code.
func cliMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed (only thesaurus-writes is seeded)")
	fs.IntVar(&o.seconds, "seconds", 30, "measurement time per workload; 0 takes one sample")
	// A flag that takes its value as the next argument, so that
	// "-trace 0" and "-trace 1" both parse.
	fs.Func("trace", "1 = traced run: per-layer metrics and a Chrome trace per workload", func(v string) (err error) {
		o.trace, err = strconv.ParseBool(v)
		return err
	})
	fs.StringVar(&o.out, "out", "", "write the per-workload results document (JSON) to this file")
	compare := fs.Bool("compare", false, "compare two results documents: -compare A.json B.json")
	golden := fs.Bool("golden", false, "regenerate golden/digests.json with -no-cache -workers 1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareMain(root, fs.Arg(0), fs.Arg(1), stdout)
	}
	if o.seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 0")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *golden {
		if err := writeGolden(ctx, root); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if err := runBench(ctx, root, o, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// findRoot returns the repository root: the working directory or its
// parent (when run from bench/), recognised by cmd/thesaurus.
func findRoot() (string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{cwd, filepath.Dir(cwd)} {
		if fi, err := os.Stat(filepath.Join(dir, "cmd", "thesaurus")); err == nil && fi.IsDir() {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("no repository root (cmd/thesaurus and BENCHMARK.json) at or above %s", cwd)
}

// env is one benchmark invocation's private environment: every cache,
// spool and binary lives under tmp, which close removes.
type env struct {
	ctx    context.Context
	tmp    string
	bin    string // the freshly built cmd/thesaurus
	golden map[string]string
	seq    int
}

func newEnv(ctx context.Context, root, tmpParent string) (*env, error) {
	if tmpParent == "" {
		tmpParent = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpParent, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{ctx: ctx, tmp: tmp, bin: filepath.Join(tmp, "thesaurus")}
	if err := os.Mkdir(filepath.Join(tmp, "tmp"), 0o755); err != nil {
		e.close()
		return nil, err
	}
	if e.golden, err = readGolden(root); err != nil {
		e.close()
		return nil, err
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", e.bin, "./cmd/thesaurus")
	build.Dir = root
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		e.close()
		return nil, fmt.Errorf("building cmd/thesaurus: %w", err)
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.tmp) }

// freshDir returns a new empty directory under the temp root.
func (e *env) freshDir(prefix string) (string, error) {
	e.seq++
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", prefix, e.seq))
	return dir, os.Mkdir(dir, 0o755)
}

// provenance identifies what was measured and where.
type provenance struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Seed       int64  `json:"seed"`
	HeldOut    int64  `json:"held_out_seed"`
	Commit     string `json:"commit"`
	Trace      bool   `json:"trace"`
	Smoke      bool   `json:"smoke"`
	Seconds    int    `json:"seconds"`
}

// gitCommit names the measured tree: the commit, marked -dirty when the
// working tree differs from it.
func gitCommit(ctx context.Context, root string) string {
	out, err := exec.CommandContext(ctx, "git", "-C", root, "describe", "--always", "--dirty", "--abbrev=40").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

// runBench runs the selected workloads and prints their results, ending
// with the one-line JSON verdict.
func runBench(ctx context.Context, root string, o options, stdout io.Writer) error {
	sc := fullScale
	if o.smoke {
		sc = smokeScale
	}
	selected := workloads(sc)
	if o.workload != "" {
		w, ok := findWorkload(sc, o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workloadDef{w}
	}
	e, err := newEnv(ctx, root, o.tmpParent)
	if err != nil {
		return err
	}
	defer e.close()

	doc := resultsDoc{
		Schema: resultsSchema,
		Env: provenance{
			Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Seed: o.seed, HeldOut: heldOutSeed, Commit: gitCommit(ctx, root), Trace: o.trace, Smoke: o.smoke, Seconds: o.seconds,
		},
		Workloads: map[string]*workloadResult{},
	}
	fmt.Fprintf(stdout, "bench: %s GOMAXPROCS=%d NumCPU=%d seed=%d commit=%s\n",
		doc.Env.Go, doc.Env.GOMAXPROCS, doc.Env.NumCPU, o.seed, doc.Env.Commit)
	seconds := time.Duration(o.seconds) * time.Second
	for _, w := range selected {
		var r *workloadResult
		if o.trace {
			dir := o.traceDir
			if dir == "" {
				dir = filepath.Join(root, ".bench_build")
			}
			if r, err = e.traced(w, sc, o.seed, seconds, filepath.Join(dir, "trace-"+w.name+".json")); err == nil {
				r.summarize(perLayer())
			}
		} else if r, err = e.measure(w, sc, o.seed, seconds, sc.setups); err == nil {
			r.summarize(endToEnd)
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("%s: %w", w.name, err)
		}
		doc.Workloads[w.name] = r
		r.print(stdout, w.name)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printVerdict(stdout, doc, selected, o.trace)
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printVerdict writes the one-line JSON result. With one workload the
// metrics are its medians; with several, each metric is the median over
// workloads of the per-workload medians, and -out holds the detail.
func printVerdict(w io.Writer, doc resultsDoc, selected []workloadDef, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	v := verdict{Metrics: map[string]metricValue{}}
	for _, wd := range selected {
		r := doc.Workloads[wd.name]
		v.Attempted += r.Attempted
		v.Failed += r.Failed
	}
	v.Correct = v.Failed == 0
	for _, d := range defs {
		var meds []float64
		for _, wd := range selected {
			if s, ok := doc.Workloads[wd.name].Metrics[d.Name]; ok && s.N > 0 {
				meds = append(meds, s.Median)
			}
		}
		if len(meds) == 0 {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		v.Metrics[d.Name] = metricValue{Value: median(meds), Unit: d.Unit}
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
