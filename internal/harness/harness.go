// Package harness wires workload profiles, the hierarchy simulator, and
// the LLC designs into runnable experiments. Both the cmd/thesaurus CLI
// and the repository's benchmarks drive experiments through this package
// so every figure and table is regenerated from one code path.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/llc"
	"repro/internal/memory"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/thesaurus"
	"repro/internal/uncomp"
)

// Designs are the design names scheme.Build accepts, in report order —
// the scheme registry's registration order, so experiment tables emit
// one column per registered scheme and newly registered schemes append
// columns without disturbing existing ones.
var Designs = scheme.Names()

// DefaultAccesses is the trace length for full experiment runs; tests and
// quick runs use smaller values.
const DefaultAccesses = 2_000_000

// recordedCache memoizes the L1/L2-filtered event stream per (profile,
// accesses): it is identical for every design, so computing it once per
// benchmark removes the dominant cost of multi-design experiments.
var (
	recordedCache sync.Map // key string → *sim.Recorded
	recordFlights sync.Map // key string → *flight[*sim.Recorded]
)

// flight is one in-progress computation that concurrent callers of the
// same memo key wait on instead of duplicating.
type flight[T any] struct {
	wg  sync.WaitGroup
	val T
	err error
}

// coalesce returns the memoized value for key, computing it via fn at
// most once across all callers — concurrent or not. Racing goroutines
// wait for the winner's result rather than each executing fn (the
// RunMatrix workers all hit the same default-config key from every
// sweep). The winner stores into memo before removing its flight, and a
// fresh winner re-checks memo after claiming the flight slot, so fn runs
// exactly once per key over the process lifetime. Errors are returned to
// every waiter but never cached.
func coalesce[T any](memo, flights *sync.Map, key string, fn func() (T, error)) (T, error) {
	if v, ok := memo.Load(key); ok {
		return v.(T), nil
	}
	f := &flight[T]{}
	f.wg.Add(1)
	if cur, loaded := flights.LoadOrStore(key, f); loaded {
		cf := cur.(*flight[T])
		cf.wg.Wait()
		return cf.val, cf.err
	}
	// We own the flight. The result may have landed in memo between the
	// miss above and the LoadOrStore (a previous winner stores before
	// deleting its flight); re-check before doing the work.
	if v, ok := memo.Load(key); ok {
		f.val = v.(T)
	} else {
		f.val, f.err = fn()
		if f.err == nil {
			memo.Store(key, f.val)
		}
	}
	flights.Delete(key)
	f.wg.Done()
	return f.val, f.err
}

// RecordProfile generates the named profile's trace and filters it
// through the private cache levels, memoizing the result. Concurrent
// calls for the same (profile, accesses) are coalesced into one
// recording. When an artifact cache is installed (UseArtifacts), the
// recording is loaded from disk instead of simulated where possible, and
// persisted otherwise; the disk lookup happens inside the coalesced
// flight, so it runs exactly once per key per process.
func RecordProfile(name string, accesses int) (*sim.Recorded, error) {
	key := fmt.Sprintf("%s/%d", name, accesses)
	return coalesce(&recordedCache, &recordFlights, key, func() (*sim.Recorded, error) {
		return recordOrLoad(name, accesses)
	})
}

// RunOptions configures a design × benchmark run.
type RunOptions struct {
	Accesses int
	Replay   sim.ReplayOptions
	// Thesaurus, when non-nil, overrides the Thesaurus configuration
	// (used by the sweeps and ablations).
	Thesaurus *thesaurus.Config
	// Workers bounds the concurrency of RunMatrix and the per-profile
	// experiment loops; 0 means GOMAXPROCS, 1 forces serial execution.
	// Results are deterministic for any value.
	Workers int
}

// DefaultRunOptions returns full-experiment defaults.
func DefaultRunOptions() RunOptions {
	return RunOptions{Accesses: DefaultAccesses, Replay: sim.DefaultReplayOptions()}
}

// RunOutput bundles a completed design × benchmark run: the metrics, the
// released cache's statistics snapshot (for design-specific statistics),
// and, for Thesaurus, the time-averaged base-table cluster-size
// distribution (Fig. 16). It is the run-level artifact's type, so a run
// loads from and stores to disk as is. Every Run call returns its own
// deep copy, so a caller may mutate its view without corrupting the
// memoized master or other callers.
type RunOutput = artifact.RunOutput

// runCache memoizes completed runs so the per-figure experiments can
// share them (the whole evaluation reuses one Thesaurus run per profile).
var (
	runCache   sync.Map // key string → *RunOutput (the immutable master)
	runFlights sync.Map // key string → *flight[*RunOutput]
)

// replays counts replay executions (not memo hits); the concurrency
// regression tests assert on it.
var replays atomic.Uint64

// runKey canonically encodes everything that affects a memoized run's
// result: profile, design, trace length, and each scalar replay option.
// Workers is deliberately excluded (results are deterministic for any
// worker count), and memoized runs always use the default Thesaurus
// configuration, so neither needs encoding. A caller-provided OnSample
// hook disables memoization instead of being encoded (it is a side
// effect, not part of the result). lines marks a RunWithLines run.
func runKey(profile, design string, opt RunOptions, lines bool) string {
	r := opt.Replay
	return fmt.Sprintf("%s/%s/n%d/w%g/s%d/v%t/l%t",
		profile, design, opt.Accesses, r.WarmupFraction, r.SampleEvery, r.Verify, lines)
}

// Run replays profile into design with memoization. Thesaurus runs also
// collect the Fig. 16 cluster-size samples and the Fig. 19 diff series.
func Run(profile, design string, opt RunOptions) (*RunOutput, error) {
	return run(profile, design, opt, false)
}

// RunWithLines is Run for a conventional design (Baseline or 2x
// Baseline) whose release snapshot also carries the LLC's resident lines
// (uncomp.Snapshot.Lines), the input of the snapshot-based motivation
// experiments. Run leaves them out: they are a megabyte per run that no
// other report reads. The request is part of the memo key and of the
// run-level artifact key, so the two kinds of run never share an entry.
func RunWithLines(profile, design string, opt RunOptions) (*RunOutput, error) {
	if !hasLineSnapshot(design) {
		return nil, fmt.Errorf("harness: design %q has no resident-line snapshot", design)
	}
	return run(profile, design, opt, true)
}

func run(profile, design string, opt RunOptions, lines bool) (*RunOutput, error) {
	// Custom-configuration runs (sweeps, ablations) are not memoized:
	// at full scale they would pin hundreds of results in memory that are
	// read exactly once. The exception is a sweep point equal to the
	// paper-default configuration — every ablation includes one — which
	// shares the default design's memo entry (effectiveThesaurusConfig
	// makes the runs identical), so a campaign pays for the
	// default Thesaurus run once rather than per sweep. A caller-provided
	// OnSample hook also disables memoization: the hook must observe its
	// own replay, and the memo key cannot encode a function.
	memoize := (opt.Thesaurus == nil || *opt.Thesaurus == thesaurus.DefaultConfig()) &&
		opt.Replay.OnSample == nil
	if !memoize {
		// An OnSample hook must observe its own live replay, so it can
		// never be served from the run-level disk cache either.
		if opt.Replay.OnSample != nil {
			return runOnce(profile, design, opt, false, lines)
		}
		return runOrLoad(profile, design, opt, false, lines)
	}
	out, err := coalesce(&runCache, &runFlights, runKey(profile, design, opt, lines), func() (*RunOutput, error) {
		return runOrLoad(profile, design, opt, true, lines)
	})
	if err != nil {
		return nil, err
	}
	// Hand each caller an isolated deep copy; the master in runCache stays
	// immutable no matter what callers do with their view.
	return out.Clone(), nil
}

// hasLineSnapshot reports whether design is built on uncomp.Cache, whose
// release snapshot can carry the resident lines (uncomp.Cache.KeepLines):
// the designs RunWithLines accepts.
func hasLineSnapshot(design string) bool {
	return design == "Baseline" || design == "2x Baseline"
}

// runOnce executes one replay without consulting the memo. sample
// enables the Fig. 16 cluster-size sampling (memoized default runs only);
// lines keeps the resident lines in the snapshot (RunWithLines).
func runOnce(profile, design string, opt RunOptions, sample, lines bool) (*RunOutput, error) {
	rec, err := RecordProfile(profile, opt.Accesses)
	if err != nil {
		return nil, err
	}
	// The backing store's pages and page map are only needed during
	// replay; the statistics the experiments read are copied out of it
	// first. Releasing it on every return, a failed build or replay
	// included, keeps long campaigns (one store per design × profile)
	// within memory.
	st := memory.NewStore()
	defer st.Release()
	var c llc.Cache
	if cfg := effectiveThesaurusConfig(design, opt); cfg != nil {
		c, err = thesaurus.New(*cfg, st)
	} else {
		c, err = scheme.Build(design, st)
	}
	if err != nil {
		return nil, err
	}
	if lines {
		c.(*uncomp.Cache).KeepLines()
	}
	out := &RunOutput{}
	ropt := opt.Replay
	// The Fig. 16 cluster-size sampling walks the whole base table and
	// costs a measurable slice of replay time; only the memoized default
	// runs feed Fig. 16, so custom-configuration sweep runs skip it.
	if th, ok := c.(*thesaurus.Cache); ok && sample {
		samples, taken := 0, 0
		var fracs [4]float64
		ropt.OnSample = func(llc.Cache) {
			// Sampling the whole base table every footprint sample is too
			// slow; every 16th suffices for a stable Fig. 16 average.
			if samples%16 == 0 {
				f := th.BaseTable().ClusterSizes()
				taken++
				for i := range fracs {
					fracs[i] += f[i]
					out.ClusterFracs[i] = fracs[i] / float64(taken)
				}
			}
			samples++
		}
	}
	replays.Add(1)
	res, err := sim.Replay(c, rec, st, sim.DefaultSystem(), ropt)
	// End of the cache's life, whether or not the replay verified: extract
	// the immutable statistics snapshot and return the bulk storage to the
	// design's pools — the Thesaurus base table to the per-size pool for
	// the next sweep configuration. Nothing may touch c after this point
	// (the lint suite's releaseuse analyzer checks).
	snap := c.Release()
	if err != nil {
		return nil, err
	}
	out.Res = res
	out.Snap = snap
	return out, nil
}

// RunKey names one (profile, design) cell of an experiment matrix.
type RunKey struct {
	Profile string
	Design  string
}

// RunMatrix executes every (profile, design) pair on a ParMap worker
// pool bounded by opt.Workers. Runs are independent and deterministic,
// so parallelism changes wall time only; results are memoized exactly as
// in Run. The first error stops the pool from starting further runs.
// No pre-recording pass is needed: RecordProfile coalesces concurrent
// recordings of the same profile, so workers that race into one profile
// share a single recording while distinct profiles record in parallel.
func RunMatrix(keys []RunKey, opt RunOptions) (map[RunKey]*RunOutput, error) {
	outs, err := ParMap(len(keys), opt.Workers, func(i int) (*RunOutput, error) {
		k := keys[i]
		out, err := Run(k.Profile, k.Design, opt)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", k.Profile, k.Design, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	got := make(map[RunKey]*RunOutput, len(keys))
	for i, k := range keys {
		got[k] = outs[i]
	}
	return got, nil
}

// clampWorkers resolves a Workers setting against n independent tasks:
// 0 (or negative) means GOMAXPROCS, and the result never exceeds n or
// drops below 1.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ParMap evaluates fn(0..n-1) on a bounded worker pool and returns the
// results in index order, so callers assemble reports exactly as a serial
// loop would — parallelism changes wall time only. workers follows the
// RunOptions.Workers convention (0 = GOMAXPROCS, 1 = serial). The first
// error wins and stops the pool from starting further indices;
// already-running calls finish and their results are discarded.
func ParMap[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return out, nil
}
