package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/memory"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/thesaurus"
	"repro/internal/workload"
)

// scale sizes the workloads. fullScale keeps one 30 s run of a workload,
// with its three set-ups, near 40 s on a 2-core host, so that the 70 runs
// of a full measurement fit in under an hour. The shares the workloads'
// whys quote were measured at this scale (latest/trace.json).
type scale struct {
	smoke                  bool
	fig13, fig1, writes    []string // profiles
	fig13N, fig1N, writesN int      // accesses per profile
	setups                 int      // set-ups per run; setup_s is their median
	warmInvocations        int      // fig13-warm invocations per sample
}

var fullScale = scale{
	// The whole campaign's 176 cells, at a fifteenth of -quick's trace
	// length; a subset would drop the long Ideal cells that set the tail.
	fig13:  profileNames(),
	fig13N: 10_000,
	// The sharded-replay probe's profiles, whose working sets exceed the
	// 1 MB LLC.
	fig1:            []string{"bwaves", "lbm", "mcf", "imagick", "xz", "gcc"},
	fig1N:           200_000,
	writes:          []string{"mcf", "imagick", "xz", "lbm", "gcc", "omnetpp"},
	writesN:         60_000,
	setups:          3,
	warmInvocations: 20,
}

// profileNames lists every profile: the campaign's 22.
func profileNames() []string {
	var names []string
	for _, p := range workload.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

var smokeScale = scale{
	smoke: true,
	fig13: []string{"mcf", "xz"}, fig13N: 20_000,
	fig1: []string{"mcf", "xz"}, fig1N: 20_000,
	writes: []string{"mcf", "xz"}, writesN: 20_000,
	setups: 1, warmInvocations: 20,
}

// stage is one step of a campaign cell's pipeline. A workload's stages
// say which steps its own invocations perform; the traced run measures
// the others too, as probes that are kept out of the reconciliation with
// the untraced CPU time.
type stage uint16

const (
	stRecord   stage = 1 << iota // workload generation and L1/L2 filtering
	stStoreRec                   // persist the recording
	stReplay                     // build the design, replay, release
	stStoreRun                   // persist the run output
	stLoadRun                    // load the run output from the cache
	stCopyRun                    // harness.Run hands its caller a deep copy of the run output
	stVerify                     // replay checks every read against the recording
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name, why string
	cli       *cliSpec // nil: the workload runs in a child copy of this program
	profiles  []string
	accesses  int
	designs   []string // designs whose cells the workload runs
	stages    stage
}

// cliSpec is a workload run through cmd/thesaurus.
type cliSpec struct {
	args      []string // experiment arguments; joined, they key the golden digest
	mode      []string // flags that change how the result is computed, never what
	perSample int      // invocations per sample
	warm      bool     // samples reuse the cache the set-up filled
}

// cells is the number of design × profile cells one invocation covers.
func (w workloadDef) cells() int { return len(w.profiles) * len(w.designs) }

// workloads are the benchmark's workloads. There are three, so that each
// can be measured for 30 s a run: on a shared 2-core host, shorter runs of
// more workloads gave run-to-run spreads of up to 40%.
func workloads(sc scale) []workloadDef {
	fig13 := fig13Args(sc)
	return []workloadDef{
		{name: "fig13-cold", why: "the campaign users run first: 22 profiles x 8 designs into an empty cache; replay is about half the CPU and Ideal the largest share",
			cli: &cliSpec{args: fig13, perSample: 1}, profiles: sc.fig13, accesses: sc.fig13N, designs: scheme.Names(),
			stages: stRecord | stStoreRec | stReplay | stStoreRun | stCopyRun},
		{name: "fig13-warm", why: "the rerun users do most: no replay; loading, decoding and copying 176 cached run outputs is the largest traced share, so a replay optimisation must not move it",
			cli: &cliSpec{args: fig13, perSample: sc.warmInvocations, warm: true}, profiles: sc.fig13, accesses: sc.fig13N, designs: scheme.Names(),
			stages: stLoadRun | stCopyRun},
		{name: "thesaurus-writes", why: "seeded write-heavy profiles replayed into Thesaurus alone with Verify on: a third of LLC events are writebacks (a seventh in fig13), and Thesaurus replay is nearly all the time",
			profiles: sc.writes, accesses: sc.writesN, designs: []string{"Thesaurus"}, stages: stReplay | stVerify},
	}
}

func fig13Args(sc scale) []string {
	return []string{"-n", strconv.Itoa(sc.fig13N), "-profiles", strings.Join(sc.fig13, ","), "fig13"}
}

// distributedSpec and fig1Spec are the traced run's CLI probes (ledger.go):
// fig13 sharded over two worker processes, and fig1 on traces whose
// working sets exceed the LLC.
func distributedSpec(sc scale) *cliSpec {
	return &cliSpec{args: fig13Args(sc), mode: []string{"-distribute", "2", "-workers", "1"}, perSample: 1}
}

func fig1Spec(sc scale) *cliSpec {
	return &cliSpec{args: []string{"-n", strconv.Itoa(sc.fig1N), "-profiles", strings.Join(sc.fig1, ","), "fig1"}, perSample: 1}
}

func findWorkload(sc scale, name string) (workloadDef, bool) {
	for _, w := range workloads(sc) {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// profileList resolves the workload's profiles. thesaurus-writes derives
// write-heavy variants from the seed; the CLI workloads take no seed.
func (w workloadDef) profileList(seed int64) ([]workload.Profile, error) {
	out := make([]workload.Profile, len(w.profiles))
	for i, name := range w.profiles {
		p, err := workload.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		if w.cli == nil {
			p.Seed = mix64(p.Seed ^ mix64(uint64(seed)))
			p.Pattern.WriteFraction = 0.6
		}
		out[i] = p
	}
	return out, nil
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// command prepares a child process in its own process group, so that
// cancelling kills it together with any worker processes it spawned.
func (e *env) command(name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(e.ctx, name, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Join(e.tmp, "tmp"))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	return cmd
}

// runChild runs cmd to completion, then kills whatever is left of its
// process group.
func runChild(cmd *exec.Cmd) (time.Duration, error) {
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if cmd.Process != nil {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // ESRCH when the group is already gone
	}
	return wall, err
}

// invocation is one measured child process.
type invocation struct {
	wall, cpu    time.Duration
	rssKiB       int64
	hits, misses uint64 // artifact cache activity the CLI reported
}

// rusage copies a finished child's CPU time and peak RSS into inv.
func rusage(cmd *exec.Cmd, inv *invocation) {
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		inv.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		inv.rssKiB = ru.Maxrss
	}
}

// invoke runs the workload's CLI command once over cacheDir and checks its
// report against the golden digest.
func (e *env) invoke(c *cliSpec, cacheDir string) (invocation, error) {
	args := append([]string{"-cache-dir", cacheDir}, c.mode...)
	args = append(args, c.args...)
	var stdout, stderr bytes.Buffer
	cmd := e.command(e.bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	wall, err := runChild(cmd)
	inv := invocation{wall: wall}
	if err != nil {
		return inv, fmt.Errorf("thesaurus %s: %w: %s", strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	rusage(cmd, &inv)
	key := strings.Join(c.args, " ")
	if want, got := e.golden[key], digest(stdout.Bytes()); want != got {
		return inv, fmt.Errorf("thesaurus %s: report digest %s, golden %q", strings.Join(args, " "), got, want)
	}
	for _, ln := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(ln, "artifact cache:") {
			fmt.Sscanf(ln, "artifact cache: %d hits, %d misses", &inv.hits, &inv.misses)
		}
	}
	return inv, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexAny(s, "\r\n"); i >= 0 {
		return s[i+1:]
	}
	return s
}

// digest hashes a report without its wall-clock lines.
func digest(out []byte) string {
	h := sha256.New()
	for _, ln := range bytes.SplitAfter(out, []byte("\n")) {
		if !bytes.Contains(ln, []byte("completed in")) {
			h.Write(ln)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cacheBytes sums the artifacts under dir.
func cacheBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".thsa") {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// measure runs a workload untraced: its set-ups, then samples until the
// time is spent (one sample when seconds is 0).
func (e *env) measure(w workloadDef, sc scale, seed int64, seconds time.Duration, setups int) (*workloadResult, error) {
	if w.cli == nil {
		return e.measureWrites(w, sc, seed, seconds, setups)
	}
	r := newResult()
	c := w.cli
	var warmDir string
	for i := 0; i < setups; i++ {
		dir, err := e.freshDir("cache")
		if err != nil {
			return nil, err
		}
		inv, err := e.invoke(c, dir)
		r.Attempted++
		if err != nil {
			r.fail(w.name, err)
			os.RemoveAll(dir)
			continue
		}
		r.add("setup_s", inv.wall.Seconds())
		if c.warm {
			os.RemoveAll(warmDir)
			warmDir = dir
		} else {
			os.RemoveAll(dir)
		}
	}
	if e.ctx.Err() != nil {
		return nil, e.ctx.Err()
	}
	if c.warm && warmDir == "" {
		return r, nil // every set-up failed; the failures are counted
	}
	start := time.Now()
	for {
		t0 := time.Now()
		var wall, cpu time.Duration
		var rss, size int64
		ok := true
		for k := 0; k < c.perSample && ok; k++ {
			dir := warmDir
			if !c.warm {
				var err error
				if dir, err = e.freshDir("cache"); err != nil {
					return nil, err
				}
			}
			inv, err := e.invoke(c, dir)
			r.Attempted++
			if err != nil {
				r.fail(w.name, err)
				ok = false
			}
			wall += inv.wall
			cpu += inv.cpu
			rss = max(rss, inv.rssKiB)
			size = cacheBytes(dir)
			r.hits += inv.hits
			r.misses += inv.misses
			if !c.warm {
				os.RemoveAll(dir)
			}
		}
		if e.ctx.Err() != nil {
			return nil, e.ctx.Err()
		}
		if ok {
			per := wall.Seconds() / float64(c.perSample)
			r.add("wall_s", per)
			r.add("cpu_s", cpu.Seconds()/float64(c.perSample))
			r.add("maccess_per_s", float64(w.accesses*w.cells())/per/1e6)
			r.add("peak_rss_mb", float64(rss)/1024)
			r.add("cache_mb", float64(size)/(1<<20))
		}
		if time.Since(start)+time.Since(t0) > seconds {
			break
		}
	}
	return r, nil
}

// childEnv selects the thesaurus-writes child mode of this program.
const childEnv = "THESAURUS_BENCH_CHILD"

// writesReport is what the thesaurus-writes child prints.
type writesReport struct {
	Setup      []float64 `json:"setup_s"`
	Wall       []float64 `json:"wall_s"`
	CPU        []float64 `json:"cpu_s"`
	CacheBytes int64     `json:"cache_bytes"`
	PeakRSSKiB int64     `json:"peak_rss_kib"` // of the timed replays
	Attempted  int       `json:"attempted"`
	Errors     []string  `json:"errors"`
}

// measureWrites runs thesaurus-writes in a child copy of this program, so
// its CPU time and peak RSS are its own.
func (e *env) measureWrites(w workloadDef, sc scale, seed int64, seconds time.Duration, setups int) (*workloadResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := e.freshDir("writes")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := []string{"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds.Seconds(), 'g', -1, 64),
		"-setups", strconv.Itoa(setups), "-dir", dir, "-smoke=" + strconv.FormatBool(sc.smoke)}
	var stdout, stderr bytes.Buffer
	cmd := e.command(self, args...)
	cmd.Env = append(cmd.Env, childEnv+"=thesaurus-writes")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if _, err := runChild(cmd); err != nil {
		if e.ctx.Err() != nil {
			return nil, e.ctx.Err()
		}
		return nil, fmt.Errorf("child: %w: %s", err, lastLine(stderr.String()))
	}
	var rep writesReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	r := newResult()
	r.Attempted = rep.Attempted
	for _, msg := range rep.Errors {
		r.fail(w.name, errors.New(msg))
	}
	for i := range rep.Wall {
		r.add("wall_s", rep.Wall[i])
		r.add("cpu_s", rep.CPU[i])
		r.add("maccess_per_s", float64(w.accesses*w.cells())/rep.Wall[i]/1e6)
	}
	for _, s := range rep.Setup {
		r.add("setup_s", s)
	}
	r.add("peak_rss_mb", float64(rep.PeakRSSKiB)/1024)
	r.add("cache_mb", float64(rep.CacheBytes)/(1<<20))
	return r, nil
}

// writesChildMain is the thesaurus-writes child: it generates and records
// the seeded profiles (the set-up, repeated), then times Thesaurus
// replays of them until the time is spent, and prints a writesReport.
func writesChildMain(args []string) int {
	fs := flag.NewFlagSet("thesaurus-writes", flag.ContinueOnError)
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 0, "measurement time")
	setups := fs.Int("setups", 1, "set-ups")
	dir := fs.String("dir", "", "private directory for the recordings")
	smoke := fs.Bool("smoke", false, "smoke size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	w, _ := findWorkload(sc, "thesaurus-writes")
	rep, err := runWrites(w, *seed, time.Duration(*seconds*float64(time.Second)), *setups, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

// recordAll is the thesaurus-writes set-up: generate, record and store
// every profile, as the CLI's recording path does.
func recordAll(profiles []workload.Profile, accesses int, dir string) ([]*sim.Recorded, error) {
	cache, err := artifact.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	sys := sim.DefaultSystem()
	recs := make([]*sim.Recorded, len(profiles))
	for i, p := range profiles {
		g := p.Generate(accesses)
		recs[i] = sim.Record(g.Stream, sys, g.Image)
		cache.StoreRecorded(artifact.RecordedKey(p, sys, accesses), recs[i])
	}
	return recs, nil
}

// writesOutcome is everything a Thesaurus replay must reproduce exactly.
type writesOutcome struct {
	Res   sim.Result
	Extra thesaurus.ExtraStats
}

// replayThesaurus is thesaurus-writes' timed operation.
func replayThesaurus(rec *sim.Recorded) (writesOutcome, error) {
	st := memory.NewStore()
	c, err := scheme.Build("Thesaurus", st)
	if err != nil {
		return writesOutcome{}, err
	}
	opt := sim.DefaultReplayOptions()
	opt.Verify = true
	res, err := sim.Replay(c, rec, st, sim.DefaultSystem(), opt)
	snap := c.Release()
	st.Release()
	if err != nil {
		return writesOutcome{}, err
	}
	ts, ok := snap.Extra.(*thesaurus.Snapshot)
	if !ok {
		return writesOutcome{}, fmt.Errorf("Thesaurus snapshot has type %T", snap.Extra)
	}
	return writesOutcome{Res: res, Extra: ts.Extra}, nil
}

func runWrites(w workloadDef, seed int64, seconds time.Duration, setups int, dir string) (writesReport, error) {
	rep := writesReport{Errors: []string{}}
	profiles, err := w.profileList(seed)
	if err != nil {
		return rep, err
	}
	var recs []*sim.Recorded
	for i := 0; i < setups; i++ {
		sub := filepath.Join(dir, "setup-"+strconv.Itoa(i))
		t0 := time.Now()
		got, err := recordAll(profiles, w.accesses, sub)
		if err != nil {
			return rep, err
		}
		rep.Setup = append(rep.Setup, time.Since(t0).Seconds())
		rep.Attempted++
		for j := range recs {
			if !artifact.RecordedEqual(recs[j], got[j]) {
				rep.Errors = append(rep.Errors, fmt.Sprintf("set-up %d recorded %s differently", i, profiles[j].Name))
			}
		}
		recs = got
		rep.CacheBytes = cacheBytes(sub)
		if i > 0 {
			os.RemoveAll(filepath.Join(dir, "setup-"+strconv.Itoa(i-1)))
		}
	}
	// The reported peak RSS is the timed replays': the set-ups' garbage
	// goes first, and the peak restarts from here.
	debug.FreeOSMemory()
	resetPeakRSS()
	var first []writesOutcome
	start := time.Now()
	for {
		t0, cpu0 := time.Now(), processCPU()
		outs := make([]writesOutcome, len(recs))
		for i, rec := range recs {
			rep.Attempted++
			if outs[i], err = replayThesaurus(rec); err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", profiles[i].Name, err))
			}
		}
		rep.Wall = append(rep.Wall, time.Since(t0).Seconds())
		rep.CPU = append(rep.CPU, (processCPU() - cpu0).Seconds())
		if first == nil {
			first = outs
		} else {
			for i := range outs {
				if !reflect.DeepEqual(outs[i], first[i]) {
					rep.Errors = append(rep.Errors, fmt.Sprintf("%s: replay differs from the first sample", profiles[i].Name))
				}
			}
		}
		if time.Since(start)+time.Since(t0) > seconds {
			break
		}
	}
	rep.PeakRSSKiB = peakRSSKiB()
	return rep, nil
}

// resetPeakRSS restarts this process's peak RSS (VmHWM) from its current
// RSS. Where /proc/self/clear_refs is missing, the peak keeps counting
// from the start of the process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // on failure the peak covers the set-ups too
}

// peakRSSKiB is this process's peak RSS since resetPeakRSS, or since it
// started where /proc/self/status is missing.
func peakRSSKiB() int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, ln := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
				var kib int64
				if _, err := fmt.Sscanf(v, "%d", &kib); err == nil {
					return kib
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru.Maxrss
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goldenPath holds the SHA-256 of each CLI configuration's report.
const goldenPath = "bench/golden/digests.json"

func readGolden(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenPath))
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	return m, json.Unmarshal(data, &m)
}

// writeGolden regenerates the golden digests from serial, uncached runs
// of every CLI configuration, workloads and probes, at both scales.
func writeGolden(ctx context.Context, root string) error {
	e, err := newEnv(ctx, root, "")
	if err != nil {
		return err
	}
	defer e.close()
	digests := map[string]string{}
	for _, sc := range []scale{fullScale, smokeScale} {
		specs := []*cliSpec{distributedSpec(sc), fig1Spec(sc)}
		for _, w := range workloads(sc) {
			if w.cli != nil {
				specs = append(specs, w.cli)
			}
		}
		for _, c := range specs {
			key := strings.Join(c.args, " ")
			if _, done := digests[key]; done {
				continue
			}
			var stdout, stderr bytes.Buffer
			cmd := e.command(e.bin, append([]string{"-no-cache", "-workers", "1"}, c.args...)...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if _, err := runChild(cmd); err != nil {
				return fmt.Errorf("thesaurus %s: %w: %s", key, err, lastLine(stderr.String()))
			}
			digests[key] = digest(stdout.Bytes())
			fmt.Fprintf(os.Stderr, "golden: %s %s\n", digests[key], key)
		}
	}
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, goldenPath)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
