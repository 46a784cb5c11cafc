package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/llc"
	"repro/internal/memory"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/thesaurus"
	"repro/internal/trace"
	"repro/internal/workload"
)

// span is one timed call into a layer. Spans nest: parent is the span
// that was open when this one began (-1 at top level).
type span struct {
	id, parent      int
	name, cat, cell string
	start, end      time.Duration // since the tracer's epoch
}

// Span categories. Only "run" spans are work the workload's own
// invocations do; the self-times of those reconcile with its untraced CPU
// time. "probe" spans measure a layer the workload bypasses, and "cli"
// spans are whole child processes.
const (
	catRun   = "run"
	catProbe = "probe"
	catCLI   = "cli"
)

// tracer records spans in memory from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name, cat, cell string, fn func()) time.Duration {
	id := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, cat: cat, cell: cell, start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.epoch)
	return t.spans[id].end - t.spans[id].start
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// write saves the spans as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open.
func (t *tracer) write(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := t.selfTimes()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Cat: s.cat, Ph: "X", PID: 1, TID: 1,
			TS: us(s.start), Dur: us(s.end - s.start),
			Args: map[string]any{"id": s.id, "parent": s.parent, "cell": s.cell, "self_us": us(self[i])}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// minLedgerPasses is the fewest ledger passes a traced run makes, so that
// the per-layer metrics are medians even when the probes take most of the
// run's time.
const minLedgerPasses = 3

// traced runs a workload with tracing: untraced reference samples for a
// third of the time, the queue-overhead and sharded-replay probes through
// the CLI, then in-process ledger passes over the workload's inputs until
// the time is spent (at least minLedgerPasses), and a per-operation LLC
// probe. It returns the per-layer metrics, with each layer call's share of
// the untraced CPU time, and writes the spans to traceOut.
func (e *env) traced(w workloadDef, sc scale, seed int64, seconds time.Duration, traceOut string) (*workloadResult, error) {
	start := time.Now()
	tr := newTracer()
	r := newResult()
	var ref *workloadResult
	var err error
	tr.do("cli."+w.name, catCLI, "", func() { ref, err = e.measure(w, sc, seed, seconds/3, 1) })
	if err != nil {
		return nil, err
	}
	r.Attempted, r.Failed = ref.Attempted, ref.Failed
	if len(ref.Samples["cpu_s"]) == 0 {
		return r, nil // the reference failed; the failure is counted
	}
	refWall, refCPU := median(ref.Samples["wall_s"]), median(ref.Samples["cpu_s"])

	// Queue overhead: the fig13 matrix cold, in-process and across two
	// worker processes.
	cold, _ := findWorkload(sc, "fig13-cold")
	for _, p := range e.probePairs(tr, r, cold.cli, distributedSpec(sc), "") {
		r.add("workq.overhead_ms_per_cell", (p[1]-p[0])*1e3/float64(cold.cells()))
	}
	// Sharded replay: fig1 with the run cache off, over recordings that
	// one fig1 invocation stores, at -workers 2, where the set-partitioned
	// Baseline replays through sim.ReplaySharded inside the worker pool,
	// against the default worker count.
	dir, err := e.freshDir("cache")
	if err != nil {
		return nil, err
	}
	fill := fig1Spec(sc)
	one, two := *fill, *fill
	one.mode = []string{"-no-run-cache"}
	two.mode = []string{"-no-run-cache", "-workers", "2"}
	if _, ok := e.probe(tr, r, fill, dir); ok {
		for _, p := range e.probePairs(tr, r, &one, &two, dir) {
			r.add("sim.replay_sharded_ratio", p[1]/p[0])
		}
	}
	os.RemoveAll(dir)

	profiles, err := w.profileList(seed)
	if err != nil {
		return nil, err
	}
	var first *sim.Recorded
	shares := map[string][]float64{}
	for passes := 1; ; passes++ {
		t0 := time.Now()
		dir, err := e.freshDir("ledger")
		if err != nil {
			return nil, err
		}
		from := len(tr.spans)
		m, rec, err := ledgerPass(tr, w, profiles, dir)
		os.RemoveAll(dir)
		r.Attempted++
		if err != nil {
			r.fail(w.name, err)
			break
		}
		first = rec
		self, total := runSelf(tr, from)
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			shares[name] = append(shares[name], self[name]/refCPU)
		}
		m["trace.overhead_frac"] = total/refCPU - 1
		for k, v := range m {
			r.add(k, v)
		}
		if e.ctx.Err() != nil {
			return nil, e.ctx.Err()
		}
		if passes >= minLedgerPasses && time.Since(start)+time.Since(t0) > seconds {
			break
		}
	}
	if first != nil {
		for k, v := range llcProbe(tr, first, profiles[0].Name) {
			r.add(k, v)
		}
	}
	r.add("harness.parallelism", refCPU/refWall)
	r.CPUShare = map[string]float64{}
	for name, v := range shares {
		r.CPUShare[name] = median(v)
	}
	ratio := 0.0
	if ref.hits+ref.misses > 0 {
		ratio = float64(ref.hits) / float64(ref.hits+ref.misses)
	}
	r.add("artifact.hit_ratio", ratio)

	printSelfTimes(os.Stderr, w.name, tr, refCPU)
	meta := map[string]any{"workload": w.name, "seed": seed, "untraced_wall_s": refWall, "untraced_cpu_s": refCPU}
	if err := tr.write(traceOut, meta); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: trace written to %s\n", w.name, traceOut)
	return r, nil
}

// runSelf sums the self-times of the "run" spans recorded since index
// from, by span name and in total, in seconds.
func runSelf(tr *tracer, from int) (map[string]float64, float64) {
	self := tr.selfTimes()
	byName := map[string]float64{}
	var sum float64
	for i := from; i < len(tr.spans); i++ {
		if tr.spans[i].cat == catRun {
			byName[tr.spans[i].name] += self[i].Seconds()
			sum += self[i].Seconds()
		}
	}
	return byName, sum
}

// probe runs one CLI invocation for a traced run, over dir or, when dir
// is empty, over a fresh cache that it removes afterwards, and returns its
// wall time. A failure is counted in r.
func (e *env) probe(tr *tracer, r *workloadResult, c *cliSpec, dir string) (float64, bool) {
	if dir == "" {
		fresh, err := e.freshDir("cache")
		if err != nil {
			r.fail("probe", err)
			return 0, false
		}
		defer os.RemoveAll(fresh)
		dir = fresh
	}
	var inv invocation
	var err error
	name := "cli " + strings.Join(append(append([]string(nil), c.mode...), c.args...), " ")
	tr.do(name, catCLI, "", func() { inv, err = e.invoke(c, dir) })
	r.Attempted++
	if err != nil {
		r.fail("probe", err)
		return 0, false
	}
	return inv.wall.Seconds(), true
}

// probePairs runs a then b three times over, as probe does, and returns
// each pair's wall times; alternating spreads the host's drift over both.
// It stops at the first failure.
func (e *env) probePairs(tr *tracer, r *workloadResult, a, b *cliSpec, dir string) [][2]float64 {
	var out [][2]float64
	for i := 0; i < 3; i++ {
		wa, okA := e.probe(tr, r, a, dir)
		wb, okB := e.probe(tr, r, b, dir)
		if !okA || !okB {
			break
		}
		out = append(out, [2]float64{wa, wb})
	}
	return out
}

// printSelfTimes reports where the traced run's time went, by span name.
func printSelfTimes(w *os.File, workload string, tr *tracer, refCPU float64) {
	self := tr.selfTimes()
	type row struct {
		name string
		run  time.Duration
		all  time.Duration
	}
	idx := map[string]int{}
	var rows []row
	for i, s := range tr.spans {
		if s.cat == catCLI {
			continue
		}
		k, ok := idx[s.name]
		if !ok {
			k = len(rows)
			idx[s.name] = k
			rows = append(rows, row{name: s.name})
		}
		rows[k].all += self[i]
		if s.cat == catRun {
			rows[k].run += self[i]
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].run > rows[j].run })
	fmt.Fprintf(w, "%s: self-time by layer call (run = the workload's own work; untraced cpu %.3fs per invocation)\n", workload, refCPU)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s run %9.3fs  all %9.3fs\n", r.name, r.run.Seconds(), r.all.Seconds())
	}
}

func cat(own bool) string {
	if own {
		return catRun
	}
	return catProbe
}

// ledgerPass runs the workload's pipeline once, serially, through each
// layer's public functions: generate, record, encode, store and load the
// recording; then per design build, replay, release, and store and load
// the run output. Designs the workload does not run are replayed on its
// first profile only, as probes. It returns the pass's per-layer metrics
// and the first profile's recording.
func ledgerPass(tr *tracer, w workloadDef, profiles []workload.Profile, dir string) (map[string]float64, *sim.Recorded, error) {
	cache, err := artifact.Open(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	own := func(s stage) bool { return w.stages&s != 0 }
	sys := sim.DefaultSystem()
	opt := sim.DefaultReplayOptions()
	opt.Verify = own(stVerify)
	var (
		gen, rec, enc, dec, storeRec, loadRec, loadRun time.Duration
		events, writes, runLoads, runBytes             int
		replayDur                                      = map[string]time.Duration{}
		replayEvents                                   = map[string]int{}
		th                                             thesaurus.ExtraStats
		first                                          *sim.Recorded
		fail                                           error
	)
	from := len(tr.spans)
	for pi, p := range profiles {
		n := w.accesses
		var acc []trace.Access
		var img *memory.Store
		gen += tr.do("workload.generate", cat(own(stRecord)), p.Name, func() {
			g := p.Generate(n)
			img = g.Image
			acc = drain(g.Stream, n)
		})
		var r *sim.Recorded
		rec += tr.do("sim.record", cat(own(stRecord)), p.Name, func() { r = sim.Record(trace.NewSliceSource(acc), sys, img) })
		acc, img = nil, nil
		var data []byte
		enc += tr.do("artifact.encode", catProbe, p.Name, func() { data = artifact.Encode(nil, &artifact.File{Recorded: r}) })
		key := artifact.RecordedKey(p, sys, n)
		storeRec += tr.do("artifact.store_recorded", cat(own(stStoreRec)), p.Name, func() { cache.StoreRecorded(key, r) })
		loadRec += tr.do("artifact.load_recorded", catProbe, p.Name, func() {
			if _, ok := cache.LoadRecorded(key); !ok {
				fail = fmt.Errorf("%s: stored recording did not load", p.Name)
			}
		})
		dec += tr.do("artifact.decode", catProbe, p.Name, func() {
			if _, err := artifact.Decode(data); err != nil {
				fail = err
			}
		})
		data = nil
		if fail != nil {
			return nil, nil, fail
		}
		if pi == 0 {
			first = r
		}
		events += len(r.Events)
		for i := range r.Events {
			if r.Events[i].Kind == sim.EventWrite {
				writes++
			}
		}
		for _, s := range slugs {
			mine := contains(w.designs, s.design)
			if !mine && pi > 0 {
				continue
			}
			cell := p.Name + "/" + s.design
			replayCat := cat(mine && own(stReplay))
			tr.do("harness.cell", cat(mine), cell, func() {
				st := memory.NewStore()
				var c llc.Cache
				tr.do("scheme.build", replayCat, cell, func() { c, err = scheme.Build(s.design, st) })
				if err != nil {
					fail = err
					return
				}
				var res sim.Result
				d := tr.do("sim.replay", replayCat, cell, func() { res, err = sim.Replay(c, r, st, sys, opt) })
				if err != nil {
					fail = fmt.Errorf("%s: %w", cell, err)
					return
				}
				replayDur[s.design] += d
				replayEvents[s.design] += len(r.Events)
				var snap llc.StatsSnapshot
				tr.do("llc.release", replayCat, cell, func() { snap = c.Release() })
				tr.do("memory.release", replayCat, cell, func() { st.Release() })
				if x, ok := snap.Extra.(*thesaurus.Snapshot); ok {
					th = addExtra(th, x.Extra)
				}
				rkey := artifact.RunOutputKey(p, sys, s.design, n, opt, false, nil)
				tr.do("artifact.store_runoutput", cat(mine && own(stStoreRun)), cell, func() {
					cache.StoreRunOutput(rkey, &artifact.RunOutput{Res: res, Snap: snap})
				})
				var out *artifact.RunOutput
				loadRun += tr.do("artifact.load_runoutput", cat(mine && own(stLoadRun)), cell, func() {
					var ok bool
					if out, ok = cache.LoadRunOutput(rkey); !ok {
						fail = fmt.Errorf("%s: stored run output did not load", cell)
					}
				})
				if out != nil {
					tr.do("llc.snapshot_clone", cat(mine && own(stCopyRun)), cell, func() { out.Snap.Clone() })
				}
				if fi, err := os.Stat(filepath.Join(dir, rkey+".thsa")); err == nil {
					runBytes += int(fi.Size())
				}
				runLoads++
			})
			if fail != nil {
				return nil, nil, fail
			}
		}
	}

	nprof := float64(len(profiles))
	accesses := float64(w.accesses) * nprof
	m := map[string]float64{
		"workload.gen_ns_per_access":     ns(gen) / accesses,
		"sim.record_ns_per_access":       ns(rec) / accesses,
		"artifact.encode_ns_per_event":   ns(enc) / float64(events),
		"artifact.store_recorded_ms":     ns(storeRec) / 1e6 / nprof,
		"artifact.decode_ns_per_event":   ns(dec) / float64(events),
		"artifact.load_recorded_ms":      ns(loadRec) / 1e6 / nprof,
		"artifact.load_runoutput_us":     ns(loadRun) / 1e3 / float64(runLoads),
		"artifact.runoutput_kib":         float64(runBytes) / 1024 / float64(runLoads),
		"sim.llc_events":                 float64(events),
		"sim.llc_write_frac":             float64(writes) / float64(events),
		"thesaurus.insertions":           float64(th.Insertions),
		"thesaurus.reencodes":            float64(th.Reencodes),
		"thesaurus.raw_due_to_base_miss": float64(th.RawDueToBaseMiss),
		"thesaurus.data_evictions":       float64(th.DataEvictions),
		"thesaurus.compressible_frac":    th.CompressibleFraction(),
	}

	// Shares and cell times come from the "run" spans' self-times: the
	// workload's own work, as its untraced invocation does it.
	self := tr.selfTimes()
	var runTotal time.Duration
	replayRun := map[string]time.Duration{} // design → self-time
	cellRun := map[string]time.Duration{}   // cell → self-time of its spans
	var cellOrder []string
	for i := from; i < len(tr.spans); i++ {
		if s := tr.spans[i]; s.cat == catRun && s.name == "harness.cell" {
			cellOrder = append(cellOrder, s.cell)
			cellRun[s.cell] = 0
		}
	}
	for i := from; i < len(tr.spans); i++ {
		s := tr.spans[i]
		if s.cat != catRun {
			continue
		}
		runTotal += self[i]
		if s.name == "sim.replay" {
			_, design, _ := strings.Cut(s.cell, "/")
			replayRun[design] += self[i]
		}
		if _, ok := cellRun[s.cell]; ok {
			cellRun[s.cell] += self[i]
		}
	}
	for _, s := range slugs {
		m["sim.replay_ns_per_event."+s.slug] = ns(replayDur[s.design]) / float64(replayEvents[s.design])
		m["sim.replay_share."+s.slug] = replayRun[s.design].Seconds() / runTotal.Seconds()
	}
	cells := make([]float64, len(cellOrder))
	for i, c := range cellOrder {
		cells[i] = ns(cellRun[c]) / 1e6
	}
	sort.Float64s(cells)
	if len(cells) > 0 {
		m["harness.cell_ms_p50"] = median(cells)
		m["harness.cell_ms_p90"] = cells[(len(cells)*9+9)/10-1]
		m["harness.cell_ms_max"] = cells[len(cells)-1]
	}
	return m, first, nil
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// addExtra sums the Thesaurus counters the ledger reports.
func addExtra(a, b thesaurus.ExtraStats) thesaurus.ExtraStats {
	a.Insertions += b.Insertions
	a.Reencodes += b.Reencodes
	a.Placements += b.Placements
	a.Compressible += b.Compressible
	a.RawDueToBaseMiss += b.RawDueToBaseMiss
	a.DataEvictions += b.DataEvictions
	return a
}

// drain generates n accesses from src into one slice, in the batches the
// recorder would pull.
func drain(src trace.Source, n int) []trace.Access {
	bs, ok := src.(trace.BatchSource)
	if !ok {
		return trace.Collect(src, n)
	}
	out := make([]trace.Access, n)
	got := 0
	for got < n {
		k := bs.FillBatch(out[got:min(got+512, n)])
		got += k
		if k == 0 {
			break
		}
	}
	return out[:got]
}

// llcProbe drives rec into every design through llc.Cache the way
// sim.Replay does, timing every stride-th operation and subtracting the
// cost of an empty timer, and returns the llc.<slug>.* metrics.
func llcProbe(tr *tracer, rec *sim.Recorded, profile string) map[string]float64 {
	const stride = 16
	timer := timerCost()
	m := map[string]float64{}
	for _, s := range slugs {
		st := memory.NewStore()
		c, err := scheme.Build(s.design, st)
		if err != nil {
			continue
		}
		st.Reserve(rec.UniqueLines)
		var hitT, missT, writeT time.Duration
		var hitN, missN, writeN, reads, readHits int
		tr.do("llc.ops", catProbe, profile+"/"+s.design, func() {
			for i := range rec.Events {
				ev := &rec.Events[i]
				timed := i%stride == 0
				var t0 time.Time
				if ev.Kind == sim.EventRead {
					st.Poke(ev.Addr, ev.Data)
					if timed {
						t0 = time.Now()
					}
					_, hit := c.Read(ev.Addr)
					if timed {
						d := time.Since(t0)
						if hit {
							hitT, hitN = hitT+d, hitN+1
						} else {
							missT, missN = missT+d, missN+1
						}
					}
					reads++
					if hit {
						readHits++
					}
					continue
				}
				if timed {
					t0 = time.Now()
				}
				c.Write(ev.Addr, ev.Data)
				if timed {
					writeT, writeN = writeT+time.Since(t0), writeN+1
				}
			}
		})
		c.Release()
		st.Release()
		p := "llc." + s.slug
		m[p+".read_hit_ns"] = perOp(hitT, hitN, timer)
		m[p+".read_miss_ns"] = perOp(missT, missN, timer)
		m[p+".write_ns"] = perOp(writeT, writeN, timer)
		m[p+".read_hit_rate"] = float64(readHits) / float64(max(reads, 1))
	}
	return m
}

func perOp(total time.Duration, n int, timer time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return ns(total)/float64(n) - ns(timer)
}

// timerCost is the mean cost of an empty time.Now/time.Since pair.
func timerCost() time.Duration {
	const n = 100_000
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += time.Since(t0)
	}
	return total / n
}
