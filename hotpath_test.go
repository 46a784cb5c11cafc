package repro_test

import (
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/bdi"
	"repro/internal/cpack"
	"repro/internal/diffenc"
	"repro/internal/harness"
	"repro/internal/line"
	"repro/internal/lsh"
	"repro/internal/memory"
	"repro/internal/netq"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/thesaurus"
	"repro/internal/workload"
)

// BenchmarkHotPath times the paper's §5.4 access paths and the campaign
// stages around them, one sub-benchmark per row, named <class>/<row>.
// The class decides how `make bench-diff` treats a row
// (docs/performance.md):
//
//   - kernel: one compression or hash primitive on one line, with no
//     cache state. Gated.
//   - hot-path: steady-state per-access costs that bound simulated
//     campaign throughput; 0 allocs/op by contract. Gated.
//   - lifecycle: construct/release cycles, paid per sweep point, not per
//     access.
//   - artifact: the artifact-cache codec, paid per campaign and
//     dominated by trace length.
//   - transport: the distribution queue over loopback TCP, paid per task
//     and scheduler-dependent.
//
// Only the gated classes fail a comparison: the others legitimately move
// with pool warm-up, serialized size and the scheduler, so they are
// recorded for trajectory only.
func BenchmarkHotPath(b *testing.B) {
	row := func(class, name string, bytesPerOp int64, fn func(b *testing.B)) {
		b.Run(class+"/"+name, func(b *testing.B) {
			b.SetBytes(bytesPerOp)
			b.ReportAllocs()
			fn(b)
		})
	}

	row("kernel", "lsh_fingerprint", line.Size, func(b *testing.B) {
		h := lsh.MustNew(lsh.DefaultConfig())
		l := residentLine(7, 0)
		var sink lsh.Fingerprint
		for i := 0; i < b.N; i++ {
			sink ^= h.Fingerprint(&l)
		}
		_ = sink
	})
	row("kernel", "diffenc_roundtrip", line.Size, func(b *testing.B) {
		base := residentLine(3, 0)
		l := base
		l[5] += 9
		l[41] -= 3
		var enc diffenc.Encoded
		var out line.Line
		for i := 0; i < b.N; i++ {
			diffenc.EncodeInto(&enc, &l, &base)
			if err := diffenc.DecodeInto(&out, &enc, &base); err != nil {
				b.Fatal(err)
			}
		}
	})
	row("kernel", "bdi_compress", line.Size, func(b *testing.B) {
		l := residentLine(3, 0)
		var enc bdi.Encoded
		for i := 0; i < b.N; i++ {
			bdi.CompressInto(&enc, &l)
		}
	})
	// C-Pack sizing, paid by every CPack compression decision and by the
	// DISH decisions that try C-Pack.
	row("kernel", "cpack_compress", line.Size, func(b *testing.B) {
		l := residentLine(3, 0)
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += cpack.CompressLine(&l, nil)
		}
		if sink < 0 {
			b.Fatal("negative compressed size")
		}
	})
	// The byte-distance kernel of every nearest-line search (Ideal-Diff,
	// Figs. 1 and 2, Thesaurus's clusteroid diffs), on L1-resident lines
	// a few bytes apart; the pair alternates so the call is not hoisted.
	row("kernel", "line_diffbytes", line.Size, func(b *testing.B) {
		base := residentLine(3, 0)
		pair := [2]line.Line{residentLine(5, 1), residentLine(9, 2)}
		pair[1][40] ^= 0x81
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += line.DiffBytes(&base, &pair[i&1])
		}
		if sink < 0 {
			b.Fatal("negative diff count")
		}
	})

	// End-to-end access paths, per design point.
	for _, d := range []struct {
		name string
		cfg  thesaurus.Config
	}{
		{"1mb", thesaurus.DefaultConfig()},
		{"2mb", thesaurus.ScaledConfig(2 << 20)},
	} {
		row("hot-path", "thesaurus_read_hit_"+d.name, line.Size, func(b *testing.B) {
			c := warmThesaurus(b, d.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Read(addrOf(i % residentLines))
			}
		})
		// Full re-clustering cost per write hit: every Write runs lookup,
		// incremental re-fingerprint, re-encode, and data-array
		// re-placement inline. Both content versions of every line are
		// built before the timer starts, so the loop times the cache.
		row("hot-path", "thesaurus_write_reclust_"+d.name, line.Size, func(b *testing.B) {
			c := warmThesaurus(b, d.cfg)
			lines := make([]line.Line, 2*residentLines)
			for j := range lines {
				lines[j] = residentLine(j%residentLines, uint32(j/residentLines))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := i % residentLines
				v := (i / residentLines) & 1
				c.Write(addrOf(n), lines[v*residentLines+n])
			}
		})
	}
	row("hot-path", "bdi_read_hit", line.Size, func(b *testing.B) {
		c, err := scheme.Build("BDI", memory.NewStore())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < residentLines; i++ {
			c.Write(addrOf(i), residentLine(i, 0))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Read(addrOf(i % residentLines))
		}
	})

	// Construction and release. Campaigns, sweeps and ablations build one
	// cache per cell; with the release lifecycle the bulk arrays come back
	// from the design pools, so steady-state construction is a reset of
	// recycled arrays (an epoch bump for the base table) instead of a
	// multi-megabyte make-and-zero.
	row("lifecycle", "thesaurus_new_release", 0, func(b *testing.B) {
		cfg := thesaurus.DefaultConfig()
		mem := memory.NewStore()
		for i := 0; i < b.N; i++ {
			c := thesaurus.MustNew(cfg, mem)
			c.Release()
		}
	})
	// One op is a Build and Release of every registered design. Each
	// design cycles b.N times before the next starts, as the design-major
	// fig13 matrix builds them.
	row("lifecycle", "all_designs_build_release", 0, func(b *testing.B) {
		mem := memory.NewStore()
		for _, name := range scheme.Names() {
			for i := 0; i < b.N; i++ {
				c, err := scheme.Build(name, mem)
				if err != nil {
					b.Fatal(err)
				}
				c.Release()
			}
		}
	})
	// One op is a warm campaign cell: a store, a Thesaurus, a replay with
	// Verify on of a fixed 20k-access write-heavy mcf recording, and both
	// releases. Its B/op is the garbage a replay loop leaves per cell.
	warmCellRec := sync.OnceValues(func() (*sim.Recorded, error) {
		p, err := workload.ProfileByName("mcf")
		if err != nil {
			return nil, err
		}
		p.Pattern.WriteFraction = 0.6
		g := p.Generate(20_000)
		return sim.Record(g.Stream, sim.DefaultSystem(), g.Image), nil
	})
	row("lifecycle", "warm_cell", 0, func(b *testing.B) {
		rec, err := warmCellRec()
		if err != nil {
			b.Fatal(err)
		}
		opt := sim.DefaultReplayOptions()
		opt.Verify = true
		cell := func() {
			st := memory.NewStore()
			c, err := scheme.Build("Thesaurus", st)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Replay(c, rec, st, sim.DefaultSystem(), opt); err != nil {
				b.Fatal(err)
			}
			c.Release()
			st.Release()
		}
		cell() // warm the pools
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cell()
		}
	})
	row("hot-path", "basetable_pooled_cycle_2p20", 0, func(b *testing.B) {
		mem := memory.NewStore()
		for i := 0; i < b.N; i++ {
			t := thesaurus.NewBaseTable(20, mem)
			t.Release()
		}
	})

	// The artifact cache codec. A warm campaign's recording cost is one
	// decode per profile, and its cost per design×profile cell is one
	// RunOutput decode, so these rows are the trajectory of the cold→warm
	// gap. A Thesaurus snapshot is statistics only, tiny next to a
	// recording, so the codec itself, not payload size, dominates the
	// run-output rows. The inputs are built once per process, and only
	// when one of these rows runs; MB/s is artifact bytes.
	recorded := sync.OnceValues(func() (*artifact.File, error) {
		rec, err := harness.RecordProfile("mcf", 100_000)
		return &artifact.File{Recorded: rec}, err
	})
	runOutput := sync.OnceValues(func() (*artifact.File, error) {
		opt := harness.DefaultRunOptions()
		opt.Accesses = 100_000
		out, err := harness.Run("mcf", "Thesaurus", opt)
		return &artifact.File{Run: out}, err
	})
	for _, a := range []struct {
		name string
		file func() (*artifact.File, error)
	}{
		{"recorded", recorded},
		{"runoutput", runOutput},
	} {
		row("artifact", "artifact_encode_"+a.name, 0, func(b *testing.B) {
			f, err := a.file()
			if err != nil {
				b.Fatal(err)
			}
			buf := artifact.Encode(nil, f)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = artifact.Encode(buf[:0], f)
			}
		})
		row("artifact", "artifact_load_"+a.name, 0, func(b *testing.B) {
			f, err := a.file()
			if err != nil {
				b.Fatal(err)
			}
			enc := artifact.Encode(nil, f)
			b.SetBytes(int64(len(enc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := artifact.Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// One op is a full task round trip over loopback TCP: claim (request +
	// task reply), then result (a run output's worth of artifact bytes +
	// ack), including the coordinator's lease bookkeeping; the store
	// callback drops the bytes. This bounds the per-cell queue overhead of
	// a -serve/-connect campaign; it must stay microseconds, noise next to
	// even a -quick cell's compute.
	row("transport", "netq_task_roundtrip", 0, func(b *testing.B) {
		tasks := make([]netq.Task, b.N)
		for i := range tasks {
			tasks[i] = netq.Task{ID: i, Profile: "mcf", Design: "Baseline"}
		}
		srv, err := netq.NewServer("127.0.0.1:0", tasks, netq.ServerOptions{
			Store: func(netq.Task, []byte) error { return nil },
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		cli, err := netq.Dial(srv.Addr(), netq.ClientOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		out := netq.Outcome{Artifact: make([]byte, 256)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, ok, err := cli.Claim()
			if err != nil || !ok {
				b.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
			}
			if err := cli.Finish(t, out); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
}
