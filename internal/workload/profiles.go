package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/memory"
)

// Profile is one SPEC CPU 2017-named synthetic workload. The content and
// pattern parameters are chosen so the per-benchmark compression and
// sensitivity *shape* of the paper's evaluation reproduces (see DESIGN.md
// for the substitution argument and EXPERIMENTS.md for the calibration).
type Profile struct {
	Name string
	// Sensitive marks the cache-sensitive subset (doubling the LLC
	// improves MPKI by >10%, §6.1).
	Sensitive bool
	Seed      uint64
	Regions   []RegionSpec
	Pattern   PatternSpec
}

// Generate returns the profile's access stream over a fresh, empty
// image. The stream fills the image on first touch: a line's initial
// (version-0) content is written when the stream first emits an access
// to it, so generating a short trace of a large profile costs only the
// lines the trace reaches.
func (p Profile) Generate(accesses int) *Generated {
	img := memory.NewStore()
	s := newStream(p.Seed, p.Regions, p.Pattern, accesses, img)
	return &Generated{Image: img, Stream: s}
}

// AppendKey appends a canonical binary descriptor of everything the
// profile's generated trace depends on. The artifact cache hashes it into
// a recording's content address, so every parameter that influences
// Generate must be included (Sensitive is reporting metadata only and is
// deliberately excluded).
func (p Profile) AppendKey(dst []byte) []byte {
	dst = keyString(dst, p.Name)
	dst = keyU64(dst, p.Seed,
		math.Float64bits(p.Pattern.SeqFraction),
		math.Float64bits(p.Pattern.Skew),
		math.Float64bits(p.Pattern.WriteFraction),
		math.Float64bits(p.Pattern.GapMean),
		uint64(p.Pattern.PhaseEvery), uint64(p.Pattern.PhaseGroups),
		uint64(len(p.Regions)))
	for _, r := range p.Regions {
		dst = keyString(dst, r.Name)
		dst = keyU64(dst, uint64(r.Lines), math.Float64bits(r.Weight),
			uint64(int64(r.Group)))
		dst = r.Gen.AppendKey(dst)
	}
	return dst
}

// Field constructors: expected per-record diff bytes against another
// cluster member ≈ Σ 2·MutProb·VarBytes (both records mutate
// independently), scaled by 64/recordSize per line.

func ptrField(mut float64) Field {
	return Field{Width: 8, Kind: FieldPtr, VarBytes: 3, MutProb: mut}
}
func intField(w, varBytes int, mut float64) Field {
	return Field{Width: w, Kind: FieldInt, VarBytes: varBytes, MutProb: mut}
}
func floatField(varBytes int, mut float64) Field {
	return Field{Width: 8, Kind: FieldFloat, VarBytes: varBytes, MutProb: mut}
}
func constField(w int) Field { return Field{Width: w, Kind: FieldConst} }
func seqField(w int) Field   { return Field{Width: w, Kind: FieldSeq} }
func randField(w, varBytes int) Field {
	return Field{Width: w, Kind: FieldRand, VarBytes: varBytes}
}

// wideGen builds a "compressible with a large diff" region: records whose
// lines share structure but differ in ~35-45 bytes of *similar* values
// (neighbouring grid samples, pixel gradients) — the texture of the FP
// and media benchmarks: high Fig. 15 compressibility, low Fig. 13a ratio,
// large Fig. 18 diffs. Because the per-byte deltas are small, the
// sign-quantized LSH still clusters the lines; fully random wide diffs
// would scatter the fingerprints and fall back to raw.
func wideGen(seed uint64, nFields int) LineGen {
	fields := make([]Field, 16)
	for i := range fields {
		if i < nFields {
			fields[i] = intField(8, 6, 1.0) // all 6 low bytes nudged every record
		} else {
			fields[i] = constField(8)
		}
	}
	return NewRecordsGen(seed, 128, 8, 16, fields)
}
func zeroField(w int) Field { return Field{Width: w, Kind: FieldZero} }

// mcfNodeFields mirrors Listing 1: the 68-byte node record whose
// misalignment to 64-byte lines creates the paper's motivating clusters.
func mcfNodeFields() []Field {
	return []Field{
		intField(8, 3, 0.12), // potential
		intField(4, 1, 0.1),  // orientation
		ptrField(0.15),       // child
		ptrField(0.15),       // pred
		ptrField(0.1),        // sibling
		ptrField(0.08),       // basic_arc
		intField(8, 2, 0.1),  // flow
		zeroField(8),         // depth (mostly zero in practice)
		seqField(4),          // number (node id: unique per record, defeating
		//              exact deduplication as in Fig. 2)
		intField(4, 1, 0.05), // time
	}
}

// kLines converts kilobytes to cachelines.
func kLines(kb int) int { return kb * 1024 / 64 }

// seedOf derives a stable per-profile seed.
func seedOf(name string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}

// profiles is built once at init; order matches the paper's figures.
var profiles []Profile

// Profiles returns all 22 benchmark profiles in alphabetical order (the
// order of Figs. 1 and 15-18).
func Profiles() []Profile {
	out := append([]Profile(nil), profiles...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// Names returns all profile names in alphabetical order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Sensitive returns the names of the cache-sensitive subset.
func Sensitive() []string {
	var out []string
	for _, p := range Profiles() {
		if p.Sensitive {
			out = append(out, p.Name)
		}
	}
	return out
}

func init() {
	// Shorthand pattern builders: stream = mostly-sequential sweeps
	// (scientific kernels); hot = skewed random reuse (pointer codes).
	stream := func(write float64) PatternSpec {
		return PatternSpec{SeqFraction: 0.85, Skew: 1.2, WriteFraction: write, GapMean: 24}
	}
	hot := func(skew, write float64) PatternSpec {
		return PatternSpec{SeqFraction: 0.15, Skew: skew, WriteFraction: write, GapMean: 24}
	}

	add := func(name string, sensitive bool, pat PatternSpec, regions ...RegionSpec) {
		profiles = append(profiles, Profile{
			Name: name, Sensitive: sensitive, Seed: seedOf(name),
			Regions: regions, Pattern: pat,
		})
	}
	seed := seedOf

	// --- Cache-insensitive benchmarks: working sets that either fit the
	// --- baseline LLC or stream far beyond even a doubled LLC.

	// deepsjeng: chess engine; a transposition table of high-entropy
	// hashed positions probed nearly uniformly over ~16MB.
	add("deepsjeng", false, hot(1.0, 0.25),
		RegionSpec{Name: "ttable", Lines: kLines(16384), Weight: 1, Gen: NewMixGen(seed("deepsjeng.m"),
			[]LineGen{
				NewRandomGen(seed("deepsjeng.tt")), // hashed positions
				NewZeroGen(seed("deepsjeng.z"), 0.4, 8),
			},
			[]float64{0.98, 0.02}), Group: -1},
	)

	// exchange2: tiny-footprint integer puzzle; everything fits under the
	// LLC, so compression is irrelevant to performance.
	add("exchange2", false, hot(2.0, 0.15),
		RegionSpec{Name: "boards", Lines: kLines(448), Weight: 1, Gen: NewRandomGen(seed("exchange2.b")), Group: -1},
		RegionSpec{Name: "tables", Lines: kLines(64), Weight: 0.3, Gen: NewZeroGen(seed("exchange2.z"), 0.4, 8), Group: -1},
	)

	// lbm: lattice-Boltzmann; streams double-precision grids whose
	// mantissas are effectively random, with a thin compressible fringe.
	add("lbm", false, stream(0.35),
		RegionSpec{Name: "grid", Lines: kLines(10240), Weight: 1, Gen: NewMixGen(seed("lbm.m"),
			[]LineGen{
				wideGen(seed("lbm.w"), 16), // ~45B diffs: barely compressible
				NewRecordsGen(seed("lbm.g"), 96, 6, 16, []Field{
					floatField(5, 0.8), floatField(5, 0.8), floatField(5, 0.8),
					floatField(4, 0.7), floatField(4, 0.7), floatField(4, 0.7),
					constField(8), constField(8), constField(8),
					floatField(2, 0.4), constField(8), constField(8),
				}),
				NewZeroGen(seed("lbm.z"), 0.3, 6),
			}, []float64{0.93, 0.06, 0.01}), Group: -1},
	)

	// bwaves: blast-wave CFD; two grid families with visibly different
	// intra-cluster noise (the two diff-size levels of Fig. 19) inside a
	// mostly incompressible flow field.
	add("bwaves", false, stream(0.3),
		RegionSpec{Name: "gridA", Lines: kLines(4096), Weight: 1, Gen: NewMixGen(seed("bwaves.ma"),
			[]LineGen{
				NewArrayGen(seed("bwaves.arr"), 8, 32, 0x3FF0_0000_0000_0000, 1<<30, 1<<28),
				wideGen(seed("bwaves.wa"), 16),
				NewRecordsGen(seed("bwaves.a"), 136, 12, 8, []Field{
					floatField(2, 0.5), floatField(2, 0.5), floatField(2, 0.5), floatField(2, 0.5),
					floatField(1, 0.4), floatField(1, 0.4), floatField(1, 0.4), floatField(1, 0.4),
					constField(8), constField(8), constField(8), constField(8),
					constField(8), constField(8), floatField(1, 0.3), floatField(1, 0.3),
					constField(8),
				}),
			}, []float64{0.15, 0.55, 0.30}), Group: 0},
		RegionSpec{Name: "gridB", Lines: kLines(4096), Weight: 1, Gen: NewMixGen(seed("bwaves.mb"),
			[]LineGen{
				wideGen(seed("bwaves.wb"), 16),
				NewRecordsGen(seed("bwaves.b"), 136, 12, 8, []Field{
					floatField(6, 0.8), floatField(6, 0.8), floatField(6, 0.8), floatField(6, 0.8),
					floatField(5, 0.7), floatField(5, 0.7), floatField(5, 0.7), floatField(5, 0.7),
					constField(8), constField(8), constField(8), constField(8),
					floatField(2, 0.4), floatField(2, 0.4), constField(8), constField(8),
					constField(8),
				}),
			}, []float64{0.65, 0.35}), Group: 1},
	)
	profiles[len(profiles)-1].Pattern.PhaseEvery = 40000
	profiles[len(profiles)-1].Pattern.PhaseGroups = 2

	// fotonik3d: FDTD electromagnetics; smooth field arrays with moderate
	// dynamic range (BΔI's favourite shape) plus random boundary tables.
	add("fotonik3d", false, stream(0.3),
		RegionSpec{Name: "fields", Lines: kLines(6144), Weight: 1, Gen: NewArrayGen(seed("fotonik3d.f"), 8, 48, 0x3f20_0000_0000_0000, 1<<28, 1<<26), Group: -1},
		RegionSpec{Name: "bc", Lines: kLines(2048), Weight: 0.55, Gen: NewRandomGen(seed("fotonik3d.r")), Group: -1},
	)

	// cactuBSSN: numerical relativity; many distinct grid-function record
	// shapes (the high cluster count of Fig. 5) with wide diffs.
	{
		var regs []RegionSpec
		for g := 0; g < 8; g++ {
			regs = append(regs, RegionSpec{
				Name: fmt.Sprintf("gf%d", g), Lines: kLines(768), Weight: 1,
				Gen: NewMixGen(seed(fmt.Sprintf("cactu.m%d", g)), []LineGen{
					wideGen(seed(fmt.Sprintf("cactu.w%d", g)), 16),
					NewRecordsGen(seed(fmt.Sprintf("cactu.%d", g)), 120, 4, 8, []Field{
						floatField(5, 0.8), floatField(5, 0.8), floatField(5, 0.8),
						floatField(4, 0.7), floatField(4, 0.7), floatField(4, 0.7),
						floatField(3, 0.6), floatField(3, 0.6), floatField(3, 0.6),
						constField(8), constField(8), constField(8),
						constField(8), constField(8), constField(8),
					}),
				}, []float64{0.7, 0.3}), Group: -1,
			})
		}
		regs = append(regs, RegionSpec{
			Name: "idx", Lines: kLines(1024), Weight: 0.6,
			Gen: NewArrayGen(seed("cactu.idx"), 4, 64, 1<<16, 1<<10, 1<<7), Group: -1,
		})
		add("cactuBSSN", false, stream(0.3), regs...)
	}

	// nab: molecular dynamics on nucleic acids; mostly incompressible
	// coordinate noise around clustered atom topology records.
	add("nab", false, stream(0.25),
		RegionSpec{Name: "atoms", Lines: kLines(8192), Weight: 1, Gen: NewMixGen(seed("nab.m"),
			[]LineGen{
				wideGen(seed("nab.w"), 14),
				NewRecordsGen(seed("nab.a"), 112, 12, 6, []Field{
					floatField(4, 0.6), floatField(4, 0.6), floatField(4, 0.6),
					floatField(3, 0.5), floatField(3, 0.5),
					ptrField(0.4), ptrField(0.4),
					constField(8), constField(8), constField(8),
					seqField(8), zeroField(8), constField(8), constField(8),
				}),
				NewZeroGen(seed("nab.z"), 0.3, 6),
				NewArrayGen(seed("nab.arr"), 4, 48, 1<<20, 1<<12, 1<<6),
			}, []float64{0.70, 0.18, 0.02, 0.10}), Group: -1},
	)

	// namd: molecular dynamics; tighter clusters than nab and a
	// zero-heavy force buffer, still streaming-dominated.
	add("namd", false, stream(0.3),
		RegionSpec{Name: "atoms", Lines: kLines(8192), Weight: 1, Gen: NewMixGen(seed("namd.m"),
			[]LineGen{
				wideGen(seed("namd.w"), 13),
				NewRecordsGen(seed("namd.a"), 104, 12, 8, []Field{
					floatField(3, 0.5), floatField(3, 0.5), floatField(3, 0.5),
					floatField(2, 0.4), floatField(2, 0.4),
					ptrField(0.3), constField(8), constField(8),
					seqField(8), constField(8), constField(8),
					intField(8, 1, 0.2), constField(8),
				}),
				NewZeroGen(seed("namd.z"), 0.35, 8),
				NewArrayGen(seed("namd.arr"), 4, 48, 1<<20, 1<<12, 1<<6),
			}, []float64{0.60, 0.28, 0.02, 0.10}), Group: -1},
	)

	// povray: ray tracer; fits comfortably in the LLC, with a handful of
	// very large object clusters (Fig. 5's 1200-member clusters).
	add("povray", false, hot(1.6, 0.2),
		RegionSpec{Name: "objects", Lines: kLines(512), Weight: 1, Gen: NewMixGen(seed("povray.m"),
			[]LineGen{
				NewRecordsGen(seed("povray.o"), 96, 3, 256, []Field{
					floatField(4, 0.6), floatField(4, 0.6), floatField(4, 0.6),
					ptrField(0.5), ptrField(0.4),
					constField(8), constField(8), constField(8),
					seqField(8), constField(8), constField(8), constField(8),
				}),
				NewRandomGen(seed("povray.r")),
			}, []float64{0.68, 0.32}), Group: -1},
		RegionSpec{Name: "tables", Lines: kLines(96), Weight: 0.4, Gen: NewDupPoolGen(seed("povray.d"), 48), Group: -1},
	)

	// x264: video encoder; pixel macroblocks (2-byte elements, small
	// deltas) and motion-vector records, streamed per frame.
	add("x264", false, stream(0.35),
		RegionSpec{Name: "frames", Lines: kLines(5120), Weight: 1, Gen: NewArrayGen(seed("x264.p"), 2, 8, 0x4000, 0x1800, 20), Group: -1},
		RegionSpec{Name: "mv", Lines: kLines(768), Weight: 0.35, Gen: NewRecordsGen(seed("x264.mv"), 56, 16, 8, []Field{
			intField(4, 1, 0.5), intField(4, 1, 0.5), intField(8, 2, 0.4),
			ptrField(0.4), constField(8), constField(8), intField(8, 1, 0.3), zeroField(8),
		}), Group: -1},
	)

	// perlbench: interpreter; SV/HV headers from a few allocation sites
	// with small live diffs, plus duplicated opcode tables. Fits the LLC.
	add("perlbench", false, hot(2.2, 0.2),
		RegionSpec{Name: "sv", Lines: kLines(640), Weight: 1, Gen: NewRecordsGen(seed("perl.sv"), 80, 10, 8, []Field{
			ptrField(0.25), ptrField(0.2), ptrField(0.15),
			intField(8, 2, 0.3), seqField(4), intField(4, 1, 0.15),
			constField(8), constField(8), zeroField(8), constField(8), constField(8),
		}), Group: -1},
		RegionSpec{Name: "optab", Lines: kLines(192), Weight: 0.2, Gen: NewDupPoolGen(seed("perl.d"), 256), Group: -1},
	)

	// leela: Go engine; tree nodes with small counters and pointers, and
	// a zero-initialized statistics pool. Fits the LLC.
	add("leela", false, hot(2.0, 0.25),
		RegionSpec{Name: "nodes", Lines: kLines(512), Weight: 1, Gen: NewRecordsGen(seed("leela.n"), 72, 24, 6, []Field{
			ptrField(0.5), ptrField(0.4),
			intField(4, 1, 0.5), intField(4, 1, 0.4), intField(8, 2, 0.3),
			floatField(2, 0.4), constField(8), constField(8), zeroField(8), intField(8, 1, 0.2),
		}), Group: -1},
		RegionSpec{Name: "stats", Lines: kLines(160), Weight: 0.35, Gen: NewZeroGen(seed("leela.z"), 0.3, 6), Group: -1},
		RegionSpec{Name: "pattern", Lines: kLines(128), Weight: 0.25, Gen: NewArrayGen(seed("leela.a"), 4, 32, 1<<10, 1<<8, 1<<6), Group: -1},
	)

	// imagick: image processing; nearly every line clusters but with
	// large diffs (the paper reports >90% compressible, 32.6B average
	// diff, and only 1.3× compression).
	add("imagick", false, stream(0.4),
		RegionSpec{Name: "pixels", Lines: kLines(5120), Weight: 1, Gen: NewMixGen(seed("imagick.m"),
			[]LineGen{
				NewRecordsGen(seed("imagick.p"), 64, 16, 16, []Field{
					intField(8, 6, 1.0), intField(8, 6, 1.0), intField(8, 6, 1.0), intField(8, 6, 1.0),
					intField(8, 6, 1.0), intField(8, 6, 1.0), constField(8), constField(8),
				}),
				NewArrayGen(seed("imagick.a"), 2, 32, 0x3000, 0x100, 40),
			}, []float64{0.65, 0.35}), Group: -1},
	)

	// --- Cache-sensitive benchmarks: working sets between the 1MB and
	// --- 2MB design points, where compression buys real hits.

	// parest: finite-element solver; sparse-matrix rows with moderate
	// diffs and index arrays.
	add("parest", true, hot(2.6, 0.25),
		RegionSpec{Name: "rows", Lines: kLines(3584), Weight: 1, Gen: NewRecordsGen(seed("parest.r"), 88, 8, 6, []Field{
			floatField(3, 0.5), floatField(3, 0.5), floatField(3, 0.4),
			ptrField(0.3), seqField(4), intField(4, 1, 0.3),
			constField(8), constField(8), constField(8), zeroField(8), constField(8), constField(8),
		}), Group: -1},
		RegionSpec{Name: "idx", Lines: kLines(1024), Weight: 0.5, Gen: NewArrayGen(seed("parest.i"), 4, 32, 1<<20, 1<<12, 1<<8), Group: -1},
	)

	// xz: compressor; high-entropy data buffers beside tight dictionary
	// metadata and zero-initialized probability tables.
	add("xz", true, hot(2.4, 0.3),
		RegionSpec{Name: "buf", Lines: kLines(1536), Weight: 0.6, Gen: NewRandomGen(seed("xz.b")), Group: -1},
		RegionSpec{Name: "dict", Lines: kLines(2560), Weight: 1, Gen: NewRecordsGen(seed("xz.d"), 64, 12, 8, []Field{
			intField(4, 1, 0.5), seqField(4), ptrField(0.3), intField(8, 2, 0.3),
			constField(8), constField(8), zeroField(8), constField(8), constField(8),
		}), Group: -1},
		RegionSpec{Name: "prob", Lines: kLines(896), Weight: 0.3, Gen: NewZeroGen(seed("xz.z"), 0.55, 8), Group: -1},
	)

	// cam4: atmosphere model; phases alternate between tight column
	// records and bursty incompressible physics tables (Fig. 19's bursts).
	add("cam4", true, hot(2.4, 0.3),
		RegionSpec{Name: "columns", Lines: kLines(3072), Weight: 1, Gen: NewRecordsGen(seed("cam4.c"), 96, 12, 12, []Field{
			floatField(2, 0.5), floatField(2, 0.5), floatField(2, 0.5),
			floatField(2, 0.4), constField(8), constField(8),
			constField(8), constField(8), zeroField(8),
			seqField(8), constField(8), constField(8),
		}), Group: 0},
		RegionSpec{Name: "grids", Lines: kLines(1024), Weight: 0.4, Gen: NewArrayGen(seed("cam4.g"), 4, 48, 1<<22, 1<<12, 1<<6), Group: 0},
		RegionSpec{Name: "physics", Lines: kLines(1280), Weight: 0.5, Gen: NewRandomGen(seed("cam4.p")), Group: 1},
		RegionSpec{Name: "tracers", Lines: kLines(896), Weight: 0.25, Gen: NewZeroGen(seed("cam4.z"), 0.5, 8), Group: 0},
	)
	profiles[len(profiles)-1].Pattern.PhaseEvery = 60000
	profiles[len(profiles)-1].Pattern.PhaseGroups = 2

	// wrf: weather model; 4-byte field arrays with small deltas (good for
	// both BΔI and clustering) plus tightly clustered column records.
	add("wrf", true, hot(2.4, 0.3),
		RegionSpec{Name: "fields", Lines: kLines(2560), Weight: 1, Gen: NewArrayGen(seed("wrf.f"), 4, 48, 1<<24, 1<<14, 1<<6), Group: -1},
		RegionSpec{Name: "cols", Lines: kLines(2048), Weight: 0.8, Gen: NewRecordsGen(seed("wrf.c"), 80, 8, 10, []Field{
			floatField(2, 0.4), floatField(2, 0.4), floatField(2, 0.3),
			constField(8), constField(8), constField(8),
			seqField(8), zeroField(8), constField(8), constField(8),
		}), Group: -1},
	)

	// mcf: the paper's motivating example (Fig. 2, Listing 1): 68-byte
	// node records misaligned to cachelines, pointer-heavy, with ~9-byte
	// average diffs; stable over time (Fig. 19).
	add("mcf", true, hot(2.6, 0.25),
		RegionSpec{Name: "nodes", Lines: kLines(4096), Weight: 1, Gen: NewMixGen(seed("mcf.mix"),
			[]LineGen{
				NewRecordsGen(seed("mcf.n"), 68, 6, 96, mcfNodeFields()),
				NewZeroGen(seed("mcf.nz"), 0.15, 4), // freed node slots
			}, []float64{0.98, 0.02}), Group: -1},
		RegionSpec{Name: "arcs", Lines: kLines(1536), Weight: 0.6, Gen: NewRecordsGen(seed("mcf.a"), 72, 4, 96, []Field{
			ptrField(0.12), ptrField(0.12), ptrField(0.08),
			intField(8, 2, 0.08), seqField(8),
			constField(8), constField(8), zeroField(8), intField(8, 1, 0.05),
		}), Group: -1},
		RegionSpec{Name: "slack", Lines: kLines(512), Weight: 0.1, Gen: NewZeroGen(seed("mcf.z"), 0.4, 6), Group: -1},
	)

	// gcc: compiler; RTL/tree nodes dominated by pointers with few live
	// low bytes, many identical template nodes, ample zero padding.
	add("gcc", true, hot(2.6, 0.25),
		RegionSpec{Name: "rtl", Lines: kLines(3072), Weight: 1, Gen: NewRecordsGen(seed("gcc.r"), 64, 10, 24, []Field{
			ptrField(0.15), ptrField(0.12), ptrField(0.1),
			seqField(4), intField(4, 1, 0.2),
			constField(8), zeroField(8), constField(8), constField(8),
		}), Group: -1},
		RegionSpec{Name: "pool", Lines: kLines(384), Weight: 0.2, Gen: NewDupPoolGen(seed("gcc.d"), 64), Group: -1},
		RegionSpec{Name: "bss", Lines: kLines(768), Weight: 0.3, Gen: NewZeroGen(seed("gcc.z"), 0.3, 6), Group: -1},
	)

	// xalancbmk: XML transformer; small DOM nodes with tiny diffs
	// punctuated by rare 32-byte-diff string fragments (Fig. 19 spikes).
	add("xalancbmk", true, hot(2.4, 0.25),
		RegionSpec{Name: "dom", Lines: kLines(3584), Weight: 1, Gen: NewRecordsGen(seed("xalan.d"), 48, 10, 16, []Field{
			ptrField(0.15), ptrField(0.12),
			seqField(4), intField(4, 1, 0.2),
			constField(8), constField(8), zeroField(8),
		}), Group: -1},
		RegionSpec{Name: "strings", Lines: kLines(512), Weight: 0.12, Gen: NewRecordsGen(seed("xalan.s"), 64, 8, 8, []Field{
			intField(8, 5, 0.8), intField(8, 5, 0.8), intField(8, 5, 0.8), intField(8, 5, 0.8),
			constField(8), constField(8), constField(8), constField(8),
		}), Group: -1},
		RegionSpec{Name: "pool", Lines: kLines(512), Weight: 0.12, Gen: NewDupPoolGen(seed("xalan.p"), 256), Group: -1},
	)

	// omnetpp: discrete-event simulator; message/event objects from a few
	// allocation sites, near-identical up to ids and timestamps, with
	// much zeroed padding.
	add("omnetpp", true, hot(2.6, 0.3),
		RegionSpec{Name: "events", Lines: kLines(3584), Weight: 1, Gen: NewRecordsGen(seed("omnet.e"), 64, 6, 32, []Field{
			ptrField(0.06), ptrField(0.05),
			seqField(8), intField(4, 1, 0.1), intField(4, 1, 0.05),
			constField(8), constField(8), zeroField(8), zeroField(8),
		}), Group: -1},
		RegionSpec{Name: "queues", Lines: kLines(768), Weight: 0.25, Gen: NewZeroGen(seed("omnet.z"), 0.5, 6), Group: -1},
	)

	// roms: ocean model; vast near-uniform grid sheets (Fig. 5's largest
	// clusters) over a mostly-zero ocean mask: the headline compression.
	add("roms", true, hot(2.2, 0.25),
		RegionSpec{Name: "sheets", Lines: kLines(3584), Weight: 1, Gen: NewRecordsGen(seed("roms.s"), 128, 4, 512, []Field{
			floatField(1, 0.5), floatField(1, 0.5), floatField(1, 0.4), floatField(1, 0.4),
			seqField(8), constField(8), constField(8), constField(8),
			constField(8), constField(8), constField(8), constField(8),
			constField(8), constField(8), constField(8), constField(8),
		}), Group: -1},
		RegionSpec{Name: "mask", Lines: kLines(1024), Weight: 0.3, Gen: NewZeroGen(seed("roms.z"), 0.08, 4), Group: -1},
	)
}
