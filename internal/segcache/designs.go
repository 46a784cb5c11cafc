package segcache

import (
	"repro/internal/bdi"
	"repro/internal/cpack"
	"repro/internal/line"
)

// BDI compresses each line with Base-Delta-Immediate (Pekhimenko et al.;
// §2.2): the smallest feasible encoding wins, and a hit costs one cycle.
// Its counters histogram every decision by BΔI kind.
var BDI = Compressor{
	Name:                "BDI",
	DecompressionCycles: 1,
	Counters: []string{
		bdi.KindUncompressed: "kind_uncompressed",
		bdi.KindZeros:        "kind_zeros",
		bdi.KindRep:          "kind_rep",
		bdi.KindB8D1:         "kind_b8d1",
		bdi.KindB8D2:         "kind_b8d2",
		bdi.KindB8D4:         "kind_b8d4",
		bdi.KindB4D1:         "kind_b4d1",
		bdi.KindB4D2:         "kind_b4d2",
		bdi.KindB2D1:         "kind_b2d1",
	},
	rule: ruleBDI,
}

// fitBDI sizes data with its smallest BΔI encoding.
func fitBDI(data *line.Line, counts []uint64) int {
	k, size := bdi.Classify(data)
	counts[k]++
	return segsOf(size)
}

// CPack compresses each line with the C-Pack dictionary algorithm (Chen et
// al.). The decompressor emits two words per cycle over sixteen word
// pairs, so a hit costs eight cycles. Its counters histogram every
// compressed word by pattern.
var CPack = Compressor{
	Name:                "CPack",
	DecompressionCycles: 8,
	Counters: []string{
		cpack.ZZZZ: "pat_zzzz",
		cpack.ZZZX: "pat_zzzx",
		cpack.MMMM: "pat_mmmm",
		cpack.MMMX: "pat_mmmx",
		cpack.MMXX: "pat_mmxx",
		cpack.XXXX: "pat_xxxx",
	},
	rule: ruleCPack,
}

// fitCPack sizes data with C-Pack, counting every word's pattern.
func fitCPack(data *line.Line, counts []uint64) int {
	return segsOf(cpack.CompressLine(data, (*[cpack.NumPatterns]uint64)(counts)))
}

// DISH's classes are the scheme that compressed each line, and index its
// fill counters; dishOTF indexes the on-the-fly switch counter.
const (
	dishRaw = iota
	dishCPack
	dishBDI
	dishOTF
)

// DISH is a dual-scheme design (Panda & Seznec, "Dictionary Sharing: An
// Efficient Cache Compression Scheme"): every decision tries the default
// scheme first, which is the one most resident lines use (ties favour
// C-Pack, as in the Sniper controller), and switches on the fly to the
// other scheme when the default does not compress the line. Lines
// neither scheme compresses are stored raw. The critical path is sized
// for the slower C-Pack decompressor. Its counters partition every
// decision by the scheme that won, and count on-the-fly switches.
var DISH = Compressor{
	Name:                "DISH",
	DecompressionCycles: 8,
	Counters: []string{
		dishRaw:   "raw_fills",
		dishCPack: "cpack_fills",
		dishBDI:   "bdi_fills",
		dishOTF:   "otf_selections",
	},
	rule: ruleDISH,
}

// fitDISH sizes data with the default scheme, switching on the fly to the
// other scheme, which it sizes only then, when the default does not
// compress the line.
func fitDISH(data *line.Line, resident *[NumClasses]int, counts []uint64) (int, uint8) {
	def, alt := uint8(dishCPack), uint8(dishBDI)
	if resident[dishBDI] > resident[dishCPack] {
		def, alt = alt, def
	}
	class, segs := uint8(dishRaw), rawSegs
	if s := dishSegs(data, def); s < rawSegs {
		class, segs = def, s
	} else if s := dishSegs(data, alt); s < rawSegs {
		counts[dishOTF]++
		class, segs = alt, s
	}
	counts[class]++
	return segs, class
}

// dishSegs sizes data with one of DISH's two schemes.
func dishSegs(data *line.Line, scheme uint8) int {
	if scheme == dishBDI {
		_, size := bdi.Classify(data)
		return segsOf(size)
	}
	return segsOf(cpack.CompressLine(data, nil))
}
