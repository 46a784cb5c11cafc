// Package energy is the analytical silicon-cost model standing in for the
// paper's CACTI 6.5 + Synopsys DC flow (§6.3): storage allocation at
// iso-silicon (Table 2), per-bank dynamic read energy and leakage power
// (Table 3), added-logic synthesis results (Table 4), and the total-power
// difference including avoided DRAM accesses (Fig. 14).
//
// The per-structure constants are calibrated to the values the paper
// publishes (they came from CACTI on FreePDK45, which we cannot run).
package energy

// Process selects the technology node of Table 3.
type Process int

// Technology nodes reported in Table 3.
const (
	Node45nm Process = 45
	Node32nm Process = 32
)

// StorageRow is one design's row of Table 2.
type StorageRow struct {
	Design        string
	TagEntries    int
	TagEntryBits  int
	DataEntries   int
	DataEntryBits int
	DictEntries   int
	DictEntryBits int
}

// TagBytes returns the tag-array footprint in bytes.
func (r StorageRow) TagBytes() int { return r.TagEntries * r.TagEntryBits / 8 }

// DataBytes returns the data-array footprint in bytes.
func (r StorageRow) DataBytes() int { return r.DataEntries * r.DataEntryBits / 8 }

// DictBytes returns the dictionary/base-cache footprint in bytes.
func (r StorageRow) DictBytes() int { return r.DictEntries * r.DictEntryBits / 8 }

// TotalBytes returns the design's total SRAM footprint.
func (r StorageRow) TotalBytes() int { return r.TagBytes() + r.DataBytes() + r.DictBytes() }

// Table2 returns the iso-silicon storage allocation of the paper's
// Table 2: every compressed design fits the silicon budget of a 1MB
// conventional cache with 48-bit physical addresses.
//
// Entry-bit derivations (48-bit address space, 64B lines):
//
//   - Conventional: 2048 sets → tag 31b + coherence 2b + PLRU state ≈ 37b.
//   - BΔI: doubled tags, plus encoding metadata → 47b.
//   - Dedup: doubled tags plus data pointer and the prev/next links of
//     the per-block tag list → 81b.
//   - Thesaurus: doubled tags plus fmt (3b), 12b LSH fingerprint, setptr
//     (11b for 1462 data sets) and segix (6b) → 72b (Fig. 9).
func Table2() []StorageRow {
	return []StorageRow{
		{Design: "Conventional", TagEntries: 16384, TagEntryBits: 37, DataEntries: 16384, DataEntryBits: 512},
		{Design: "BDI", TagEntries: 32768, TagEntryBits: 47, DataEntries: 14336, DataEntryBits: 512},
		{Design: "Dedup", TagEntries: 32768, TagEntryBits: 81, DataEntries: 11700, DataEntryBits: 512 + 16,
			DictEntries: 8192, DictEntryBits: 24},
		{Design: "Thesaurus", TagEntries: 32768, TagEntryBits: 72, DataEntries: 11700, DataEntryBits: 512 + 32,
			DictEntries: 512, DictEntryBits: 24 + 512},
	}
}

// CachePower is one row of Table 3: per-bank dynamic read energy and
// total leakage power.
type CachePower struct {
	Design        string
	ReadEnergyNJ  float64
	LeakagePowerW float64 // watts
}

// table3 holds the published CACTI results we calibrate against.
var table3 = map[Process][]CachePower{
	Node45nm: {
		{"Conventional", 0.50, 0.20547},
		{"BDI", 0.55, 0.19647},
		{"Dedup", 0.56, 0.22633},
		{"Thesaurus", 0.56, 0.23601},
		{"Conventional 2x", 0.78, 0.34921},
	},
	Node32nm: {
		{"Conventional", 0.28, 0.10996},
		{"BDI", 0.31, 0.10522},
		{"Dedup", 0.32, 0.12106},
		{"Thesaurus", 0.31, 0.12585},
		{"Conventional 2x", 0.44, 0.18650},
	},
}

// Table3 returns the calibrated per-design cache energy figures for the
// given node.
func Table3(p Process) []CachePower {
	out := append([]CachePower(nil), table3[p]...)
	return out
}

// CachePowerFor returns one design's Table 3 row.
func CachePowerFor(p Process, design string) (CachePower, bool) {
	for _, row := range table3[p] {
		if row.Design == design {
			return row, true
		}
	}
	return CachePower{}, false
}

// LogicBlock is one row of Table 4: a synthesized logic block of the
// Thesaurus controller.
type LogicBlock struct {
	Name          string
	LatencyCycles int
	DynamicW      float64
	LeakageW      float64
	AreaMM2       float64
}

// Table4 returns the added-logic synthesis results (45nm FreePDK,
// 2.66GHz): compressor, decompressor, segix location logic, and the
// multi-bank muxing.
func Table4() []LogicBlock {
	return []LogicBlock{
		{"comp", 1, 0.116e-3, 2.44e-3, 0.016},
		{"decomp", 1, 0.084e-3, 1.74e-3, 0.013},
		{"segix", 4, 0.035e-3, 0.49e-3, 0.007},
		{"multi-bank", 0, 0.101e-3, 1.42e-3, 0.025},
	}
}

// ThesaurusLogicArea returns the total added-logic area (mm², 45nm):
// ~0.06mm², about 1% of a 1MB cache's 5.56mm².
func ThesaurusLogicArea() float64 {
	total := 0.0
	for _, b := range Table4() {
		total += b.AreaMM2
	}
	return total
}

// DRAMAccessEnergyNJ is the energy of one off-chip DRAM access (64B) from
// the paper's CACTI model (§6.3).
const DRAMAccessEnergyNJ = 32.61

// ThesaurusAccessOverheadNJ is the extra energy per LLC access of the
// Thesaurus design versus the conventional cache (0.56 − 0.50 nJ).
const ThesaurusAccessOverheadNJ = 0.06

// PowerDiff computes the Fig. 14 metric in watts: total power *saved* by
// Thesaurus relative to the uncompressed baseline (positive = Thesaurus
// consumes less). Rates are per second.
//
//	saved  = DRAM energy × (baseline DRAM rate − Thesaurus DRAM rate)
//	added  = cache leakage overhead + logic power + 0.06nJ × access rate
func PowerDiff(baselineDRAMRate, thesaurusDRAMRate, thesaurusAccessRate float64) float64 {
	conv, _ := CachePowerFor(Node45nm, "Conventional")
	thes, _ := CachePowerFor(Node45nm, "Thesaurus")
	leakOverhead := thes.LeakagePowerW - conv.LeakagePowerW // ≈ 30.54mW
	logic := 0.0
	for _, b := range Table4() {
		logic += b.LeakageW + b.DynamicW
	}
	added := leakOverhead + logic + ThesaurusAccessOverheadNJ*1e-9*thesaurusAccessRate
	saved := DRAMAccessEnergyNJ * 1e-9 * (baselineDRAMRate - thesaurusDRAMRate)
	return saved - added
}
