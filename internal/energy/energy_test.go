package energy

import (
	"math"
	"testing"
)

func TestTable2IsoSilicon(t *testing.T) {
	rows := Table2()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	var conv int
	for _, r := range rows {
		if r.Design == "Conventional" {
			conv = r.TotalBytes()
		}
	}
	// All designs fit within ~1% of the conventional silicon budget
	// (Table 2's totals range 1.06-1.07MB).
	for _, r := range rows {
		tot := r.TotalBytes()
		dev := math.Abs(float64(tot-conv)) / float64(conv)
		if dev > 0.015 {
			t.Errorf("%s total %dKB deviates %.1f%% from conventional %dKB",
				r.Design, tot>>10, 100*dev, conv>>10)
		}
	}
}

func TestTable2PublishedSizes(t *testing.T) {
	// Spot-check against the published Table 2 values.
	for _, r := range Table2() {
		switch r.Design {
		case "Conventional":
			if r.TagBytes()>>10 != 74 || r.DataBytes()>>10 != 1024 {
				t.Errorf("conventional: tag %dKB data %dKB", r.TagBytes()>>10, r.DataBytes()>>10)
			}
		case "Dedup":
			if r.TagBytes()>>10 != 324 || r.DictBytes()>>10 != 24 {
				t.Errorf("dedup: tag %dKB dict %dKB", r.TagBytes()>>10, r.DictBytes()>>10)
			}
		case "Thesaurus":
			if r.TagBytes()>>10 != 288 || r.DictBytes()>>10 != 33 {
				t.Errorf("thesaurus: tag %dKB dict %dKB", r.TagBytes()>>10, r.DictBytes()>>10)
			}
		}
	}
}

func TestTable3Anchors(t *testing.T) {
	conv, ok := CachePowerFor(Node45nm, "Conventional")
	if !ok || conv.ReadEnergyNJ != 0.50 {
		t.Fatalf("conventional 45nm: %+v ok=%v", conv, ok)
	}
	thes, _ := CachePowerFor(Node45nm, "Thesaurus")
	if thes.LeakagePowerW-conv.LeakagePowerW < 0.030 || thes.LeakagePowerW-conv.LeakagePowerW > 0.031 {
		t.Fatalf("leakage overhead %.4f, want ~30.5mW", thes.LeakagePowerW-conv.LeakagePowerW)
	}
	if _, ok := CachePowerFor(Node45nm, "nope"); ok {
		t.Fatal("unknown design found")
	}
	if len(Table3(Node32nm)) != 5 {
		t.Fatal("32nm rows")
	}
}

func TestTable4Totals(t *testing.T) {
	if len(Table4()) != 4 {
		t.Fatal("table 4 rows")
	}
	if a := ThesaurusLogicArea(); math.Abs(a-0.061) > 1e-9 {
		t.Fatalf("logic area %v, want 0.061mm²", a)
	}
}

func TestPowerDiffSigns(t *testing.T) {
	// Large DRAM savings → positive diff (paper: up to ~101mW saved).
	// 3.1M avoided accesses/s × 32.61nJ ≈ 101mW gross.
	saved := PowerDiff(5e6, 1.9e6, 1e7)
	if saved <= 0 {
		t.Fatalf("big DRAM savings yielded %.1fmW", saved*1000)
	}
	// No DRAM savings → overheads dominate (cache-insensitive case).
	burn := PowerDiff(1e6, 1e6, 1e7)
	if burn >= 0 {
		t.Fatalf("no savings yielded positive %.1fmW", burn*1000)
	}
	// The fixed overhead is ~36.6mW plus the per-access term.
	if math.Abs(burn*1000+36.63+0.06*10) > 2 {
		t.Fatalf("overhead %.2fmW out of expected band", -burn*1000)
	}
}
