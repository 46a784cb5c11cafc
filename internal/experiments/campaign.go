package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// Campaign is the experiment list the CLI's "all" runs, in report order.
var Campaign = []string{"table1", "table2", "fig1", "fig2", "fig5", "fig13", "table3", "fig14",
	"table4", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "ablate"}

// Ablations are the sweeps the composite name "ablate" runs, in report
// order.
var Ablations = []string{"ablate-victims", "ablate-bits", "ablate-sparsity", "ablate-adaptive", "ablate-basecache"}

// RunExperiment dispatches an experiment by its campaign name and
// returns the raw result value. It is the single dispatch point: the
// text reports (Report) and the JSON campaign (CampaignJSON) both render
// what it returns.
func RunExperiment(name string, opt Options) (any, error) {
	switch name {
	case "table1":
		return Table1Report(), nil
	case "table2":
		return Table2Report(), nil
	case "table3":
		return Table3Report(), nil
	case "table4":
		return Table4Report(), nil
	case "fig1":
		return Fig1(opt)
	case "fig2":
		return Fig2("mcf", opt)
	case "fig5":
		return Fig5(opt)
	case "fig13", "summary":
		return Fig13(opt)
	case "fig14":
		return Fig14(opt)
	case "fig15":
		return Fig15(opt)
	case "fig16":
		return Fig16(opt)
	case "fig17":
		return Fig17(opt)
	case "fig18":
		return Fig18(opt)
	case "fig19":
		return Fig19(opt)
	case "fig20":
		return Fig20(opt)
	case "ablate-victims":
		return AblateVictimCandidates(opt)
	case "ablate-bits":
		return AblateLSHBits(opt)
	case "ablate-sparsity":
		return AblateLSHSparsity(opt)
	case "ablate-adaptive":
		return AblateAdaptive(opt)
	case "ablate-basecache":
		return AblateBaseCachePriority(opt)
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}

// Report runs the named experiment and renders its text report: a
// table's text or the result's Report(). Two names render composites:
// "summary" is Fig. 13's headline table, and "ablate" is every sweep in
// Ablations.
func Report(name string, opt Options) (string, error) {
	switch name {
	case "summary":
		r, err := Fig13(opt)
		if err != nil {
			return "", err
		}
		return r.Headline(), nil
	case "ablate":
		var b strings.Builder
		for _, sub := range Ablations {
			rep, err := Report(sub, opt)
			if err != nil {
				return "", err
			}
			b.WriteString(rep)
		}
		return b.String(), nil
	}
	r, err := RunExperiment(name, opt)
	if err != nil {
		return "", err
	}
	switch r := r.(type) {
	case string:
		return r, nil
	case interface{ Report() string }:
		return r.Report(), nil
	}
	return "", fmt.Errorf("experiment %q has no text report", name)
}

// campaignEntry is one experiment in a JSON campaign document.
type campaignEntry struct {
	Experiment string `json:"experiment"`
	Result     any    `json:"result"`
}

// CampaignJSON runs the named experiments and renders their results as
// one indented JSON document. The document is covered by the same
// byte-identical determinism contract as the text reports: encoding/json
// marshals struct fields in declaration order and sorts map keys, and
// every result is assembled index-ordered by the worker pools, so serial
// and parallel campaigns must produce the same bytes
// (TestParallelJSONMatchesSerial holds this in place).
func CampaignJSON(names []string, opt Options) ([]byte, error) {
	entries := make([]campaignEntry, 0, len(names))
	for _, name := range names {
		if name == "ablate" {
			// The composite CLI name expands to the individual sweeps.
			for _, sub := range Ablations {
				r, err := RunExperiment(sub, opt)
				if err != nil {
					return nil, err
				}
				entries = append(entries, campaignEntry{Experiment: sub, Result: r})
			}
			continue
		}
		r, err := RunExperiment(name, opt)
		if err != nil {
			return nil, err
		}
		entries = append(entries, campaignEntry{Experiment: name, Result: r})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
