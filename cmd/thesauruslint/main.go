// Command thesauruslint runs the repository's determinism and
// concurrency lint suite (internal/lint) over the module. It exists
// because the evaluation's trustworthiness rests on one invariant —
// serial and parallel campaigns render byte-identical reports — and
// that invariant is too easy to break silently with a stray time.Now,
// an unsorted map iteration, or a goroutine appending to shared state.
//
// Usage:
//
//	thesauruslint [flags] [./... | dir ...]
//
// Flags:
//
//	-json         emit the analyzer diagnostics as JSON on stdout
//	-allow file   allowlist of audited exceptions (default: <module>/lint.allow if present)
//	-analyzers csv run only the named analyzers
//	-list         print the suite and exit
//	-fix          apply machine-applicable suggested fixes in place, then re-lint
//	-prune-allow  rewrite the allowlist dropping entries that suppress nothing
//	-escapes      check compiler-proven escapes on hot-path functions against <module>/alloc.budget
//	-write-budget regenerate <module>/alloc.budget from the current tree
//
// -escapes mode replaces the analyzer run: it scans for
// //thesaurus:hotpath functions, rebuilds their packages with
// -gcflags=-m, and diffs the compiler's escape diagnostics against the
// committed alloc.budget (see docs/static-analysis.md).
//
// Exit status: 0 when no unsuppressed findings (stale allowlist entries
// also fail), 1 on findings or budget drift, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit JSON diagnostics")
	allowFlag := flag.String("allow", "", "allowlist file (default <module>/lint.allow if present)")
	analyzersFlag := flag.String("analyzers", "", "comma-separated subset of analyzers to run")
	list := flag.Bool("list", false, "list analyzers and exit")
	fix := flag.Bool("fix", false, "apply machine-applicable suggested fixes in place, then re-lint")
	pruneAllow := flag.Bool("prune-allow", false, "rewrite the allowlist dropping entries that suppress nothing")
	escapes := flag.Bool("escapes", false, "diff compiler-proven hot-path escapes against <module>/alloc.budget")
	writeBudget := flag.Bool("write-budget", false, "regenerate <module>/alloc.budget from the current tree")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	moduleDir, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}

	if *escapes || *writeBudget {
		runEscapes(moduleDir, filepath.Join(moduleDir, "alloc.budget"), *writeBudget)
		return
	}

	runner, err := lint.NewRunner(moduleDir)
	if err != nil {
		fatal(err)
	}
	if *analyzersFlag != "" {
		runner.Analyzers = nil
		for _, name := range strings.Split(*analyzersFlag, ",") {
			a, err := lint.AnalyzerByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			runner.Analyzers = append(runner.Analyzers, a)
		}
	}

	allowPath := *allowFlag
	if allowPath == "" {
		candidate := filepath.Join(moduleDir, "lint.allow")
		if _, err := os.Stat(candidate); err == nil {
			allowPath = candidate
		}
	}
	if allowPath != "" {
		al, err := lint.ParseAllowlist(allowPath)
		if err != nil {
			fatal(err)
		}
		runner.Allow = al
	}

	dirs, err := targetDirs(moduleDir, cwd, flag.Args())
	if err != nil {
		fatal(err)
	}
	diags, err := runner.CheckDirs(dirs)
	if err != nil {
		fatal(err)
	}

	if *fix {
		fixed, err := lint.ApplyFixes(moduleDir, diags)
		if err != nil {
			fatal(err)
		}
		for _, f := range fixed {
			fmt.Fprintf(os.Stderr, "thesauruslint: rewrote %s\n", f)
		}
		// Re-lint the rewritten sources with a fresh loader so the
		// remaining diagnostics (and exit status) describe what is still
		// wrong, not what was just fixed.
		runner, err = lint.NewRunner(moduleDir)
		if err != nil {
			fatal(err)
		}
		if *analyzersFlag != "" {
			runner.Analyzers = nil
			for _, name := range strings.Split(*analyzersFlag, ",") {
				a, err := lint.AnalyzerByName(strings.TrimSpace(name))
				if err != nil {
					fatal(err)
				}
				runner.Analyzers = append(runner.Analyzers, a)
			}
		}
		if allowPath != "" {
			al, err := lint.ParseAllowlist(allowPath)
			if err != nil {
				fatal(err)
			}
			runner.Allow = al
		}
		diags, err = runner.CheckDirs(dirs)
		if err != nil {
			fatal(err)
		}
	}

	var stale []*lint.AllowEntry
	if runner.Allow != nil {
		stale = runner.Allow.Stale()
	}
	if *pruneAllow {
		if runner.Allow == nil {
			fatal(fmt.Errorf("-prune-allow: no allowlist file to prune"))
		}
		removed, err := runner.Allow.Prune()
		if err != nil {
			fatal(err)
		}
		for _, e := range removed {
			fmt.Fprintf(os.Stderr, "thesauruslint: pruned stale allowlist entry (%s %s)\n", e.Analyzer, e.File)
		}
		stale = nil
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			fmt.Println(d)
		}
	}

	failures := 0
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
		} else {
			failures++
		}
	}
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "%s:%d: stale allowlist entry (%s %s) suppresses nothing; delete it\n",
			runner.Allow.Source, e.Line, e.Analyzer, e.File)
	}
	if failures > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "thesauruslint: %d finding(s), %d allowlisted, %d stale allowlist entrie(s)\n",
			failures, suppressed, len(stale))
		os.Exit(1)
	}
	if !*jsonOut && suppressed > 0 {
		fmt.Fprintf(os.Stderr, "thesauruslint: clean (%d audited exception(s) allowlisted)\n", suppressed)
	}
}

// targetDirs resolves CLI arguments to package directories: no args or
// "./..." means every package in the module; other arguments name
// directories (relative to the working directory).
func targetDirs(moduleDir, cwd string, args []string) ([]string, error) {
	if len(args) == 0 {
		return lint.ModuleDirs(moduleDir)
	}
	var dirs []string
	for _, a := range args {
		if a == "./..." || a == "..." {
			all, err := lint.ModuleDirs(moduleDir)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, all...)
			continue
		}
		if strings.HasSuffix(a, "/...") {
			sub, err := lint.ModuleDirs(filepath.Join(cwd, strings.TrimSuffix(a, "/...")))
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, sub...)
			continue
		}
		dirs = append(dirs, filepath.Join(cwd, a))
	}
	return dirs, nil
}

// runEscapes is -escapes/-write-budget mode: scan for hot-path pragmas,
// ask the compiler which sites escape, and diff (or regenerate) the
// committed budget.
func runEscapes(moduleDir, budgetPath string, write bool) {
	funcs, err := lint.ScanHotFuncs(moduleDir)
	if err != nil {
		fatal(err)
	}
	sites, err := lint.CollectEscapes(moduleDir, lint.HotPackageDirs(funcs))
	if err != nil {
		fatal(err)
	}
	attributed := lint.AttributeEscapes(funcs, sites)
	if write {
		if err := os.WriteFile(budgetPath, lint.FormatBudget(attributed), 0o644); err != nil {
			fatal(err)
		}
		total := 0
		for _, s := range attributed {
			total += len(s)
		}
		fmt.Fprintf(os.Stderr, "thesauruslint: wrote %s (%d hot function(s), %d escape site(s))\n",
			budgetPath, len(attributed), total)
		return
	}
	budget, err := lint.ParseBudget(budgetPath)
	if err != nil {
		fatal(fmt.Errorf("%v (run `thesauruslint -escapes -write-budget` to create)", err))
	}
	failures := lint.DiffBudget(budget, attributed)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "thesauruslint:", f)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "thesauruslint: escape budget: %d failure(s)\n", len(failures))
		os.Exit(1)
	}
	budgeted := 0
	for _, n := range budget {
		budgeted += n
	}
	fmt.Fprintf(os.Stderr, "thesauruslint: escape budget ok (%d hot function(s), %d budgeted escape site(s))\n",
		len(budget), budgeted)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thesauruslint:", err)
	os.Exit(2)
}
