// Command ksetlint runs the repo-specific static analyzers that enforce the
// reproduction's determinism and concurrency contracts (see docs/lint.md).
//
// Usage:
//
//	ksetlint [-C dir] [-rule prefix] [-json] [-sarif file] [-list]
//
// It walks the module rooted at -C (default "."), applies every analyzer to
// every package, and prints findings as file:line:col lines —
// or, with -json, as a machine-readable report on stdout. With -sarif FILE
// the findings are additionally written as SARIF 2.1.0 for code-scanning
// ingestion. -list prints each analyzer's rule ids and the packages of the
// module that opt out of it. Exit status: 0 clean, 1 findings, 2 usage or
// load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"kset/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ksetlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module root to lint (directory containing go.mod)")
	rule := fs.String("rule", "", "only report findings whose rule id has this prefix (e.g. errflow, maporder.range)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON report on stdout")
	sarifFile := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	list := fs.Bool("list", false, "list analyzers, rule ids, and the packages that opt out, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "ksetlint: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	analyzers := lint.DefaultAnalyzers()
	if *rule != "" && !knownRulePrefix(analyzers, *rule) {
		fmt.Fprintf(stderr, "ksetlint: -rule %q matches no analyzer; see -list\n", *rule)
		return 2
	}
	if *list {
		pkgs, err := lint.Load(*dir)
		if err != nil {
			fmt.Fprintf(stderr, "ksetlint: %v\n", err)
			return 2
		}
		printList(stdout, analyzers, pkgs)
		return 0
	}

	findings, err := lint.Run(*dir, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "ksetlint: %v\n", err)
		return 2
	}
	shown := findings[:0:0]
	for _, f := range findings {
		if *rule != "" && !strings.HasPrefix(f.Rule, *rule) {
			continue
		}
		shown = append(shown, f)
	}

	if *sarifFile != "" {
		if err := writeSARIFFile(*sarifFile, shown, analyzers, *dir); err != nil {
			fmt.Fprintf(stderr, "ksetlint: %v\n", err)
			return 2
		}
	}
	if *jsonOut {
		if err := lint.WriteJSON(stdout, shown, *dir); err != nil {
			fmt.Fprintf(stderr, "ksetlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range shown {
			fmt.Fprintln(stdout, f)
		}
		if len(shown) > 0 {
			fmt.Fprintf(stdout, "ksetlint: %d finding(s)\n", len(shown))
		}
	}
	if len(shown) > 0 {
		return 1
	}
	return 0
}

// printList writes each analyzer with the packages of pkgs that opt out of
// it and the rule ids it can emit, then the engine's directive-audit rule.
func printList(w io.Writer, analyzers []lint.Analyzer, pkgs []*lint.Package) {
	sorted := append([]lint.Analyzer(nil), analyzers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	for _, a := range sorted {
		fmt.Fprintf(w, "%s: every package", a.Name())
		if exempt := lint.Exempt(pkgs, a.Name()); len(exempt) > 0 {
			fmt.Fprintf(w, " except %s", strings.Join(exempt, " "))
		}
		fmt.Fprintln(w)
		for _, r := range a.Rules() {
			fmt.Fprintf(w, "  %s: %s\n", r.ID, r.Doc)
		}
	}
	allow := lint.AllowRule()
	fmt.Fprintf(w, "lint: every package\n  %s: %s\n", allow.ID, allow.Doc)
}

func writeSARIFFile(path string, findings []lint.Finding, analyzers []lint.Analyzer, root string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lint.WriteSARIF(f, findings, analyzers, root); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// knownRulePrefix reports whether prefix could match a real rule id: it must
// extend an analyzer's name, or be a prefix of one, or match the directive
// audit rule. A typo'd -rule would otherwise silently hide every finding.
func knownRulePrefix(analyzers []lint.Analyzer, prefix string) bool {
	names := []string{"lint"}
	for _, a := range analyzers {
		names = append(names, a.Name())
	}
	for _, name := range names {
		if strings.HasPrefix(prefix, name) || strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
