package lint

import "testing"

// TestRepoIsClean runs the full analyzer suite over the repository's own
// packages, so a freshly introduced violation fails `go test` even before
// `make lint` runs. Legitimate exceptions belong at the offending line as
// `//lint:allow <analyzer> <reason>`, not here. The suite includes the
// flow-sensitive analyzers (waldiscipline, guardedby), so the repository's
// own WAL-domination and lock-discipline annotations are re-proved here.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide load and type-check is not short")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := prog.Run(Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDefaultSuiteHasFlowAnalyzers pins the two flow-sensitive analyzers
// into the default suite: dropping either would silently stop enforcing
// the WAL-domination and guarded-field invariants everywhere repllint and
// TestRepoIsClean run.
func TestDefaultSuiteHasFlowAnalyzers(t *testing.T) {
	have := make(map[string]bool)
	for _, a := range Analyzers() {
		have[a.Name] = true
	}
	for _, want := range []string{"waldiscipline", "guardedby"} {
		if !have[want] {
			t.Errorf("default suite is missing analyzer %q", want)
		}
	}
}

// TestHarnessTestsAreDeterministic loads the chaos and experiment harness
// packages with their in-package test files included and holds them to
// the nodeterminism discipline: the harness drives seeded, replayable
// schedules, so stray wall-clock reads or global rand draws in test code
// are as damaging as in the engines. Legitimate timing (poll deadlines,
// provenance stamps) carries reasoned //lint:allow directives.
func TestHarnessTestsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-package load and type-check is not short")
	}
	prog, err := LoadTests("../..", "./internal/harness/...", "./internal/cluster/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := prog.Run([]*Analyzer{
		NewNodeterminism("internal/harness", "internal/cluster"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
