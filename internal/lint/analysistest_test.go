package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loader shells out to `go list -export -deps` once; every test shares
// the result. The extra stdlib patterns guarantee export data for packages
// the fixtures import even if the repo itself stops depending on them.
var loaderState struct {
	once sync.Once
	l    *Loader
	pkgs []*Package
	err  error
}

func sharedLoader(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	loaderState.once.Do(func() {
		root, err := ModuleRoot()
		if err != nil {
			loaderState.err = err
			return
		}
		loaderState.l, loaderState.pkgs, loaderState.err =
			NewLoader(root, "./...", "context", "math/rand", "sort", "sync", "time")
	})
	if loaderState.err != nil {
		t.Fatalf("loading packages: %v", loaderState.err)
	}
	return loaderState.l, loaderState.pkgs
}

// wantRe matches the analysistest-style expectation marker: a "// want"
// comment followed by a backquoted regexp, on the line the diagnostic must
// land on.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// runFixture type-checks testdata/<dir> under importPath (which decides
// whether package-gated analyzers fire), runs the full suite, and matches
// the diagnostics one-to-one against the fixture's want comments.
func runFixture(t *testing.T, dir, importPath string) {
	l, _ := sharedLoader(t)
	pkg, err := l.CheckDir(filepath.Join("testdata", dir), importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	type want struct {
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				wants = append(wants, &want{line: pkg.Fset.Position(c.Pos()).Line, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}

	for _, d := range RunAnalyzers([]*Package{pkg}, Analyzers) {
		matched := false
		for _, w := range wants {
			if !w.hit && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: line %d: no diagnostic matching %q", dir, w.line, w.re)
		}
	}
}

// The detrand and allow fixtures load under a determinism-critical import
// path so the package gate opens; the others use neutral fixture paths.
func TestDetRandFixture(t *testing.T) { runFixture(t, "detrand", "repro/internal/inject") }
func TestAllowFixture(t *testing.T)   { runFixture(t, "allow", "repro/internal/inject") }
func TestCtxFlowFixture(t *testing.T) {
	runFixture(t, "ctxflow", "repro/fixtures/ctxflow")
}
func TestObsEmitFixture(t *testing.T) {
	runFixture(t, "obsemit", "repro/fixtures/obsemit")
}
func TestNakedGoroutineFixture(t *testing.T) {
	runFixture(t, "nakedgoroutine", "repro/fixtures/nakedgoroutine")
}
func TestCtxPollFixture(t *testing.T) {
	runFixture(t, "ctxpoll", "repro/fixtures/ctxpoll")
}
func TestLockDiscFixture(t *testing.T) {
	runFixture(t, "lockdisc", "repro/fixtures/lockdisc")
}
func TestErrFlowFixture(t *testing.T) {
	runFixture(t, "errflow", "repro/fixtures/errflow")
}

// TestPartialRunKeepsForeignAllowances pins the htpvet -only behavior: an
// allowance for an analyzer that did not run is neither used nor stale, so a
// partial run must not report it as unused. Running only detrand over the
// allow fixture, the ctxflow allowance must stay silent while detrand's own
// genuinely-unused one is still flagged.
func TestPartialRunKeepsForeignAllowances(t *testing.T) {
	l, _ := sharedLoader(t)
	pkg, err := l.CheckDir(filepath.Join("testdata", "allow"), "repro/internal/inject")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	sawDetrandUnused := false
	for _, d := range RunAnalyzers([]*Package{pkg}, []*Analyzer{DetRand}) {
		if strings.Contains(d.Message, `unused allowance for "ctxflow"`) {
			t.Errorf("ctxflow allowance flagged unused though ctxflow did not run: %s", d)
		}
		if strings.Contains(d.Message, `unused allowance for "detrand"`) {
			sawDetrandUnused = true
		}
	}
	if !sawDetrandUnused {
		t.Error("the genuinely unused detrand allowance was not reported")
	}
}

// TestDetGateClosed pins the package gate itself: the detrand fixture loaded
// under a path outside DetPackages must produce no detrand diagnostics.
func TestDetGateClosed(t *testing.T) {
	l, _ := sharedLoader(t)
	pkg, err := l.CheckDir(filepath.Join("testdata", "detrand"), "repro/fixtures/neutral")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, d := range RunAnalyzers([]*Package{pkg}, []*Analyzer{DetRand}) {
		t.Errorf("detrand fired outside a determinism-critical package: %s", d)
	}
}
