package ivlint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// srcImporter resolves imports from the stub packages under testdata/src,
// keeping analyzer tests hermetic: no toolchain invocation, no dependence
// on the real standard library sources.
type srcImporter struct {
	root string
	fset *token.FileSet
	pkgs map[string]*types.Package
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(im.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.fset, files, nil)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

// loadTestSrc type-checks the named sources as one package, resolving
// imports from the testdata/src stubs.
func loadTestSrc(t *testing.T, pkgPath string, srcs map[string]string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	imp := &srcImporter{
		root: filepath.Join("testdata", "src"),
		fset: fset,
		pkgs: map[string]*types.Package{},
	}
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, srcs[name], parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{PkgPath: pkgPath, Fset: fset, Files: files, Types: tpkg, TypesInfo: info}
	pkg.live = liveSet([]*Package{pkg}) // a stub package is its own program
	return pkg
}

// readTestDir returns the sources of testdata/src/<dir> keyed by path.
func readTestDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	full := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(full, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Join(full, e.Name())] = string(b)
	}
	return srcs
}

// loadTestDir loads testdata/src/<dir> as a package whose import path is
// the directory name.
func loadTestDir(t *testing.T, dir string) *Package {
	t.Helper()
	return loadTestSrc(t, dir, readTestDir(t, dir))
}

// unscoped clones an analyzer with its package scope cleared, so it runs
// over testdata packages whose import paths are outside the real scope.
func unscoped(a *Analyzer) *Analyzer {
	c := *a
	c.Packages = nil
	c.PackagePrefixes = nil
	return &c
}

// wantRE matches golden-diagnostic expectations: // want `regexp`
var wantRE = regexp.MustCompile("// want `([^`]+)`")

// checkWants runs the analyzers over pkg and compares the surviving
// diagnostics against the package's // want comments, both ways: every
// diagnostic needs a matching want on its line, and every want needs a
// matching diagnostic.
func checkWants(t *testing.T, pkg *Package, analyzers []*Analyzer) {
	t.Helper()
	diags := Run(pkg, analyzers)
	type lineKey struct {
		file string
		line int
	}
	type expectation struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[lineKey][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					k := lineKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], &expectation{re: re})
				}
			}
		}
	}
	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, e := range wants[k] {
			if e.re.MatchString(d.Message) {
				e.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, es := range wants {
		for _, e := range es {
			if !e.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, e.re)
			}
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	checkWants(t, loadTestDir(t, "determ"), []*Analyzer{unscoped(Determinism)})
}

func TestPanicPathGolden(t *testing.T) {
	checkWants(t, loadTestDir(t, "panicp"), []*Analyzer{unscoped(PanicPath)})
}

func TestConfigAliasingGolden(t *testing.T) {
	checkWants(t, loadTestDir(t, "aliasing"), []*Analyzer{unscoped(ConfigAliasing)})
}

func TestPrintcallGolden(t *testing.T) {
	checkWants(t, loadTestDir(t, "printp"), []*Analyzer{unscoped(Printcall)})
}

func TestFloatAccumGolden(t *testing.T) {
	checkWants(t, loadTestDir(t, "floatacc"), []*Analyzer{unscoped(FloatAccum)})
}

// countFor returns the diagnostics whose message contains substr.
func countFor(diags []Diagnostic, substr string) int {
	n := 0
	for _, d := range diags {
		if strings.Contains(d.Message, substr) {
			n++
		}
	}
	return n
}

// Deleting a suppression must surface the diagnostic it was hiding — the
// driver then exits non-zero. Exercised for each analyzer with a
// suppression in its testdata.
func TestDeletingSuppressionFails(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *Analyzer
		directiveSubstr,
		surfaced string
	}{
		{"panicp", unscoped(PanicPath), "//ivlint:allow panicpath", "panic in checked"},
		{"determ", unscoped(Determinism), "//ivlint:allow determinism — counting keys is order-independent\n", "range over map"},
		{"printp", unscoped(Printcall), "//ivlint:allow printcall", "fmt.Println writes to stdout"},
		{"floatacc", unscoped(FloatAccum), "//ivlint:allow floataccum", "floating-point accumulation"},
		{"errdropt", unscoped(ErrDrop), "//ivlint:allow errdrop", "call to fakedev.Reset discards"},
		{"mapitr", unscoped(MapIter), "//ivlint:allow mapiter", "writes output via fmt.Fprintln"},
		{"hotalloc", unscoped(HotAlloc), "//ivlint:allow hotalloc", "escapes into c.arena"},
		{"deadc", unscoped(Deadcode), "//ivlint:allow deadcode", "Hook is not reached"},
	}
	for _, tc := range cases {
		srcs := readTestDir(t, tc.dir)
		edited := map[string]string{}
		removed := false
		for name, src := range srcs {
			idx := strings.Index(src, tc.directiveSubstr)
			if idx >= 0 {
				nl := strings.Index(src[idx:], "\n")
				src = src[:idx] + src[idx+nl+1:]
				removed = true
			}
			edited[name] = src
		}
		if !removed {
			t.Fatalf("%s: directive %q not found in testdata", tc.dir, tc.directiveSubstr)
		}
		before := Run(loadTestDir(t, tc.dir), []*Analyzer{tc.analyzer})
		after := Run(loadTestSrc(t, tc.dir, edited), []*Analyzer{tc.analyzer})

		b, a := countFor(before, tc.surfaced), countFor(after, tc.surfaced)
		if a != b+1 {
			t.Fatalf("%s: deleting the suppression changed matching diagnostics %d -> %d, want +1",
				tc.dir, b, a)
		}
	}
}

// Re-introducing a panic on a hot path must produce a diagnostic (and so
// a non-zero driver exit).
func TestHotPathPanicReintroduction(t *testing.T) {
	srcs := readTestDir(t, "panicp")
	edited := map[string]string{}
	for name, src := range srcs {
		edited[name] = strings.Replace(src,
			"func shadow() {",
			"func hot(x int) int {\n\tif x < 0 {\n\t\tpanic(\"hot\")\n\t}\n\treturn x\n}\n\nfunc shadow() {", 1)
	}
	diags := Run(loadTestSrc(t, "panicp", edited), []*Analyzer{unscoped(PanicPath)})
	if n := countFor(diags, "panic in hot"); n != 1 {
		t.Fatalf("re-introduced hot-path panic produced %d diagnostics, want 1", n)
	}
}

// Re-introducing a float accumulation over a map range must produce a
// diagnostic — the failure direction that keeps ULP-drift nondeterminism
// out of the stats and figures packages.
func TestFloatAccumReintroduction(t *testing.T) {
	srcs := readTestDir(t, "floatacc")
	edited := map[string]string{}
	for name, src := range srcs {
		edited[name] = strings.Replace(src,
			"func sumValues(m map[string]float64) float64 {",
			"func mean(m map[string]float64) float64 {\n\ts := 0.0\n\tfor _, v := range m {\n\t\ts += v\n\t}\n\treturn s / float64(len(m))\n}\n\nfunc sumValues(m map[string]float64) float64 {", 1)
	}
	before := Run(loadTestDir(t, "floatacc"), []*Analyzer{unscoped(FloatAccum)})
	after := Run(loadTestSrc(t, "floatacc", edited), []*Analyzer{unscoped(FloatAccum)})
	b, a := countFor(before, "floating-point accumulation"), countFor(after, "floating-point accumulation")
	if a != b+1 {
		t.Fatalf("re-introduced float accumulation changed diagnostics %d -> %d, want +1", b, a)
	}
}

func TestDirectiveMalformations(t *testing.T) {
	const src = `package p

func a(m map[int]int) int {
	n := 0
	//ivlint:allow determinism
	for range m {
		n++
	}
	//ivlint:allow nosuch — not an analyzer
	//ivlint:allow determinism —
	//ivlint:allow panicpath — stale: nothing to suppress here
	return n
}
`
	pkg := loadTestSrc(t, "p", map[string]string{"p.go": src})
	suite := Analyzers()
	for i, a := range suite {
		suite[i] = unscoped(a)
	}
	diags := Run(pkg, suite)
	for _, want := range []string{
		"missing the \"— <reason>\" clause", // line 5: no separator
		"unknown analyzer \"nosuch\"",       // line 9
		"empty reason",                      // line 10
		"unused ivlint:allow",               // line 11: well-formed but stale
		"range over map",                    // line 6: the malformed directive must NOT suppress
	} {
		if countFor(diags, want) == 0 {
			t.Errorf("no diagnostic containing %q in %v", want, diags)
		}
	}
}

func TestScopeMatching(t *testing.T) {
	if Determinism.AppliesTo("ivleague/internal/ivlint") {
		t.Fatal("determinism must not apply to the linter itself")
	}
	if !PanicPath.AppliesTo("ivleague/internal/layout") {
		t.Fatal("panicpath must apply to layout")
	}
	all := &Analyzer{Name: "x"}
	if !all.AppliesTo("anything") {
		t.Fatal("empty scope must match everything")
	}
	if !Printcall.AppliesTo("ivleague/internal/secmem") {
		t.Fatal("printcall must cover every internal package")
	}
	if Printcall.AppliesTo("ivleague/cmd/ivsim") {
		t.Fatal("printcall must not cover the commands")
	}
	pfx := &Analyzer{Name: "y", PackagePrefixes: []string{"a/b/"}}
	if !pfx.AppliesTo("a/b/c") || pfx.AppliesTo("a/bc") {
		t.Fatal("prefix scope mismatched")
	}
}

// TestLoadAndRunStats exercises the go-list loader end to end on a real
// package of this module and requires it to be clean (the driver contract:
// `go run ./cmd/ivlint ./...` exits 0).
func TestLoadAndRunStats(t *testing.T) {
	pkgs, err := Load([]string{"ivleague/internal/stats"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != "ivleague/internal/stats" {
		t.Fatalf("loaded %+v", pkgs)
	}
	if diags := Run(pkgs[0], Analyzers()); len(diags) != 0 {
		t.Fatalf("stats not clean: %v", diags)
	}
}

func TestErrDropGolden(t *testing.T) {
	checkWants(t, loadTestDir(t, "errdropt"), []*Analyzer{unscoped(ErrDrop)})
}

func TestMapIterGolden(t *testing.T) {
	checkWants(t, loadTestDir(t, "mapitr"), []*Analyzer{unscoped(MapIter)})
}

func TestHotAllocGolden(t *testing.T) {
	checkWants(t, loadTestDir(t, "hotalloc"), []*Analyzer{unscoped(HotAlloc)})
}

// Re-introducing a map allocation into a function reachable from a
// //ivlint:hotpath root must produce a diagnostic — the failure direction
// that keeps the access path's zero-alloc steady state honest after the
// arena conversion.
func TestHotAllocReintroduction(t *testing.T) {
	srcs := readTestDir(t, "hotalloc")
	edited := map[string]string{}
	for name, src := range srcs {
		edited[name] = strings.Replace(src,
			"func tick(c *ctrl, addr uint64) {",
			"func tick(c *ctrl, addr uint64) {\n\tc.index = make(map[uint64]int)\n", 1)
	}
	before := Run(loadTestDir(t, "hotalloc"), []*Analyzer{unscoped(HotAlloc)})
	after := Run(loadTestSrc(t, "hotalloc", edited), []*Analyzer{unscoped(HotAlloc)})
	b, a := countFor(before, "tick allocates a map"), countFor(after, "tick allocates a map")
	if a != b+1 {
		t.Fatalf("re-introduced hot-path map alloc changed diagnostics %d -> %d, want +1", b, a)
	}
}

// Conversely, a function that stops being reachable from any hot root must
// stop being reported: deleting the only call edge to lookup removes its
// map-alloc diagnostic.
func TestHotAllocUnreachableIsClean(t *testing.T) {
	srcs := readTestDir(t, "hotalloc")
	edited := map[string]string{}
	for name, src := range srcs {
		s := strings.Replace(src, "return c.lookup(addr)", "return 0", 1)
		// The golden want comment would now dangle; drop the line with it.
		s = strings.Replace(s, "c.index = make(map[uint64]int) // want `lookup allocates a map`",
			"c.index = make(map[uint64]int)", 1)
		edited[name] = s
	}
	diags := Run(loadTestSrc(t, "hotalloc", edited), []*Analyzer{unscoped(HotAlloc)})
	if n := countFor(diags, "lookup allocates a map"); n != 0 {
		t.Fatalf("unreachable lookup still reported %d times", n)
	}
}

// Re-introducing a dropped internal error must produce a diagnostic — the
// failure direction that keeps PR-5's panics-to-errors conversion honest.
func TestErrDropReintroduction(t *testing.T) {
	srcs := readTestDir(t, "errdropt")
	edited := map[string]string{}
	for name, src := range srcs {
		edited[name] = strings.Replace(src,
			"func handler(",
			"func leak(d *fakedev.Dev) {\n\td.Flush()\n}\n\nfunc handler(", 1)
	}
	before := Run(loadTestDir(t, "errdropt"), []*Analyzer{unscoped(ErrDrop)})
	after := Run(loadTestSrc(t, "errdropt", edited), []*Analyzer{unscoped(ErrDrop)})
	b, a := countFor(before, "Flush discards"), countFor(after, "Flush discards")
	if a != b+1 {
		t.Fatalf("re-introduced drop changed diagnostics %d -> %d, want +1", b, a)
	}
}

// Removing the sort that sanctions a collect-then-sort loop must surface
// the append diagnostic: the analyzer keys on the sort's presence, not on
// the loop alone.
func TestMapIterSortRemovalFails(t *testing.T) {
	srcs := readTestDir(t, "mapitr")
	edited := map[string]string{}
	replaced := false
	for name, src := range srcs {
		if strings.Contains(src, "sort.Strings(keys)") {
			replaced = true
		}
		// Keep a sort call so the import stays used, but detach it from
		// the collected slice.
		edited[name] = strings.Replace(src, "sort.Strings(keys)", "sort.Strings(nil)", 1)
	}
	if !replaced {
		t.Fatal("sort.Strings(keys) not found in mapitr testdata")
	}
	before := Run(loadTestDir(t, "mapitr"), []*Analyzer{unscoped(MapIter)})
	after := Run(loadTestSrc(t, "mapitr", edited), []*Analyzer{unscoped(MapIter)})
	b, a := countFor(before, "appends to keys"), countFor(after, "appends to keys")
	if b != 0 || a != 1 {
		t.Fatalf("detaching the sort changed 'appends to keys' diagnostics %d -> %d, want 0 -> 1", b, a)
	}
}

func TestDeadcodeGolden(t *testing.T) {
	checkWants(t, loadTestDir(t, "deadc"), []*Analyzer{unscoped(Deadcode)})
}

// An allow on a declaration main reaches suppresses nothing, so it is
// itself reported.
func TestDeadcodeUnusedAllow(t *testing.T) {
	srcs := readTestDir(t, "deadc")
	edited := map[string]string{}
	for name, src := range srcs {
		edited[name] = strings.Replace(src, "func main() {",
			"//ivlint:allow deadcode — stale\nfunc main() {", 1)
	}
	diags := Run(loadTestSrc(t, "deadc", edited), []*Analyzer{unscoped(Deadcode)})
	if n := countFor(diags, "unused ivlint:allow directive: no deadcode diagnostic"); n != 1 {
		t.Fatalf("stale deadcode allow produced %d diagnostics, want 1: %v", n, diags)
	}
}

// stats.Percentile has no caller in the main module; simbench's commands
// reach it. The walk must root at the nested simbench module too.
func TestDeadcodeRootsSimbench(t *testing.T) {
	pkgs, err := Load([]string{"ivleague/internal/stats"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs[0], []*Analyzer{Deadcode}) {
		if strings.Contains(d.Message, "Percentile") {
			t.Fatalf("stats.Percentile reported although simbench reaches it: %s", d)
		}
	}
}
