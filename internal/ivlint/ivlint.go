// Package ivlint is a repo-specific static-analysis suite enforcing the
// simulator's two load-bearing contracts:
//
//   - determinism: identical inputs must produce byte-identical figure
//     tables, so wall-clock reads, ambient randomness, environment lookups
//     and map-ordered iteration are banned from the simulation packages;
//   - panic discipline: construction-time validation may panic, but
//     nothing reachable from a per-access path may — input-dependent
//     failures must surface as errors the kernel can report.
//
// The suite is a miniature go/analysis: each Analyzer runs over a
// type-checked package (see Load) and reports Diagnostics. A finding that
// is deliberate is suppressed in place with
//
//	//ivlint:allow <analyzer> — <reason>
//
// on the offending line or the line above. The reason is mandatory, and
// stale directives are themselves diagnostics, so the suppression set
// cannot silently rot.
package ivlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	// Packages lists the import paths the analyzer applies to; the driver
	// skips packages outside it. PackagePrefixes extends the scope to every
	// package whose import path starts with one of the prefixes. Both empty
	// means every package.
	Packages        []string
	PackagePrefixes []string
	Run             func(*Pass)
}

// AppliesTo reports whether the analyzer covers the import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Packages) == 0 && len(a.PackagePrefixes) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if p == pkgPath {
			return true
		}
	}
	for _, p := range a.PackagePrefixes {
		if strings.HasPrefix(pkgPath, p) {
			return true
		}
	}
	return false
}

// Analyzers returns the full suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Determinism, MapIter, PanicPath, ConfigAliasing, Printcall, FloatAccum, ErrDrop, HotAlloc, Deadcode}
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass is one analyzer's run over one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	live  map[string]bool // see Package.live
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes every applicable analyzer on pkg and returns the surviving
// diagnostics: suppressed findings are dropped, and malformed or unused
// //ivlint:allow directives are reported as findings of the pseudo-analyzer
// "ivlint". The result is sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		if !a.AppliesTo(pkg.PkgPath) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			live:      pkg.live,
		}
		a.Run(pass)
		diags = append(diags, pass.diags...)
	}
	diags = applyDirectives(pkg.Fset, pkg.Files, known, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "//ivlint:allow"

// directive is one parsed //ivlint:allow comment.
type directive struct {
	analyzer string
	pos      token.Position
	bad      string // non-empty: malformation message
	used     bool
}

// parseDirective parses the text of one //ivlint:allow comment.
func parseDirective(text string, known map[string]bool) (analyzer string, bad string) {
	rest := strings.TrimPrefix(text, directivePrefix)
	if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return "", "malformed ivlint:allow directive: want \"//ivlint:allow <analyzer> — <reason>\""
	}
	// Accept an em-dash or a double hyphen as the analyzer/reason separator.
	sep := strings.Index(rest, "—")
	sepLen := len("—")
	if alt := strings.Index(rest, "--"); sep < 0 || (alt >= 0 && alt < sep) {
		if alt >= 0 {
			sep, sepLen = alt, 2
		}
	}
	if sep < 0 {
		return "", "ivlint:allow directive is missing the \"— <reason>\" clause"
	}
	name := strings.TrimSpace(rest[:sep])
	reason := strings.TrimSpace(rest[sep+sepLen:])
	if name == "" || strings.ContainsAny(name, " \t") {
		return "", "ivlint:allow directive must name exactly one analyzer"
	}
	if !known[name] {
		return "", fmt.Sprintf("ivlint:allow directive names unknown analyzer %q", name)
	}
	if reason == "" {
		return name, "ivlint:allow directive has an empty reason"
	}
	return name, ""
}

// applyDirectives drops diagnostics covered by an //ivlint:allow on the
// same line or the line above, and appends diagnostics for malformed and
// unused directives.
func applyDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool, diags []Diagnostic) []Diagnostic {
	var dirs []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				name, bad := parseDirective(c.Text, known)
				dirs = append(dirs, &directive{
					analyzer: name,
					pos:      fset.Position(c.Pos()),
					bad:      bad,
				})
			}
		}
	}
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, dir := range dirs {
			if dir.bad != "" || dir.analyzer != d.Analyzer {
				continue
			}
			if dir.pos.Filename != d.Pos.Filename {
				continue
			}
			if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, dir := range dirs {
		switch {
		case dir.bad != "":
			out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "ivlint", Message: dir.bad})
		case !dir.used:
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "ivlint",
				Message: fmt.Sprintf("unused ivlint:allow directive: no %s diagnostic on this or the next line",
					dir.analyzer),
			})
		}
	}
	return out
}
