package ivlint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package the analyzers run over.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// live holds the qualified names every main and init of the whole
	// program reaches (see Deadcode).
	live map[string]bool
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// nestedRoots are the nested modules, relative to the module root, whose
// commands also root the deadcode walk: simbench drives internal packages
// through entry points the main module's commands do not use.
var nestedRoots = []string{"simbench"}

// Load type-checks the whole program from source — every package of the
// module the patterns resolve to, plus the nested modules in nestedRoots —
// and returns the packages the patterns match, in `go list` order. Each
// module is listed with `go list -deps -export -json ./...` in its own
// directory; dependencies are never re-analyzed: their compiled export
// data — produced by the same `go list` invocation — feeds the type
// checker. The whole program is needed whatever the patterns match,
// because the deadcode analyzer asks what its mains and inits reach.
//
// This deliberately reimplements a sliver of golang.org/x/tools
// go/packages: the module is stdlib-only (see DESIGN.md), and the standard
// toolchain already provides everything a single-module analysis needs.
func Load(patterns []string) ([]*Package, error) {
	matched, modDir, err := match(patterns)
	if err != nil || len(matched) == 0 {
		return nil, err
	}
	prog, err := loadModule(modDir)
	if err != nil {
		return nil, err
	}
	for _, nested := range nestedRoots {
		dir := filepath.Join(modDir, nested)
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue
		}
		more, err := loadModule(dir)
		if err != nil {
			return nil, err
		}
		prog = append(prog, more...)
	}
	live := liveSet(prog)
	var pkgs []*Package
	for _, p := range prog {
		if matched[p.PkgPath] {
			p.live = live
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// match resolves the patterns to import paths with a plain `go list`,
// which neither builds nor type-checks, and returns the directory of the
// one module they all belong to.
func match(patterns []string) (matched map[string]bool, modDir string, err error) {
	const format = "{{.ImportPath}}\t{{with .Module}}{{.Dir}}{{end}}"
	out, err := goList("", append([]string{"-f", format, "--"}, patterns...)...)
	if err != nil {
		return nil, "", err
	}
	matched = map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" {
			continue
		}
		path, dir, _ := strings.Cut(line, "\t")
		if dir == "" || (modDir != "" && dir != modDir) {
			return nil, "", fmt.Errorf("package %s is not in the module being checked", path)
		}
		modDir = dir
		matched[path] = true
	}
	return matched, modDir, nil
}

// goList runs `go list args...` in dir (the current directory if empty).
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out, nil
}

// loadModule lists every package of the module in dir and type-checks
// each from source.
func loadModule(dir string) ([]*Package, error) {
	out, err := goList(dir, "-deps", "-export", "-json", "./...")
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var roots []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			roots = append(roots, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, lp := range roots {
		if len(lp.GoFiles) == 0 || len(lp.CgoFiles) > 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   lp.ImportPath,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return pkgs, nil
}

// newInfo allocates the types.Info maps the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
