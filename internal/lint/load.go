package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	Path  string // import path, e.g. "kset/internal/mpnet"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// Types and Info are complete: every import resolved (in-module
	// packages from the module itself, the rest from toolchain source) and
	// the package type-checked without error, so analyzers ask go/types
	// alone.
	Types *types.Package
	Info  *types.Info
}

// Load parses and type-checks every non-test package of the module rooted
// at dir (the directory containing go.mod). Test files, testdata trees, and
// nested modules are skipped. It fails on the first type error or
// unresolved import, naming the package and the position.
func Load(dir string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	byPath := make(map[string]*Package)
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		pkg, err := parseDir(fset, path, importPathFor(modPath, dir, path))
		if err != nil {
			return err
		}
		if pkg != nil {
			byPath[pkg.Path] = pkg
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	check := newChecker(fset, byPath)
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := check.check(byPath[p]); err != nil {
			return nil, err
		}
	}

	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkgs = append(pkgs, byPath[p])
	}
	return pkgs, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: cannot read %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(mod); err == nil {
				mod = unq
			}
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

func importPathFor(modPath, root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// parseDir parses the non-test Go files of one directory; nil if the
// directory holds no Go package.
func parseDir(fset *token.FileSet, dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parseOne(fset, filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files}, nil
}

func parseOne(fset *token.FileSet, filename string) (*ast.File, error) {
	f, err := parser.ParseFile(fset, filename, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	return f, nil
}

// checker type-checks module packages in dependency order, resolving
// in-module imports from its own results and everything else from the
// toolchain source.
type checker struct {
	fset   *token.FileSet
	byPath map[string]*Package
	std    *stdImporter
}

func newChecker(fset *token.FileSet, byPath map[string]*Package) *checker {
	return &checker{fset: fset, byPath: byPath, std: newStdImporter(fset)}
}

func (c *checker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.byPath[path]; ok {
		if err := c.check(pkg); err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return c.std.ImportFrom(path, ".", 0)
}

// stdImporter type-checks imported toolchain packages from source, function
// bodies skipped, like go/importer's "source" importer, with two savings
// that halve a whole-module lint. It looks a path up in its cache before
// resolving it: go/build reads the package directory and the header of
// every file in it on each resolution, and the source importer resolves
// every import of every file it checks. And it selects files with cgo off,
// so net and os/user type-check from their pure-Go files instead of
// running the cgo tool; their exported API is the same either way. An
// import path names one package across the toolchain tree (vendored paths
// resolve alike from every directory of it), so the cache is keyed by path.
type stdImporter struct {
	fset  *token.FileSet
	ctxt  build.Context
	sizes types.Sizes
	pkgs  map[string]*types.Package // nil value: import in progress
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &stdImporter{fset: fset, ctxt: ctxt,
		sizes: types.SizesFor(ctxt.Compiler, ctxt.GOARCH), pkgs: make(map[string]*types.Package)}
}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, ".", 0)
}

func (s *stdImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	// A vendored package (path golang.org/x/..., package path
	// vendor/golang.org/x/...) is cached for the toolchain's own imports;
	// a module import of that path resolves from the module as before.
	if pkg, seen := s.pkgs[path]; seen && (pkg == nil || pkg.Path() == path || dir != ".") {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through package %q", path)
		}
		return pkg, nil
	}
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	bp, err := s.ctxt.Import(path, dir, 0)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = nil
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			delete(s.pkgs, path)
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{IgnoreFuncBodies: true, Importer: s, Sizes: s.sizes}
	pkg, err := conf.Check(bp.ImportPath, s.fset, files, nil)
	if err != nil {
		delete(s.pkgs, path)
		return nil, fmt.Errorf("type-checking package %q failed (%v)", bp.ImportPath, err)
	}
	s.pkgs[path] = pkg
	return pkg, nil
}

// check type-checks pkg once; the first type error, an unresolved import
// included, fails it.
func (c *checker) check(pkg *Package) error {
	if pkg.Types != nil {
		return nil
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: c}
	tpkg, err := conf.Check(pkg.Path, c.fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: package %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}
