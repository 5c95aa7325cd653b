package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
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
	std    types.Importer
	// stdSeen caches toolchain imports: the source importer resolves the
	// path with go/build, reading the package directory, on every call
	// before it looks in its own cache (~10% of a whole-module lint).
	stdSeen map[string]*types.Package
}

func newChecker(fset *token.FileSet, byPath map[string]*Package) *checker {
	return &checker{fset: fset, byPath: byPath,
		std: importer.ForCompiler(fset, "source", nil), stdSeen: make(map[string]*types.Package)}
}

func (c *checker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.byPath[path]; ok {
		if err := c.check(pkg); err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if p := c.stdSeen[path]; p != nil {
		return p, nil
	}
	p, err := c.std.Import(path)
	if err != nil {
		return nil, err
	}
	c.stdSeen[path] = p
	return p, nil
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
