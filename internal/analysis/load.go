package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Module is one loaded Go module: every non-test package parsed and
// type-checked against a shared FileSet.
type Module struct {
	// Path is the module path from go.mod (e.g. "cdl").
	Path string
	// Dir is the module root on disk.
	Dir  string
	Fset *token.FileSet
	// Packages is every package in dependency (load) order.
	Packages []*Package

	// allow maps file → line → analyzer names waived by //cdlvet:allow.
	allow map[string]map[int][]string
}

// Package is one type-checked package of the module.
type Package struct {
	Mod *Module
	// Path is the import path ("cdl/internal/nn").
	Path string
	// Rel is the directory relative to the module root ("" at the root).
	Rel string
	Dir string
	// Selected reports whether the package matched the driver's patterns
	// (dependencies of selected packages load either way).
	Selected bool

	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// LoadModule parses and type-checks every non-test package under the module
// rooted at (or above) dir. Patterns select which packages analyzers will
// visit: "./..." selects everything, "./internal/serve" one package,
// "./internal/..." a subtree. All packages are loaded regardless, since
// selected packages may depend on unselected ones and module-wide passes
// need the full picture.
func LoadModule(dir string, patterns []string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	mod := &Module{
		Path:  modPath,
		Dir:   root,
		Fset:  token.NewFileSet(),
		allow: make(map[string]map[int][]string),
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	byRel := make(map[string]*parsedDir)
	var rels []string
	for _, rel := range dirs {
		p, err := mod.parseDir(rel)
		if err != nil {
			return nil, err
		}
		if p == nil || len(p.files) == 0 {
			continue
		}
		byRel[rel] = p
		rels = append(rels, rel)
	}

	// Topological order over intra-module imports so each package's
	// dependencies are type-checked before it.
	order, err := topoSort(mod, rels, byRel, func(rel string) map[string]bool { return byRel[rel].imports })
	if err != nil {
		return nil, err
	}

	src := importer.ForCompiler(mod.Fset, "source", nil)
	imp := &chainImporter{mod: mod, fallback: src, pkgs: make(map[string]*types.Package)}
	for _, rel := range order {
		p := byRel[rel]
		pkg := &Package{
			Mod:      mod,
			Path:     importPath(modPath, rel),
			Rel:      rel,
			Dir:      filepath.Join(root, filepath.FromSlash(rel)),
			Files:    p.files,
			Selected: matchPatterns(patterns, rel),
			Info: &types.Info{
				Types:      make(map[ast.Expr]types.TypeAndValue),
				Defs:       make(map[*ast.Ident]types.Object),
				Uses:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
				Implicits:  make(map[ast.Node]types.Object),
				Scopes:     make(map[ast.Node]*types.Scope),
			},
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		tpkg, _ := conf.Check(pkg.Path, mod.Fset, pkg.Files, pkg.Info)
		pkg.Types = tpkg
		imp.pkgs[pkg.Path] = tpkg
		mod.Packages = append(mod.Packages, pkg)
	}
	return mod, nil
}

// Lookup returns the loaded package with the given module-relative
// directory ("internal/nn"), or nil.
func (m *Module) Lookup(rel string) *Package {
	for _, p := range m.Packages {
		if p.Rel == rel {
			return p
		}
	}
	return nil
}

// TypeErrors collects the type errors of every selected package.
func (m *Module) TypeErrors() []error {
	var errs []error
	for _, p := range m.Packages {
		errs = append(errs, p.TypeErrors...)
	}
	return errs
}

func importPath(modPath, rel string) string {
	if rel == "" {
		return modPath
	}
	return modPath + "/" + rel
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			m := moduleRe.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
			}
			return d, string(m[1]), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// packageDirs returns every module-relative directory that holds non-test
// .go files, skipping testdata, hidden and underscore directories and
// nested modules.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				if rel == "." {
					rel = ""
				}
				dirs = append(dirs, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

type parsedDir struct {
	files   []*ast.File
	imports map[string]bool
}

// parseDir parses the non-test files of one package directory that build
// on this platform and records their //cdlvet:allow directives.
func (m *Module) parseDir(rel string) (*parsedDir, error) {
	dir := filepath.Join(m.Dir, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := &parsedDir{imports: make(map[string]bool)}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Only what a build for this platform compiles: a file pair split
		// by build constraints declares its names once in each half.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(m.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		out.files = append(out.files, f)
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err == nil {
				out.imports[p] = true
			}
		}
		m.scanDirectives(path, f)
	}
	return out, nil
}

// topoSort orders package dirs so intra-module dependencies come first.
func topoSort(m *Module, rels []string, byRel map[string]*parsedDir, imports func(string) map[string]bool) ([]string, error) {
	relOf := make(map[string]string) // import path → rel
	for _, rel := range rels {
		relOf[importPath(m.Path, rel)] = rel
	}
	const (
		white = iota
		grey
		black
	)
	state := make(map[string]int)
	var order []string
	var visit func(rel string, stack []string) error
	visit = func(rel string, stack []string) error {
		switch state[rel] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("analysis: import cycle through %s (%s)", rel, strings.Join(stack, " → "))
		}
		state[rel] = grey
		var deps []string
		for imp := range imports(rel) {
			if dep, ok := relOf[imp]; ok && dep != rel {
				deps = append(deps, dep)
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep, append(stack, rel)); err != nil {
				return err
			}
		}
		state[rel] = black
		order = append(order, rel)
		return nil
	}
	for _, rel := range rels {
		if err := visit(rel, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func matchPatterns(patterns []string, rel string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		p = strings.TrimPrefix(p, "./")
		p = strings.TrimSuffix(p, "/")
		switch {
		case p == "..." || p == ".":
			return true
		case strings.HasSuffix(p, "/..."):
			prefix := strings.TrimSuffix(p, "/...")
			if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
				return true
			}
		default:
			if rel == p {
				return true
			}
		}
	}
	return false
}

// chainImporter resolves module-internal import paths to the packages this
// loader already checked and everything else (the standard library) through
// the source importer, keeping the tool free of external dependencies.
type chainImporter struct {
	mod      *Module
	fallback types.Importer
	pkgs     map[string]*types.Package
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, c.mod.Dir, 0)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == c.mod.Path || strings.HasPrefix(path, c.mod.Path+"/") {
		if p, ok := c.pkgs[path]; ok && p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("analysis: internal package %s not loaded", path)
	}
	if from, ok := c.fallback.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return c.fallback.Import(path)
}
