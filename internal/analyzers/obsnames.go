package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
)

// ObsNames keeps internal/obs/names.go the single spelling authority
// for every metric and span name: any name passed to an obs entry
// point must be a constant declared there — never a string literal,
// and never an obs selector that the registry does not define. A typo
// in a counter name otherwise fails silently (the registry just mints
// a new counter) and the shell, snapshot diffs, and trace viewer stop
// agreeing on what exists.
//
// Test files are exempt: tests exercise the registry machinery itself
// with throwaway names.
var ObsNames = &Analyzer{
	Name:  "obsnames",
	Doc:   "obs metric/span names must be constants from internal/obs/names.go",
	Run:   runObsNames,
	Codes: []string{"OB001", "OB002"},
}

// obsNameArg maps each name-taking obs entry point to the index of its
// name argument.
var obsNameArg = map[string]int{
	"Inc":             0,
	"Add":             0,
	"Observe":         0,
	"CounterValue":    0,
	"RecordError":     0,
	"StartTimer":      0,
	"LookupHistogram": 0,
	"StartSpanCtx":    1,
	"StartSpanCtxOn":  2,
}

// obsNamesRel locates the registry file under the module root.
var obsNamesRel = filepath.Join("internal", "obs", "names.go")

func runObsNames(pass *Pass) error {
	// The registry package itself declares the constants and tests the
	// machinery with raw strings; it is out of scope.
	if filepath.Clean(pass.Dir) == filepath.Join(pass.ModuleRoot, "internal", "obs") ||
		strings.HasSuffix(filepath.ToSlash(filepath.Clean(pass.Dir)), "internal/obs") {
		return nil
	}
	var names map[string]bool
	for _, f := range pass.Files {
		file := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		local := obsImportName(f)
		if local == "" {
			continue
		}
		if names == nil {
			var err error
			if names, err = obsDeclaredNames(pass.ModuleRoot); err != nil {
				return err
			}
		}
		checkObsCalls(pass, f, local, names)
	}
	return nil
}

// obsImportName returns the local identifier the file binds the obs
// package to, or "" when the file does not import it.
func obsImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path != "repro/internal/obs" && !strings.HasSuffix(path, "/internal/obs") {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		return "obs"
	}
	return ""
}

func checkObsCalls(pass *Pass, f *ast.File, local string, names map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != local {
			return true
		}
		idx, ok := obsNameArg[sel.Sel.Name]
		if !ok || len(call.Args) <= idx {
			return true
		}
		switch arg := call.Args[idx].(type) {
		case *ast.BasicLit:
			if arg.Kind == token.STRING {
				pass.Report(arg.Pos(), "OB001",
					"obs.%s called with string literal %s; use a constant from %s",
					sel.Sel.Name, arg.Value, obsNamesRel)
			}
		case *ast.SelectorExpr:
			if id, ok := arg.X.(*ast.Ident); ok && id.Name == local {
				if !names[arg.Sel.Name] {
					pass.Report(arg.Pos(), "OB002",
						"obs.%s is not declared in %s", arg.Sel.Name, obsNamesRel)
				}
			}
		}
		return true
	})
}

// The registry constants are parsed once per module root and shared
// across packages — tioga-lint touches every package in one run.
var obsNamesCache sync.Map // module root -> map[string]bool

// obsDeclaredNames parses internal/obs/names.go under root and returns
// the set of constant identifiers it declares.
func obsDeclaredNames(root string) (map[string]bool, error) {
	if v, ok := obsNamesCache.Load(root); ok {
		return v.(map[string]bool), nil
	}
	path := filepath.Join(root, obsNamesRel)
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("obsnames: loading registry: %w", err)
	}
	names := map[string]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				names[name.Name] = true
			}
		}
	}
	obsNamesCache.Store(root, names)
	return names, nil
}
