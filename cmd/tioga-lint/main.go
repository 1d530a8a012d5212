// Command tioga-lint runs the repo's custom invariant suite
// (internal/analyzers: the syntactic trio genbump/obsnames/ctxcheck
// plus the type-aware concurrency and immutability passes
// freezecheck/lockcheck/atomiccheck/errtype) over Go packages,
// multichecker-style. It complements go vet and staticcheck in CI with
// the rules only this codebase knows about:
//
//	tioga-lint ./...
//
// prints one located finding per line,
//
//	internal/rel/relation.go:220:6: method Update writes r.cols but never calls r.bumpGen(); ... (genbump GB001)
//
// and exits 1 when anything was found, 0 on a clean run, 2 on unusable
// input. -json instead emits a machine-readable report on stdout:
//
//	{"version":2,"diagnostics":[{"pass":"genbump","code":"GB001",
//	  "pos":{"file":"internal/rel/relation.go","line":220,"col":6},
//	  "message":"..."}]}
//
// Results are cached per package under os.UserCacheDir()/tioga-lint.
// Because the type-aware passes see through imports, the cache key
// hashes not just the package's own files but the Go toolchain version
// and every transitive module-local dependency directory — editing
// internal/rel invalidates every package whose types mention
// rel.Relation, while doc-only edits elsewhere leave entries warm.
// -no-cache bypasses both reads and writes.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tioga-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	noCache := fs.Bool("no-cache", false, "re-analyze every package, ignoring cached results")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report instead of text lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analyzers.Load(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "tioga-lint: %v\n", err)
		return 2
	}

	suite := analyzers.All()
	cacheDir := ""
	if !*noCache {
		cacheDir = ensureCacheDir()
	}

	var all []analyzers.Diagnostic
	for _, pkg := range pkgs {
		key := ""
		if cacheDir != "" {
			if key, err = cacheKey(pkg, suite); err != nil {
				key = "" // unreadable file: analyze uncached
			}
		}
		diags, hit := readCache(cacheDir, key)
		if !hit {
			diags, err = analyzers.Run([]*analyzers.Package{pkg}, suite)
			if err != nil {
				fmt.Fprintf(stderr, "tioga-lint: %v\n", err)
				return 2
			}
			writeCache(cacheDir, key, diags)
		}
		all = append(all, diags...)
	}

	if *jsonOut {
		if err := writeJSON(stdout, all); err != nil {
			fmt.Fprintf(stderr, "tioga-lint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range all {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}

// jsonReport is the -json schema, consumed by the CI problem matcher
// pipeline and report artifact. The version field gates incompatible
// schema changes.
type jsonReport struct {
	Version     int        `json:"version"`
	Diagnostics []jsonDiag `json:"diagnostics"`
}

type jsonDiag struct {
	Pass    string  `json:"pass"`
	Code    string  `json:"code,omitempty"`
	Pos     jsonPos `json:"pos"`
	Message string  `json:"message"`
}

type jsonPos struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func writeJSON(w io.Writer, diags []analyzers.Diagnostic) error {
	rep := jsonReport{Version: 2, Diagnostics: []jsonDiag{}}
	for _, d := range diags {
		rep.Diagnostics = append(rep.Diagnostics, jsonDiag{
			Pass:    d.Analyzer,
			Code:    d.Code,
			Pos:     jsonPos{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column},
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(rep)
}

// ensureCacheDir creates the result cache, returning "" (cache off) on
// any failure — a read-only HOME must not break linting.
func ensureCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	dir := filepath.Join(base, "tioga-lint")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	return dir
}

// cacheKey hashes everything the analysis result can depend on: the
// suite composition (names and codes — a rule gaining a code changes
// its output), the Go toolchain version (go/types behavior follows the
// stdlib), the package's own files, and the files of every transitive
// module-local dependency, since type information flows through
// imports. Stdlib dependencies are covered by the toolchain version.
func cacheKey(pkg *analyzers.Package, suite []*analyzers.Analyzer) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "tioga-lint/2\n")
	fmt.Fprintf(h, "go %s\n", runtime.Version())
	for _, a := range suite {
		fmt.Fprintf(h, "analyzer %s %s\n", a.Name, strings.Join(a.Codes, ","))
	}
	for _, name := range pkg.FileNames {
		data, err := os.ReadFile(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "file %s %d\n", name, len(data))
		h.Write(data)
	}
	for _, dir := range pkg.LocalDeps() {
		if err := hashDepDir(h, dir); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashDepDir folds one dependency directory's Go sources into the key.
// A dependency directory that vanished still hashes (as empty): the
// type check degrades rather than fails, so the cache entry stays
// valid for that degraded result.
func hashDepDir(h io.Writer, dir string) error {
	fmt.Fprintf(h, "dep %s\n", dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "depfile %s %d\n", name, len(data))
		h.Write(data)
	}
	return nil
}

func readCache(dir, key string) ([]analyzers.Diagnostic, bool) {
	if dir == "" || key == "" {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		return nil, false
	}
	var diags []analyzers.Diagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		return nil, false
	}
	return diags, true
}

func writeCache(dir, key string, diags []analyzers.Diagnostic) {
	if dir == "" || key == "" {
		return
	}
	data, err := json.Marshal(diags)
	if err != nil {
		return
	}
	tmp := filepath.Join(dir, key+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	os.Rename(tmp, filepath.Join(dir, key+".json"))
}
