package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

// lint runs the multichecker with the cache pointed at a per-test
// directory, so tests never touch (or depend on) the real user cache.
func lint(t *testing.T, cacheHome string, args ...string) (string, int) {
	t.Helper()
	t.Setenv("XDG_CACHE_HOME", cacheHome)
	var out, errBuf bytes.Buffer
	status := run(args, &out, &errBuf)
	if errBuf.Len() > 0 {
		t.Logf("stderr: %s", errBuf.String())
	}
	return out.String(), status
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatalf("go.mod not found above %s", dir)
		}
		d = parent
	}
}

// The acceptance gate from the other side: the shipped binary, run the
// way CI runs it, reports nothing on the repo.
func TestLintRunsCleanOnRepo(t *testing.T) {
	out, status := lint(t, t.TempDir(), "-no-cache", repoRoot(t)+"/...")
	if status != 0 {
		t.Fatalf("tioga-lint found problems in the repo (status %d):\n%s", status, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Fatalf("clean run produced output:\n%s", out)
	}
}

func TestLintFindsBrokenMutator(t *testing.T) {
	dir := t.TempDir()
	src := `package rel

type Relation struct {
	cols []int
	gen  int64
}

func (r *Relation) bumpGen() { r.gen++ }

func (r *Relation) Append(v int) {
	r.cols = append(r.cols, v)
}
`
	if err := os.WriteFile(filepath.Join(dir, "rel.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, status := lint(t, t.TempDir(), "-no-cache", dir)
	if status != 1 {
		t.Fatalf("status = %d, want 1\n%s", status, out)
	}
	if !strings.Contains(out, "genbump") || !strings.Contains(out, "Append") {
		t.Fatalf("finding not attributed:\n%s", out)
	}
}

// writeFixture drops one source file into a fresh temp dir and returns
// the dir.
func writeFixture(t *testing.T, name, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLintCatchesInvariantBreaks is the end-to-end acceptance check for
// the type-aware suite: a deliberately-introduced violation of each
// invariant — frozen-relation mutation, lock-order inversion, mixed
// atomic access, untyped API error — is caught by the shipped binary,
// attributed to the right pass and code.
func TestLintCatchesInvariantBreaks(t *testing.T) {
	cases := []struct {
		name string
		file string
		src  string
		pass string
		code string
	}{
		{
			name: "freezecheck",
			file: "freeze.go",
			pass: "freezecheck",
			code: "FZ001",
			src: `package app

type Relation struct{ tuples []int }

func (r *Relation) Append(v int) { r.tuples = append(r.tuples, v) }

type Snap struct{ tables map[string]*Relation }

func (s *Snap) Table(name string) (*Relation, error) { return s.tables[name], nil }

func mutateSnapshot(s *Snap) {
	t, _ := s.Table("x")
	t.Append(1)
}
`,
		},
		{
			name: "lockcheck",
			file: "locks.go",
			pass: "lockcheck",
			code: "LK001",
			src: `package app

import "sync"

type Session struct{ mu sync.RWMutex }

type Database struct{ mu sync.RWMutex }

func inverted(d *Database, s *Session) {
	d.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	d.mu.Unlock()
}
`,
		},
		{
			name: "atomiccheck",
			file: "atomic.go",
			pass: "atomiccheck",
			code: "AT002",
			src: `package app

import "sync/atomic"

type C struct{ gen int64 }

func (c *C) Bump() int64 { return atomic.AddInt64(&c.gen, 1) }

func (c *C) Clobber(v int64) { c.gen = v }
`,
		},
		{
			name: "errtype",
			file: "errs.go",
			pass: "errtype",
			code: "ET001",
			src: `package db

import "fmt"

func Open(name string) error {
	return fmt.Errorf("open %q failed", name)
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeFixture(t, tc.file, tc.src)
			out, status := lint(t, t.TempDir(), "-no-cache", dir)
			if status != 1 {
				t.Fatalf("status = %d, want 1\n%s", status, out)
			}
			if !strings.Contains(out, tc.pass) || !strings.Contains(out, tc.code) {
				t.Fatalf("finding not attributed to (%s %s):\n%s", tc.pass, tc.code, out)
			}
		})
	}
}

// TestLintJSONReport checks the -json schema: version, and per finding
// pass/code/pos/message.
func TestLintJSONReport(t *testing.T) {
	dir := writeFixture(t, "errs.go", `package db

import "errors"

func Open() error {
	return errors.New("nope")
}
`)
	out, status := lint(t, t.TempDir(), "-no-cache", "-json", dir)
	if status != 1 {
		t.Fatalf("status = %d, want 1\n%s", status, out)
	}
	var rep struct {
		Version     int `json:"version"`
		Diagnostics []struct {
			Pass string `json:"pass"`
			Code string `json:"code"`
			Pos  struct {
				File string `json:"file"`
				Line int    `json:"line"`
				Col  int    `json:"col"`
			} `json:"pos"`
			Message string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if rep.Version != 2 {
		t.Errorf("version = %d, want 2", rep.Version)
	}
	if len(rep.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %d, want 1\n%s", len(rep.Diagnostics), out)
	}
	d := rep.Diagnostics[0]
	if d.Pass != "errtype" || d.Code != "ET002" {
		t.Errorf("finding attributed to (%s %s), want (errtype ET002)", d.Pass, d.Code)
	}
	if !strings.HasSuffix(d.Pos.File, "errs.go") || d.Pos.Line == 0 || d.Pos.Col == 0 {
		t.Errorf("bad position: %+v", d.Pos)
	}
	if d.Message == "" {
		t.Error("empty message")
	}
}

// TestLintJSONCleanRun: a clean run must still emit a valid report with
// an empty (not null) diagnostics array.
func TestLintJSONCleanRun(t *testing.T) {
	dir := writeFixture(t, "ok.go", "package ok\n\nfunc Fine() {}\n")
	out, status := lint(t, t.TempDir(), "-no-cache", "-json", dir)
	if status != 0 {
		t.Fatalf("status = %d, want 0\n%s", status, out)
	}
	if !strings.Contains(out, `"diagnostics":[]`) {
		t.Fatalf("clean report should carry an empty array:\n%s", out)
	}
}

// TestCacheKeyTracksDeps: the v2 key must change when a module-local
// dependency's source changes, because type information (and therefore
// analysis results) flows through imports.
func TestCacheKeyTracksDeps(t *testing.T) {
	root := t.TempDir()
	mustWrite := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("go.mod", "module m\n\ngo 1.22\n")
	mustWrite("b/b.go", "package b\n\ntype T struct{ N int }\n")
	mustWrite("a/a.go", "package a\n\nimport \"m/b\"\n\nfunc Use(t b.T) int { return t.N }\n")

	key := func() string {
		t.Helper()
		pkgs, err := analyzers.Load([]string{filepath.Join(root, "a")})
		if err != nil || len(pkgs) != 1 {
			t.Fatalf("load: %v (%d pkgs)", err, len(pkgs))
		}
		k, err := cacheKey(pkgs[0], analyzers.All())
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	before := key()
	mustWrite("b/b.go", "package b\n\ntype T struct{ N int64 }\n")
	after := key()
	if before == after {
		t.Fatal("cache key ignored a dependency edit; type-aware results would go stale")
	}
}

func TestLintCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := `package use

import "context"

func dropped(ctx context.Context) {}
`
	if err := os.WriteFile(filepath.Join(dir, "use.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := t.TempDir()
	first, s1 := lint(t, cache, dir)
	second, s2 := lint(t, cache, dir) // served from the cache
	if s1 != 1 || s2 != 1 {
		t.Fatalf("statuses = %d, %d, want 1, 1", s1, s2)
	}
	if first != second {
		t.Fatalf("cached replay differs:\n--- first\n%s--- second\n%s", first, second)
	}
	entries, err := os.ReadDir(filepath.Join(cache, "tioga-lint"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written (err %v)", err)
	}

	// Editing the file must invalidate the entry.
	fixed := strings.Replace(src, "func dropped(ctx context.Context) {}",
		"func dropped(ctx context.Context) { _ = ctx }", 1)
	if err := os.WriteFile(filepath.Join(dir, "use.go"), []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	out, status := lint(t, cache, dir)
	if status != 0 {
		t.Fatalf("fixed package still failing (status %d):\n%s", status, out)
	}
}
