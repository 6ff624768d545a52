package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// writeResults implements the benchmarks/results/ convention
// (docs/benchmarks.md): the gates JSON lands as <dir>/<UTC timestamp>.json
// and <dir>/index.md is regenerated from every record in the directory, so
// the committed index can never disagree with the committed records.
func writeResults(dir string, buf []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := time.Now().UTC().Format("20060102T150405Z") + ".json"
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", err
	}
	if err := regenIndex(dir); err != nil {
		return "", fmt.Errorf("regenerating %s: %w", filepath.Join(dir, "index.md"), err)
	}
	return path, nil
}

// regenIndex rewrites <dir>/index.md from the *.json records in dir, newest
// last (timestamped names sort chronologically; the legacy BENCH_PR*.json
// records sort before them, which is also their true order). Records read
// as a result: the flat keys of older perfgate versions are ignored, so
// every vintage indexes cleanly.
func regenIndex(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)

	var b strings.Builder
	b.WriteString("# Benchmark results index\n\n")
	b.WriteString("Regenerated by `perfgate -results` from the records in this directory —\n")
	b.WriteString("do not edit by hand. Columns and reading guide: `docs/benchmarks.md`.\n\n")
	b.WriteString("| Record | Host | Gates (pass/skip/fail) | Failed | Pass |\n")
	b.WriteString("|--------|------|------------------------|--------|------|\n")
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return err
		}
		var rec result
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		var pass, skip int
		var failed []string
		for _, g := range rec.Gates {
			switch g.Status {
			case "pass":
				pass++
			case "skip":
				skip++
			case "fail":
				failed = append(failed, g.Gate)
			}
		}
		host := fmt.Sprintf("%s/%s %d CPU %s", rec.Host.GOOS, rec.Host.GOARCH, rec.Host.CPUs, rec.Host.GoVersion)
		failCol := "—"
		if len(failed) > 0 {
			failCol = strings.Join(failed, ", ")
		}
		passCol := "no"
		if rec.Pass {
			passCol = "yes"
		}
		fmt.Fprintf(&b, "| [%s](%s) | %s | %d/%d/%d | %s | %s |\n",
			f, f, host, pass, skip, len(failed), failCol, passCol)
	}
	return os.WriteFile(filepath.Join(dir, "index.md"), []byte(b.String()), 0o644)
}
