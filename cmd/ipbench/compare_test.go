package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline serializes a document with the given results to a temp file.
func writeBaseline(t *testing.T, dir, name string, results []baselineResult) string {
	t.Helper()
	doc := &baselineDoc{Results: results}
	doc.Environment.NumCPU = 4
	doc.Environment.GOMAXPROCS = 4
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareCleanPass(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000, AllocsPerOp: 2},
		{Name: "convert/reuse", NsPerOp: 500, AllocsPerOp: 0},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1050, AllocsPerOp: 2}, // +5%, inside threshold
		{Name: "convert/reuse", NsPerOp: 480, AllocsPerOp: 0},
		{Name: "recipe/diff/1MiB", NsPerOp: 300, AllocsPerOp: 3}, // new row, ignored
	})
	var buf bytes.Buffer
	if err := runCompare(&buf, oldPath, newPath, 0.25); err != nil {
		t.Fatalf("clean compare failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "2 compared, 0 regressed") {
		t.Fatalf("unexpected summary:\n%s", buf.String())
	}
}

func TestCompareDetectsSlowdown(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000, AllocsPerOp: 2},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1500, AllocsPerOp: 2}, // +50%
	})
	var buf bytes.Buffer
	err := runCompare(&buf, oldPath, newPath, 0.25)
	var reg errRegression
	if !errors.As(err, &reg) || reg.n != 1 {
		t.Fatalf("want 1 regression, got err=%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Fatalf("table missing verdict:\n%s", buf.String())
	}
}

// TestCompareDetectsDeltaGrowth pins the compression gate: a diff row
// that got faster by sending more literal bytes has regressed.
func TestCompareDetectsDeltaGrowth(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "diff/full/64MiB", NsPerOp: 2000, AllocsPerOp: 3, DeltaBytes: 3_300_000},
		{Name: "recipe/diff/64MiB", NsPerOp: 500, AllocsPerOp: 9, DeltaBytes: 3_300_000},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "diff/full/64MiB", NsPerOp: 1000, AllocsPerOp: 3, DeltaBytes: 43_000_000},
		{Name: "recipe/diff/64MiB", NsPerOp: 500, AllocsPerOp: 9, DeltaBytes: 3_400_000}, // +3%, inside threshold
	})
	var buf bytes.Buffer
	err := runCompare(&buf, oldPath, newPath, 0.25)
	var reg errRegression
	if !errors.As(err, &reg) || reg.n != 1 {
		t.Fatalf("want 1 regression (delta growth), got err=%v\n%s", err, buf.String())
	}
	for _, want := range []string{"+1203.0%", "REGRESSED", "+3.0%"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, buf.String())
		}
	}
}

func TestCompareDetectsNewAllocations(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "convert/reuse", NsPerOp: 500, AllocsPerOp: 0},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		// Faster, but a zero-alloc benchmark started allocating: still red.
		{Name: "convert/reuse", NsPerOp: 400, AllocsPerOp: 3},
	})
	var buf bytes.Buffer
	err := runCompare(&buf, oldPath, newPath, 0.25)
	var reg errRegression
	if !errors.As(err, &reg) {
		t.Fatalf("alloc growth not flagged: err=%v\n%s", err, buf.String())
	}
}

// TestCompareToleratesNewRows pins the new-row behavior: benchmarks that
// exist only in the new document (added since the baseline was committed)
// are reported as "new row" and never fail the comparison — even when
// the shared rows are at the edge of the threshold.
func TestCompareToleratesNewRows(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000, AllocsPerOp: 2},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000, AllocsPerOp: 2},
		{Name: "recipe/diff/16MiB", NsPerOp: 700, AllocsPerOp: 9},
		{Name: "chunk/split/16MiB", NsPerOp: 300, AllocsPerOp: 0},
	})
	var buf bytes.Buffer
	if err := runCompare(&buf, oldPath, newPath, 0.25); err != nil {
		t.Fatalf("new rows must not fail compare: %v\n%s", err, buf.String())
	}
	outStr := buf.String()
	if !strings.Contains(outStr, "1 compared, 0 regressed, 0 skipped, 2 new") {
		t.Fatalf("unexpected summary:\n%s", outStr)
	}
	if !strings.Contains(outStr, "new row (no old measurement)") {
		t.Fatalf("new-row verdict missing:\n%s", outStr)
	}
}

// TestCompareReportsRemovedRows pins the other direction: a benchmark
// present only in the old document (deleted or renamed since) is listed
// as a removed row and counted in the summary, without failing the
// comparison.
func TestCompareReportsRemovedRows(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000, AllocsPerOp: 2},
		{Name: "diff/retired/2", NsPerOp: 3000, AllocsPerOp: 0},
		{Name: "diff/retired", NsPerOp: 2000, AllocsPerOp: 0},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000, AllocsPerOp: 2},
	})
	var buf bytes.Buffer
	if err := runCompare(&buf, oldPath, newPath, 0.25); err != nil {
		t.Fatalf("removed rows must not fail compare: %v\n%s", err, buf.String())
	}
	outStr := buf.String()
	if !strings.Contains(outStr, "1 compared, 0 regressed, 0 skipped, 0 new, 2 removed") {
		t.Fatalf("unexpected summary:\n%s", outStr)
	}
	for _, name := range []string{"diff/retired/2", "diff/retired "} {
		found := false
		for _, line := range strings.Split(outStr, "\n") {
			if strings.HasPrefix(line, name) && strings.HasSuffix(line, "removed row (no new measurement)") {
				found = true
			}
		}
		if !found {
			t.Fatalf("no removed-row line for %q:\n%s", name, outStr)
		}
	}
}

func TestCompareNoSharedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "a", NsPerOp: 1},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "b", NsPerOp: 1},
	})
	var buf bytes.Buffer
	if err := runCompare(&buf, oldPath, newPath, 0.25); err == nil {
		t.Fatal("disjoint documents must not pass silently")
	}
}

func TestCompareMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := runCompare(&buf, "/definitely/missing.json", "/also/missing.json", 0.25); err == nil {
		t.Fatal("missing baseline must error")
	}
}

func TestCompareViaRun(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1001},
	})
	if err := run([]string{"-compare", oldPath, "-compare-to", newPath}); err != nil {
		t.Fatal(err)
	}
}
