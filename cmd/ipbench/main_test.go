package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRunQuickExperiments(t *testing.T) {
	// Each experiment flag on the small corpus; output goes to stdout.
	for _, args := range [][]string{
		{"-quick", "-table1"},
		{"-quick", "-timing"},
		{"-quick", "-fig2"},
		{"-quick", "-fig3"},
		{"-quick", "-transfer"},
		{"-quick", "-codewords"},
		{"-quick", "-policies"},
		{"-quick", "-strategies"},
		{"-quick", "-composition"},
		{"-quick", "-algorithms"},
		{"-quick", "-fleet"},
		{"-quick", "-scratch"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	// JSON mode must run cleanly for a couple of representative results.
	if err := run([]string{"-quick", "-json", "-fig3", "-policies"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCorpusDirErrors(t *testing.T) {
	if err := run([]string{"-corpus-dir", "/definitely/missing", "-table1"}); err == nil {
		t.Fatal("missing corpus dir accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunBenchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline measurement is slow")
	}
	out := filepath.Join(t.TempDir(), "BENCH_convert.json")
	if err := run([]string{"-quick", "-bench-baseline", "-baseline-out", out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc baselineDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("baseline output is not valid JSON: %v", err)
	}
	want := map[string]bool{
		"convert/one-shot": false, "convert/reuse": false, "crwi/build": false,
		"validate/inplace": false, "diff/one-shot": false, "diff/reuse": false, "batch/4": false,
		"chunk/split/1MiB": false, "chunk/ingest/1MiB": false,
		"recipe/diff/1MiB": false, "diff/full/1MiB": false,
	}
	for _, r := range doc.Results {
		if _, ok := want[r.Name]; ok {
			want[r.Name] = true
		}
		if r.Iters <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: empty measurement: %+v", r.Name, r)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("baseline missing benchmark %q", name)
		}
	}
	// The reusable paths must not allocate more than the one-shot paths.
	ns := map[string]baselineResult{}
	for _, r := range doc.Results {
		ns[r.Name] = r
	}
	if ns["convert/reuse"].AllocsPerOp > ns["convert/one-shot"].AllocsPerOp {
		t.Errorf("convert/reuse allocates more than one-shot: %d > %d",
			ns["convert/reuse"].AllocsPerOp, ns["convert/one-shot"].AllocsPerOp)
	}
	if ns["diff/reuse"].AllocsPerOp > ns["diff/one-shot"].AllocsPerOp {
		t.Errorf("diff/reuse allocates more than one-shot: %d > %d",
			ns["diff/reuse"].AllocsPerOp, ns["diff/one-shot"].AllocsPerOp)
	}
	if n := ns["validate/inplace"].AllocsPerOp; n != 0 {
		t.Errorf("validate/inplace: %d allocs/op, want 0", n)
	}
	if err := run([]string{"-bench-baseline", "-baseline-out", "/definitely/missing/dir/out.json", "-quick"}); err == nil {
		t.Error("unwritable baseline path accepted")
	}
}

func TestRunRecipeGate(t *testing.T) {
	if testing.Short() {
		t.Skip("gate measurement is slow")
	}
	// The quick gate must pass on any machine: the chunked fast path's win
	// on blocky churn is structural (it skips matched chunks entirely), not
	// a machine-dependent constant.
	if err := run([]string{"-quick", "-recipe-gate"}); err != nil {
		t.Fatal(err)
	}
	// An absurd required speedup must fail loudly, proving the gate gates.
	err := run([]string{"-quick", "-recipe-gate", "-recipe-speedup", "1e9"})
	if err == nil {
		t.Fatal("unreachable speedup requirement passed")
	}
	var g errRecipeGate
	if !errors.As(err, &g) {
		t.Fatalf("want errRecipeGate, got %v", err)
	}
}

// TestMeasureSlowRowIsWarm checks that a row whose single op outlasts the
// bench time is reported from a warm run: testing.Benchmark alone would
// report its first b.N=1 run, cold scratch allocation included.
func TestMeasureSlowRowIsWarm(t *testing.T) {
	bt := flag.Lookup("test.benchtime")
	old := bt.Value.String()
	if err := bt.Value.Set("20ms"); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(old)
	var scratch []byte
	var doc baselineDoc
	doc.measure("slow", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if scratch == nil {
				scratch = make([]byte, 1<<20) // first use only
			}
			for start := time.Now(); time.Since(start) < 30*time.Millisecond; {
				scratch[0]++
			}
		}
	})
	r := doc.Results[0]
	if r.Iters != 1 {
		t.Fatalf("row ran %d iterations; the test needs a single slow one", r.Iters)
	}
	if r.AllocsPerOp != 0 {
		t.Errorf("slow row reports %d allocs/op from its cold run, want 0", r.AllocsPerOp)
	}
}
