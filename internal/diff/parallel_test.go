package diff

import (
	"bytes"
	"math/rand"
	"testing"

	"ipdelta/internal/obs"
)

// TestParallelMatchesLinearBytes is the equivalence property of the
// parallel engine: for every worker count 1..8 and a spread of input
// sizes (well below one segment up to many segments, and one past ~2 MiB
// where the table indexes checkpoints only), the parallel delta must
// decode byte-for-byte to the same version the linear delta decodes to —
// equivalence on output bytes, not command streams — and must validate
// as a well-formed delta.
func TestParallelMatchesLinearBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	l := NewLinear()
	check := func(workers int, pl *Parallel, ref, version []byte) {
		t.Helper()
		size := len(ref)
		want, err := l.Diff(ref, version)
		if err != nil {
			t.Fatalf("w=%d size=%d: Linear.Diff: %v", workers, size, err)
		}
		got, err := pl.Diff(ref, version)
		if err != nil {
			t.Fatalf("w=%d size=%d: Parallel.Diff: %v", workers, size, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("w=%d size=%d: invalid parallel delta: %v", workers, size, err)
		}
		wantOut, err := want.Apply(ref)
		if err != nil {
			t.Fatalf("w=%d size=%d: linear apply: %v", workers, size, err)
		}
		gotOut, err := got.Apply(ref)
		if err != nil {
			t.Fatalf("w=%d size=%d: parallel apply: %v", workers, size, err)
		}
		if !bytes.Equal(gotOut, version) || !bytes.Equal(wantOut, version) {
			t.Fatalf("w=%d size=%d: deltas do not reproduce the version", workers, size)
		}
		// Compression parity: seams may cost a bounded number of
		// match bytes each, never more.
		slack := int64(8 * 16 * workers) // seams × generous per-seam loss
		if got.AddedBytes() > want.AddedBytes()+slack {
			t.Fatalf("w=%d size=%d: parallel adds %d bytes, linear %d (+%d slack exceeded)",
				workers, size, got.AddedBytes(), want.AddedBytes(), slack)
		}
	}
	sizes := []int{0, 1, 3, 17, 300, 4<<10 + 13, 32 << 10, 130 << 10}
	for workers := 1; workers <= 8; workers++ {
		pl := NewParallel(workers)
		for _, size := range sizes {
			ref := make([]byte, size)
			rng.Read(ref)
			check(workers, pl, ref, mutate(rng, ref, 1+size/2048))
		}
	}

	// The checkpointed size draws from its own source so the cases above
	// keep their inputs.
	big := rand.New(rand.NewSource(42))
	ref := make([]byte, 4<<20+13)
	big.Read(ref)
	if _, _, cut := tableParams(16, 18, len(ref)); cut == 0 {
		t.Fatal("large case does not engage the checkpoint filter")
	}
	version := mutate(big, ref, 64)
	for workers := 1; workers <= 8; workers++ {
		check(workers, NewParallel(workers), ref, version)
	}
}

// TestParallelDifferMatchesParallel checks the reusable differ against
// the detached path across repeated, interleaved inputs.
func TestParallelDifferMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pl := NewParallel(4)
	pd := NewParallelDiffer(4)
	for i := 0; i < 20; i++ {
		ref := make([]byte, 8<<10+rng.Intn(32<<10))
		rng.Read(ref)
		version := mutate(rng, ref, 1+rng.Intn(12))

		want, err := pl.Diff(ref, version)
		if err != nil {
			t.Fatalf("case %d: Parallel.Diff: %v", i, err)
		}
		got, err := pd.Diff(ref, version)
		if err != nil {
			t.Fatalf("case %d: ParallelDiffer.Diff: %v", i, err)
		}
		if len(got.Commands) != len(want.Commands) {
			t.Fatalf("case %d: %d commands, want %d", i, len(got.Commands), len(want.Commands))
		}
		for k := range got.Commands {
			if !got.Commands[k].Equal(want.Commands[k]) {
				t.Fatalf("case %d: command %d: got %v, want %v", i, k, got.Commands[k], want.Commands[k])
			}
		}
		out, err := got.Apply(ref)
		if err != nil {
			t.Fatalf("case %d: apply: %v", i, err)
		}
		if !bytes.Equal(out, version) {
			t.Fatalf("case %d: reused delta does not reproduce the version", i)
		}
	}
}

// TestParallelSeamStraddlingMatch pins the seam-merge behaviour: a single
// long identical region straddling every segment boundary must come out
// as one merged copy per contiguous run, not one per segment, and the
// merge counter must record the rejoins.
func TestParallelSeamStraddlingMatch(t *testing.T) {
	reg := obs.NewRegistry()
	const workers = 4
	pl := NewParallel(workers, WithObserver(reg))
	// ref == version, large enough for 4 segments: the whole file is one
	// match that straddles all three interior seams.
	ref := make([]byte, workers*segmentFloor*2)
	rand.New(rand.NewSource(7)).Read(ref)
	version := append([]byte(nil), ref...)

	d, err := pl.Diff(ref, version)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	out, err := d.Apply(ref)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !bytes.Equal(out, version) {
		t.Fatal("delta does not reproduce the version")
	}
	if len(d.Commands) != 1 {
		t.Fatalf("identical straddling input produced %d commands, want 1 merged copy: %v",
			len(d.Commands), d.Commands)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("ipdelta_diff_seam_merges_total"); got != workers-1 {
		t.Fatalf("seam merges = %d, want %d", got, workers-1)
	}
	if got := snap.Counter("ipdelta_diff_segments_total"); got != workers {
		t.Fatalf("segments = %d, want %d", got, workers)
	}
	if h, ok := snap.Histograms["ipdelta_diff_stage_worker_scan_nanos"]; !ok || h.Count != workers {
		t.Fatalf("worker scan spans = %v, want %d observations", h.Count, workers)
	}
}

// TestParallelLiteralSeam pins the other merge flavour: unrelated files
// split across segments must still yield one single add spanning the
// whole version (literal runs rejoined across arena boundaries).
func TestParallelLiteralSeam(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := make([]byte, 64<<10)
	rng.Read(ref)
	version := make([]byte, 64<<10)
	rng.Read(version)

	pl := NewParallel(4)
	d, err := pl.Diff(ref, version)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	out, err := d.Apply(ref)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !bytes.Equal(out, version) {
		t.Fatal("delta does not reproduce the version")
	}
	// Random data has almost no real matches; the dominant structure must
	// be literal runs merged across seams, never one add per segment with
	// identical boundaries at multiples of len/4.
	if d.AddedBytes() < int64(len(version))*9/10 {
		t.Fatalf("only %d of %d bytes added for unrelated files", d.AddedBytes(), len(version))
	}
}

// TestParallelEdgeCases covers empty and sub-seed inputs at several
// worker counts.
func TestParallelEdgeCases(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		pl := NewParallel(workers)
		for _, tc := range []struct{ ref, version string }{
			{"", ""},
			{"reference bytes", ""},
			{"", "short"},
			{"tiny", "also tiny"},
			{"just over the seed length....", "just under seed"},
		} {
			d, err := pl.Diff([]byte(tc.ref), []byte(tc.version))
			if err != nil {
				t.Fatalf("w=%d Diff(%q, %q): %v", workers, tc.ref, tc.version, err)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("w=%d Diff(%q, %q): invalid delta: %v", workers, tc.ref, tc.version, err)
			}
			out, err := d.Apply([]byte(tc.ref))
			if err != nil {
				t.Fatalf("w=%d Diff(%q, %q): apply: %v", workers, tc.ref, tc.version, err)
			}
			if string(out) != tc.version {
				t.Fatalf("w=%d Diff(%q, %q): reproduced %q", workers, tc.ref, tc.version, out)
			}
		}
	}
}

// TestParallelByName resolves the CLI identifier.
func TestParallelByName(t *testing.T) {
	a, err := ByName("parallel")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(*Parallel); !ok {
		t.Fatalf("ByName(parallel) = %T", a)
	}
}

// TestParallelDifferAllocs is the steady-state allocation gate for the
// reusable parallel path: after warm-up, (*ParallelDiffer).Diff must stay
// at 0 allocations per call — the table, per-worker arenas, and stitched
// output are all differ-owned, and worker goroutines are spawned without
// closures. The slack of 2 tolerates runtime-internal noise (goroutine
// descriptor recycling), not differencer regressions.
func TestParallelDifferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	ref, version := allocBenchPair()
	pd := NewParallelDiffer(4)
	for i := 0; i < 4; i++ { // warm scratch and the runtime's g free list
		if _, err := pd.Diff(ref, version); err != nil {
			t.Fatalf("warm-up diff: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := pd.Diff(ref, version); err != nil {
			t.Fatalf("diff: %v", err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state (*ParallelDiffer).Diff allocates %.1f times per call, want <= 2", allocs)
	}
}

// TestParallelObservedAllocs repeats the gate with a registry attached:
// observation must stay allocation-free on the parallel path too.
func TestParallelObservedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	ref, version := allocBenchPair()
	pd := NewParallelDiffer(4, WithObserver(obs.NewRegistry()))
	for i := 0; i < 4; i++ {
		if _, err := pd.Diff(ref, version); err != nil {
			t.Fatalf("warm-up diff: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := pd.Diff(ref, version); err != nil {
			t.Fatalf("diff: %v", err)
		}
	})
	if allocs > 2 {
		t.Fatalf("observed (*ParallelDiffer).Diff allocates %.1f times per call, want <= 2", allocs)
	}
}
