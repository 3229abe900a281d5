package diff

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"ipdelta/internal/delta"
)

// blockyPair returns a random reference of size bytes, a version with
// roughly 5% of it overwritten in random 32 KiB blocks at scattered (and
// possibly overlapping) offsets, and the churn: the number of bytes the
// blocks cover.
func blockyPair(size int, seed int64) (ref, version []byte, churn int) {
	rng := rand.New(rand.NewSource(seed))
	ref = make([]byte, size)
	rng.Read(ref)
	version = append([]byte(nil), ref...)
	const block = 32 << 10
	offs := make([]int, size/20/block+1)
	for k := range offs {
		offs[k] = rng.Intn(size - block)
		rng.Read(version[offs[k] : offs[k]+block])
	}
	sort.Ints(offs)
	end := 0
	for _, off := range offs {
		churn += max(off+block, end) - max(off, end)
		end = max(end, off+block)
	}
	return ref, version, churn
}

// checkReconstructs verifies that d is well formed and rebuilds version
// from ref, comparing command by command instead of materializing a copy.
func checkReconstructs(t *testing.T, d *delta.Delta, ref, version []byte) {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid delta: %v", err)
	}
	for k, c := range d.Commands {
		want := version[c.To : c.To+c.Length]
		got := c.Data
		if c.Op == delta.OpCopy {
			got = ref[c.From : c.From+c.Length]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("command %d (%v) does not reproduce the version", k, c)
		}
	}
}

// TestCompressionBoundSweep is the compression property across the sizes
// where the index changes shape: at 1 MiB every anchor fits the table, at
// 16 MiB and beyond only checkpoints are indexed. Every engine must send
// no more than 1.1× the churned bytes as literals at every size — the
// bound a saturated first-wins table broke above a few MiB. The recipe
// engine builds its window tables from the same tableParams, so it runs
// under the same bound.
func TestCompressionBoundSweep(t *testing.T) {
	for i, size := range []int{1 << 20, 16 << 20, 64 << 20, 256 << 20} {
		t.Run(fmt.Sprintf("%dMiB", size>>20), func(t *testing.T) {
			if size > 16<<20 && testing.Short() {
				t.Skip("large input; skipped under -short")
			}
			if size > 16<<20 && raceEnabled {
				t.Skip("large input; race instrumentation multiplies its memory and time")
			}
			// Fresh engines per size, so the recipe engine's chunk store
			// holds only this size's images.
			engines := []struct {
				name string
				algo Algorithm
			}{
				{"linear", NewLinear()},
				{"auto", NewAuto()},
				{"recipe", NewRecipeAlgo()},
			}
			ref, version, churn := blockyPair(size, int64(i+1))
			for _, e := range engines {
				d, err := e.algo.Diff(ref, version)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				checkReconstructs(t, d, ref, version)
				adds := d.AddedBytes()
				t.Logf("%s: %d add bytes for %d churned (%.3f)", e.name, adds, churn, float64(adds)/float64(churn))
				if float64(adds) > 1.1*float64(churn) {
					t.Errorf("%s: %d add bytes for %d churned bytes, want <= 1.1x", e.name, adds, churn)
				}
				// Collect the engine's image-sized scratch before the next
				// one allocates its own, keeping the 256 MiB case near
				// three images of heap.
				d = nil
				runtime.GC()
			}
		})
	}
}

// TestCheckpointFilterAdmitsAllWhenAnchorsFit pins the compatibility
// half of tableParams: whenever the stride-aligned anchors fit the table
// the cut is zero and every fingerprint is admitted, so those inputs
// index exactly what they did before checkpointing. Past that point the
// cut is the continuous density slots/anchors.
func TestCheckpointFilterAdmitsAllWhenAnchorsFit(t *testing.T) {
	var zero krTable
	rng := rand.New(rand.NewSource(5))
	for _, maxBits := range []uint{8, 12, 18, 26} {
		for _, refLen := range []int{0, 1, 16, 17, 1 << 10, 64 << 10, 1<<20 + 3, 2 << 20, 2<<20 + 16, 3 << 20, 64 << 20, 1 << 30} {
			stride, bits, cut := tableParams(16, maxBits, refLen)
			nseeds := refLen - 16 + 1
			anchors := (nseeds + stride - 1) / stride
			slots := 1 << bits
			if anchors <= slots {
				if cut != 0 {
					t.Fatalf("bits=%d len=%d: %d anchors fit %d slots but cut=%d", maxBits, refLen, anchors, slots, cut)
				}
				tb := krTable{cut: cut}
				for _, h := range []uint64{0, 1 << 32, ^uint64(0), rng.Uint64(), rng.Uint64()} {
					if !tb.admits(h) {
						t.Fatalf("bits=%d len=%d: fingerprint %#x rejected with no filter", maxBits, refLen, h)
					}
				}
				continue
			}
			if want := uint32(uint64(slots) << 32 / uint64(anchors)); cut != want {
				t.Fatalf("bits=%d len=%d: cut %d, want %d", maxBits, refLen, cut, want)
			}
		}
	}
	for k := 0; k < 1000; k++ {
		if h := rng.Uint64(); !zero.admits(h) {
			t.Fatalf("zero-value table rejected fingerprint %#x", h)
		}
	}
}

// TestCheckpointFilterSamplesUniformly checks that the checkpoint index
// covers the whole reference. Checkpoints are a uniform sample, and at
// load ≈1 an admitted anchor at relative position x keeps its slot
// against earlier ones with probability e^-x, so every eighth of a
// 64 MiB reference holds between ~8% and ~19% of the indexed anchors.
// First-wins saturation (load 32) indexed only the front eighth.
func TestCheckpointFilterSamplesUniformly(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("large input")
	}
	const size = 64 << 20
	ref := make([]byte, size)
	rand.New(rand.NewSource(9)).Read(ref)
	stride, bits, cut := tableParams(16, 18, size)
	if cut == 0 {
		t.Fatal("a 64 MiB reference must be checkpointed")
	}
	var tb krTable
	tb.prepare(bits, cut)
	buildTable(&tb, ref, 16, stride)
	var eighths [8]int
	total := 0
	for _, e := range tb.entries {
		if uint32(e>>32) == tb.gen {
			eighths[(int(uint32(e))-1)*8/size]++
			total++
		}
	}
	if total < len(tb.entries)/2 {
		t.Fatalf("%d of %d slots filled, want about 1-1/e", total, len(tb.entries))
	}
	for k, n := range eighths {
		if share := float64(n) / float64(total); share < 0.06 || share > 0.22 {
			t.Errorf("eighth %d holds %.3f of the indexed anchors, want 0.08-0.19 (all: %v)", k, share, eighths)
		}
	}
}

// matchForwardBytes and matchBackwardBytes are the byte-at-a-time
// definitions the word-wide kernels must agree with.
func matchForwardBytes(ref, version []byte, r, v int) int {
	n := 0
	for r+n < len(ref) && v+n < len(version) && ref[r+n] == version[v+n] {
		n++
	}
	return n
}

func matchBackwardBytes(ref, version []byte, r, v, maxBack int) int {
	n := 0
	for n < maxBack && r-n-1 >= 0 && v-n-1 >= 0 && ref[r-n-1] == version[v-n-1] {
		n++
	}
	return n
}

// TestMatchKernelsAgreeWithBytewise places a single differing byte at
// every distance from the start, under every alignment (and, backward,
// every cap), and requires the word-wide extension kernels to report
// exactly what a byte-by-byte comparison reports.
func TestMatchKernelsAgreeWithBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := make([]byte, 96)
	rng.Read(base)
	for r := 0; r <= 40; r += 3 {
		for v := 0; v <= 40; v += 5 {
			for diffAt := 0; diffAt <= 50; diffAt++ {
				ref := append([]byte(nil), base...)
				version := make([]byte, len(base)-r+v)
				copy(version[v:], ref[r:])
				rng.Read(version[:v])
				if v+diffAt < len(version) {
					version[v+diffAt] ^= 0x40
				}
				if got, want := matchForward(ref, version, r, v), matchForwardBytes(ref, version, r, v); got != want {
					t.Fatalf("matchForward(r=%d v=%d diff=%d) = %d, want %d", r, v, diffAt, got, want)
				}
				// Backward from the end of the shared run.
				re, ve := len(ref), len(version)
				if v+diffAt < len(version) {
					version[v+diffAt] ^= 0x40
					version[len(version)-1-diffAt] ^= 0x40
				}
				for _, max := range []int{-1, 0, 1, 7, 8, 9, 17, 200} {
					if got, want := matchBackward(ref, version, re, ve, max), matchBackwardBytes(ref, version, re, ve, max); got != want {
						t.Fatalf("matchBackward(r=%d v=%d diff=%d max=%d) = %d, want %d", re, ve, diffAt, max, got, want)
					}
				}
			}
		}
	}
	if n := matchForward([]byte("abc"), []byte("abc"), 3, 0); n != 0 {
		t.Fatalf("matchForward past the end = %d, want 0", n)
	}
}

// TestLargeScratchIsNotPooled pins the pool cap: a diff whose literal
// arena outgrew maxPooledScratch must not leave it in the pool, where
// sync.Pool's victim cache would keep it alive across a collection.
func TestLargeScratchIsNotPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("large input")
	}
	rng := rand.New(rand.NewSource(17))
	ref := make([]byte, 4<<10)
	rng.Read(ref)
	version := make([]byte, maxPooledScratch+1<<20)
	rng.Read(version)

	l := NewLinear()
	if _, err := l.Diff(ref, version); err != nil {
		t.Fatal(err)
	}
	if st, _ := l.pool.Get().(*linearState); st != nil && cap(st.e.lits) > maxPooledScratch {
		t.Fatalf("Linear pooled a %d-byte literal arena", cap(st.e.lits))
	}
}

// TestLinearConcurrentDiffsMatchSequential shares one *Linear between
// eight goroutines diffing different pairs, half below and half above the
// size where the table switches to checkpoints, so pooled states of both
// shapes pass between goroutines. Every delta must reconstruct its
// version and equal what the same pair produced sequentially. Run it
// under -race: the fingerprint table is plain memory, owned by one diff
// at a time.
func TestLinearConcurrentDiffsMatchSequential(t *testing.T) {
	const small, large = 256 << 10, 4<<20 + 13
	if _, _, cut := tableParams(16, 18, small); cut != 0 {
		t.Fatal("small case engages the checkpoint filter")
	}
	if _, _, cut := tableParams(16, 18, large); cut == 0 {
		t.Fatal("large case does not engage the checkpoint filter")
	}
	const workers = 8
	type pair struct {
		ref, version []byte
		want         *delta.Delta
	}
	l := NewLinear()
	pairs := make([]pair, workers)
	for g := range pairs {
		size := small
		if g%2 == 1 {
			size = large
		}
		ref, version, _ := blockyPair(size, int64(100+g))
		want, err := l.Diff(ref, version)
		if err != nil {
			t.Fatal(err)
		}
		pairs[g] = pair{ref, version, want}
	}
	errs := make([]error, workers)
	got := make([][]*delta.Delta, workers)
	var wg sync.WaitGroup
	for g := range pairs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for range 3 {
				d, err := l.Diff(pairs[g].ref, pairs[g].version)
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], d)
			}
		}(g)
	}
	wg.Wait()
	for g, p := range pairs {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for _, d := range got[g] {
			checkReconstructs(t, d, p.ref, p.version)
			if len(d.Commands) != len(p.want.Commands) {
				t.Fatalf("goroutine %d: %d commands, sequential diff has %d", g, len(d.Commands), len(p.want.Commands))
			}
			for k := range d.Commands {
				if !d.Commands[k].Equal(p.want.Commands[k]) {
					t.Fatalf("goroutine %d: command %d = %v, sequential diff has %v", g, k, d.Commands[k], p.want.Commands[k])
				}
			}
		}
	}
}
