package delta

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ipdelta/internal/interval"
)

func TestInvertBasic(t *testing.T) {
	v1 := []byte("the quick brown fox")
	v2 := []byte("the quick red fox")
	d12 := diffNaive(v1, v2)
	d21, err := Invert(d12, v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d21.Validate(); err != nil {
		t.Fatalf("inverse invalid: %v", err)
	}
	back, err := d21.Apply(v2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, v1) {
		t.Fatalf("inverse apply = %q, want %q", back, v1)
	}
}

func TestInvertOverlappingReads(t *testing.T) {
	// Two copies read the same reference region: the inverse must trim to
	// disjoint writes and still reconstruct.
	v1 := []byte("ABCDEFGH")
	d := &Delta{
		RefLen:     8,
		VersionLen: 16,
		Commands: []Command{
			NewCopy(0, 0, 8),
			NewCopy(0, 8, 8), // same read interval again
		},
	}
	v2, err := d.Apply(v1)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := Invert(d, v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Validate(); err != nil {
		t.Fatalf("inverse invalid: %v", err)
	}
	back, err := inv.Apply(v2)
	if err != nil || !bytes.Equal(back, v1) {
		t.Fatalf("back = %q, %v", back, err)
	}
}

func TestInvertPureAddDelta(t *testing.T) {
	// A delta with no copies inverts to a delta carrying all of R.
	v1 := []byte("original content")
	d := &Delta{RefLen: int64(len(v1)), VersionLen: 3,
		Commands: []Command{NewAdd(0, []byte("new"))}}
	inv, err := Invert(d, v1)
	if err != nil {
		t.Fatal(err)
	}
	if inv.NumCopies() != 0 || inv.AddedBytes() != int64(len(v1)) {
		t.Fatalf("inverse: %+v", inv.Summarize())
	}
	back, err := inv.Apply([]byte("new"))
	if err != nil || !bytes.Equal(back, v1) {
		t.Fatalf("back = %q, %v", back, err)
	}
}

func TestInvertRejectsBadInput(t *testing.T) {
	bad := &Delta{RefLen: 4, VersionLen: 4, Commands: []Command{NewCopy(0, 2, 4)}}
	if _, err := Invert(bad, make([]byte, 4)); err == nil {
		t.Fatal("invalid delta accepted")
	}
	ok := &Delta{RefLen: 4, VersionLen: 4, Commands: []Command{NewCopy(0, 0, 4)}}
	if _, err := Invert(ok, make([]byte, 3)); err == nil {
		t.Fatal("wrong reference length accepted")
	}
}

func TestInvertEmpty(t *testing.T) {
	d := &Delta{RefLen: 0, VersionLen: 0}
	inv, err := Invert(d, nil)
	if err != nil || len(inv.Commands) != 0 {
		t.Fatalf("%v %v", inv, err)
	}
}

func TestQuickInvertRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vs := randomVersions(rng, 2)
		v1, v2 := vs[0], vs[1]
		d := diffNaive(v1, v2)
		inv, err := Invert(d, v1)
		if err != nil {
			return false
		}
		if inv.Validate() != nil {
			return false
		}
		back, err := inv.Apply(v2)
		if err != nil {
			return false
		}
		return bytes.Equal(back, v1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInvertSafeDeltas(t *testing.T) {
	// Inversion works on arbitrary permuted (in-place style) deltas, not
	// just write-ordered ones.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		refLen := rng.Int63n(2048) + 64
		ref := make([]byte, refLen)
		rng.Read(ref)
		d := genSafeDelta(rng, refLen)
		version, err := d.Apply(ref)
		if err != nil {
			return false
		}
		inv, err := Invert(d, ref)
		if err != nil {
			return false
		}
		if inv.Validate() != nil {
			return false
		}
		back, err := inv.Apply(version)
		if err != nil {
			return false
		}
		return bytes.Equal(back, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInvertComposeDuality checks the algebra: inverting a composed
// chain behaves like composing the inverses in reverse order — both map
// the final version back to the first.
func TestQuickInvertComposeDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vs := randomVersions(rng, 3)
		d01 := diffNaive(vs[0], vs[1])
		d12 := diffNaive(vs[1], vs[2])
		d02, err := Compose(d01, d12)
		if err != nil {
			return false
		}
		// Route A: invert the composition.
		invA, err := Invert(d02, vs[0])
		if err != nil {
			return false
		}
		// Route B: compose the inverses in reverse.
		inv12, err := Invert(d12, vs[1])
		if err != nil {
			return false
		}
		inv01, err := Invert(d01, vs[0])
		if err != nil {
			return false
		}
		invB, err := Compose(inv12, inv01)
		if err != nil {
			return false
		}
		a, err := invA.Apply(vs[2])
		if err != nil {
			return false
		}
		b, err := invB.Apply(vs[2])
		if err != nil {
			return false
		}
		return bytes.Equal(a, vs[0]) && bytes.Equal(b, vs[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// invertByteTrim is Invert as first written: each sorted copy's read
// interval is trimmed against an interval set of what earlier copies
// cover, one byte probe at a time. It is the reference Invert's
// high-water-mark trim must reproduce exactly.
func invertByteTrim(d *Delta, ref []byte) *Delta {
	inv := &Delta{RefLen: d.VersionLen, VersionLen: d.RefLen}
	type span struct{ from, to, length int64 }
	var spans []span
	covered := interval.NewSet()
	var copies []Command
	for _, c := range d.Commands {
		if c.Op == OpCopy {
			copies = append(copies, c)
		}
	}
	slices.SortFunc(copies, func(a, b Command) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(b.Length, a.Length)
	})
	for _, c := range copies {
		lo, end := c.From, c.From+c.Length
		for lo < end {
			for lo < end && covered.Contains(lo) {
				lo++
			}
			if lo >= end {
				break
			}
			hi := lo
			for hi < end && !covered.Contains(hi) {
				hi++
			}
			spans = append(spans, span{from: c.To + (lo - c.From), to: lo, length: hi - lo})
			covered.Add(interval.Interval{Lo: lo, Hi: hi - 1})
			lo = hi
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.to, b.to) })
	var at int64
	for _, s := range spans {
		if s.to > at {
			inv.Commands = append(inv.Commands, NewAdd(at, append([]byte(nil), ref[at:s.to]...)))
		}
		inv.Commands = append(inv.Commands, NewCopy(s.from, s.to, s.length))
		at = s.to + s.length
	}
	if at < d.RefLen {
		inv.Commands = append(inv.Commands, NewAdd(at, append([]byte(nil), ref[at:]...)))
	}
	return inv
}

// TestInvertMatchesByteTrim checks Invert against the byte-probing trim on
// random permuted deltas whose copies read heavily overlapping, nested and
// identical reference ranges.
func TestInvertMatchesByteTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 300; iter++ {
		refLen := rng.Int63n(512) + 1
		ref := make([]byte, refLen)
		rng.Read(ref)
		d := &Delta{RefLen: refLen, VersionLen: rng.Int63n(1024) + 1}
		for at := int64(0); at < d.VersionLen; {
			n := min(rng.Int63n(48)+1, d.VersionLen-at)
			switch {
			case n <= refLen && rng.Intn(4) > 0:
				// Reads cluster in a few hot spots so they overlap.
				from := min(rng.Int63n(4)*refLen/4+rng.Int63n(8), refLen-n)
				d.Commands = append(d.Commands, NewCopy(from, at, n))
			default:
				data := make([]byte, n)
				rng.Read(data)
				d.Commands = append(d.Commands, NewAdd(at, data))
			}
			at += n
		}
		rng.Shuffle(len(d.Commands), func(i, j int) { d.Commands[i], d.Commands[j] = d.Commands[j], d.Commands[i] })
		got, err := Invert(d, ref)
		if err != nil {
			t.Fatal(err)
		}
		want := invertByteTrim(d, ref)
		if got.RefLen != want.RefLen || got.VersionLen != want.VersionLen || len(got.Commands) != len(want.Commands) {
			t.Fatalf("iter %d: shape %d/%d/%d, want %d/%d/%d", iter,
				got.RefLen, got.VersionLen, len(got.Commands), want.RefLen, want.VersionLen, len(want.Commands))
		}
		for k := range got.Commands {
			if !got.Commands[k].Equal(want.Commands[k]) {
				t.Fatalf("iter %d: command %d = %v, want %v", iter, k, got.Commands[k], want.Commands[k])
			}
		}
	}
}
