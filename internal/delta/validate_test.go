package delta_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ipdelta/internal/delta"
	"ipdelta/internal/inplace"
)

// writeOrdered returns a random valid delta in write order over a random
// reference: copies, adds and, when scratch is set, unstashes fed by
// stashes placed at the front.
func writeOrdered(rng *rand.Rand, scratch bool) (*delta.Delta, []byte) {
	ref := make([]byte, rng.Intn(2048)+1)
	rng.Read(ref)
	d := &delta.Delta{RefLen: int64(len(ref)), VersionLen: rng.Int63n(3000)}
	var stashes []delta.Command
	for at := int64(0); at < d.VersionLen; {
		n := min(rng.Int63n(64)+1, d.VersionLen-at)
		switch r := rng.Intn(8); {
		case n <= d.RefLen && r < 5:
			d.Commands = append(d.Commands, delta.NewCopy(rng.Int63n(d.RefLen-n+1), at, n))
		case n <= d.RefLen && r == 5 && scratch:
			stashes = append(stashes, delta.NewStash(rng.Int63n(d.RefLen-n+1), n))
			d.Commands = append(d.Commands, delta.NewUnstash(at, n))
		default:
			data := make([]byte, n)
			rng.Read(data)
			d.Commands = append(d.Commands, delta.NewAdd(at, data))
		}
		at += n
	}
	d.Commands = append(stashes, d.Commands...)
	return d, ref
}

// shuffled returns d with its commands in random order, stashes kept
// ahead of everything else so the stash bookkeeping stays valid.
func shuffled(rng *rand.Rand, d *delta.Delta) *delta.Delta {
	out := d.Clone()
	rest := out.Commands
	for len(rest) > 0 && rest[0].Op == delta.OpStash {
		rest = rest[1:]
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return out
}

// faultOf renders a validation result as (index, cause) for comparison.
func faultOf(err error) string {
	if err == nil {
		return "ok"
	}
	var verr *delta.ValidationError
	if !errors.As(err, &verr) {
		return "not a *ValidationError: " + err.Error()
	}
	return fmt.Sprintf("(%d, %v)", verr.Index, verr.Cause)
}

// pick returns the index of a random command satisfying ok, or -1.
func pick(rng *rand.Rand, d *delta.Delta, ok func(delta.Command) bool) int {
	var idx []int
	for k, c := range d.Commands {
		if ok(c) {
			idx = append(idx, k)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return idx[rng.Intn(len(idx))]
}

func writes(c delta.Command) bool { return c.Op != delta.OpStash }

// mutation injects one fault into a clone of a valid delta and returns the
// (index, cause) both validators must report, or ok=false when the delta
// has no command the fault applies to.
type mutation struct {
	name  string
	apply func(rng *rand.Rand, d *delta.Delta) (index int, cause error, ok bool)
}

var mutations = []mutation{
	{"overlap", func(rng *rand.Rand, d *delta.Delta) (int, error, bool) {
		j := pick(rng, d, writes)
		if j < 0 {
			return 0, nil, false
		}
		// A second command writing command j's interval; the later of the
		// pair is the one reported.
		dup := d.Commands[j]
		dup.Op, dup.From, dup.Data = delta.OpCopy, 0, nil
		if dup.Length > d.RefLen {
			return 0, nil, false
		}
		at := rng.Intn(len(d.Commands) + 1)
		d.Commands = slices.Insert(d.Commands, at, dup)
		if at <= j {
			return j + 1, delta.ErrOverlap, true
		}
		return at, delta.ErrOverlap, true
	}},
	{"gap", func(rng *rand.Rand, d *delta.Delta) (int, error, bool) {
		k := pick(rng, d, func(c delta.Command) bool { return c.Op == delta.OpCopy || c.Op == delta.OpAdd })
		if k < 0 {
			return 0, nil, false
		}
		d.Commands = slices.Delete(d.Commands, k, k+1)
		return -1, delta.ErrCoverage, true
	}},
	{"short cover", func(rng *rand.Rand, d *delta.Delta) (int, error, bool) {
		d.VersionLen += rng.Int63n(8) + 1
		return -1, delta.ErrCoverage, true
	}},
	{"read out of bounds", func(rng *rand.Rand, d *delta.Delta) (int, error, bool) {
		k := pick(rng, d, func(c delta.Command) bool { return c.Op == delta.OpCopy || c.Op == delta.OpStash })
		if k < 0 {
			return 0, nil, false
		}
		d.Commands[k].From = d.RefLen - d.Commands[k].Length + 1 + rng.Int63n(4)
		return k, delta.ErrReadOOB, true
	}},
	{"write out of bounds", func(rng *rand.Rand, d *delta.Delta) (int, error, bool) {
		k := pick(rng, d, writes)
		if k < 0 {
			return 0, nil, false
		}
		d.Commands[k].To = d.VersionLen - d.Commands[k].Length + 1 + rng.Int63n(4)
		return k, delta.ErrWriteOOB, true
	}},
	{"bad opcode", func(rng *rand.Rand, d *delta.Delta) (int, error, bool) {
		if len(d.Commands) == 0 {
			return 0, nil, false
		}
		k := rng.Intn(len(d.Commands))
		d.Commands[k].Op = delta.Op(5 + rng.Intn(200))
		return k, delta.ErrBadOp, true
	}},
	{"zero length", func(rng *rand.Rand, d *delta.Delta) (int, error, bool) {
		if len(d.Commands) == 0 {
			return 0, nil, false
		}
		k := rng.Intn(len(d.Commands))
		d.Commands[k].Length, d.Commands[k].Data = 0, nil
		if d.Commands[k].Op == delta.OpAdd {
			d.Commands[k].Data = []byte{}
		}
		return k, delta.ErrZeroLength, true
	}},
	{"add length mismatch", func(rng *rand.Rand, d *delta.Delta) (int, error, bool) {
		k := pick(rng, d, func(c delta.Command) bool { return c.Op == delta.OpAdd })
		if k < 0 {
			return 0, nil, false
		}
		d.Commands[k].Data = append(d.Commands[k].Data, 0)
		return k, delta.ErrAddLength, true
	}},
	{"stash underflow", func(rng *rand.Rand, d *delta.Delta) (int, error, bool) {
		k := pick(rng, d, func(c delta.Command) bool { return c.Op == delta.OpUnstash })
		if k < 0 {
			return 0, nil, false
		}
		c := d.Commands[k]
		d.Commands = slices.Insert(slices.Delete(d.Commands, k, k+1), 0, c)
		return 0, delta.ErrScratchUnderflow, true
	}},
	{"unbalanced stash", func(rng *rand.Rand, d *delta.Delta) (int, error, bool) {
		d.Commands = slices.Insert(d.Commands, 0, delta.NewStash(0, 1))
		return -1, delta.ErrScratchUnbalanced, true
	}},
}

// TestValidatorMatchesReference checks the sort-and-sweep Validator
// against the online interval-set validator it replaced: on valid deltas
// in write order, shuffled, and converted for in-place reconstruction,
// on every single-fault mutation of those, and on random garbage, both
// must return the same (index, cause) — so they accept exactly the same
// deltas.
func TestValidatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var v delta.Validator // reused across calls, as a Converter does
	check := func(what string, d *delta.Delta) string {
		t.Helper()
		want := faultOf(delta.ReferenceValidate(d))
		if got := faultOf(v.Validate(d)); got != want {
			t.Fatalf("%s: Validator = %s, reference = %s\n%v", what, got, want, d.Commands)
		}
		if got := faultOf(d.Validate()); got != want {
			t.Fatalf("%s: (*Delta).Validate = %s, reference = %s", what, got, want)
		}
		return want
	}
	applied := map[string]int{}
	for iter := 0; iter < 400; iter++ {
		base, ref := writeOrdered(rng, iter%2 == 1)
		if got := check("write order", base); got != "ok" {
			t.Fatalf("generator produced an invalid delta: %s", got)
		}
		inputs := []*delta.Delta{base, shuffled(rng, base)}
		if iter%2 == 0 {
			ip, _, err := inplace.Convert(base, ref, inplace.WithScratchBudget(rng.Int63n(256)))
			if err != nil {
				t.Fatal(err)
			}
			check("in-place", ip)
			inputs = append(inputs, ip)
		}
		for _, in := range inputs {
			if got := check("valid input", in); got != "ok" {
				t.Fatalf("valid input rejected: %s", got)
			}
			for _, m := range mutations {
				d := in.Clone()
				index, cause, ok := m.apply(rng, d)
				if !ok {
					continue
				}
				applied[m.name]++
				want := faultOf(&delta.ValidationError{Index: index, Cause: cause})
				if got := check(m.name, d); got != want {
					t.Fatalf("%s: validators report %s, want %s", m.name, got, want)
				}
			}
		}
	}
	for _, m := range mutations {
		if applied[m.name] == 0 {
			t.Errorf("mutation %q never applied", m.name)
		}
	}
	// Random commands over small ranges: mostly multi-fault deltas, where
	// the order in which faults are reported matters too.
	for iter := 0; iter < 3000; iter++ {
		d := &delta.Delta{RefLen: rng.Int63n(40) - 2, VersionLen: rng.Int63n(40) - 2}
		for n := rng.Intn(12); n > 0; n-- {
			c := delta.Command{Op: delta.Op(rng.Intn(6)), From: rng.Int63n(44) - 2, To: rng.Int63n(44) - 2, Length: rng.Int63n(20) - 2}
			if c.Op == delta.OpAdd && c.Length >= 0 && rng.Intn(8) > 0 {
				c.Data = make([]byte, c.Length)
			}
			d.Commands = append(d.Commands, c)
		}
		check("random", d)
	}
}

// TestValidateAllocs gates the pooled (*Delta).Validate: once warm, a
// shuffled 10k-command delta validates with no allocation.
func TestValidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	rng := rand.New(rand.NewSource(1))
	d := &delta.Delta{RefLen: 1 << 20, VersionLen: 10000 * 16}
	for k := int64(0); k < 10000; k++ {
		d.Commands = append(d.Commands, delta.NewCopy(rng.Int63n(1<<20-16), k*16, 16))
	}
	d = shuffled(rng, d)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("(*Delta).Validate on a shuffled 10k-command delta: %v allocs/op, want 0", n)
	}
}
