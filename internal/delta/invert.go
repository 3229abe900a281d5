package delta

import (
	"cmp"
	"fmt"
	"slices"
)

// Invert computes the reverse delta: given d encoding version V from
// reference R, and R itself, it returns a delta encoding R from V. Version
// stores use this for RCS-style backward chains (newest version stored
// whole, history as reverse deltas), and update servers for rollbacks.
//
// Construction: every copy ⟨f, t, l⟩ of d copies R[f, f+l) into V[t, t+l),
// so the inverse can copy V[t, t+l) back into R[f, f+l). Copy read
// intervals may overlap in R (several copies reading the same reference
// bytes), so overlapping regions are trimmed first-wins; whatever part of
// R no copy covers is carried as literal data from R.
func Invert(d *Delta, ref []byte) (*Delta, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("invert: %w", err)
	}
	if int64(len(ref)) != d.RefLen {
		return nil, fmt.Errorf("invert: reference length %d, delta expects %d", len(ref), d.RefLen)
	}
	inv := &Delta{RefLen: d.VersionLen, VersionLen: d.RefLen}

	// Collect inverse copies: writes into R-space, trimmed to disjointness.
	type span struct{ from, to, length int64 } // from in V-space, to in R-space
	var spans []span
	// Deterministic processing order: by R offset, longest first, so the
	// largest copies win the overlap trims.
	copies := make([]Command, 0, len(d.Commands))
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
	// Every copy processed so far starts at or before c.From, so the part
	// of [c.From, c.From+c.Length) they cover is a prefix ending at their
	// high-water mark covered: whatever survives the trim is one tail span.
	// The tails come out in increasing R offset.
	var covered int64
	for _, c := range copies {
		lo, end := max(c.From, covered), c.From+c.Length
		if lo >= end {
			continue
		}
		spans = append(spans, span{from: c.To + (lo - c.From), to: lo, length: end - lo})
		covered = end
	}

	// Emit in R write order, filling gaps with literals from R.
	var at int64
	for _, s := range spans {
		if s.to > at {
			data := make([]byte, s.to-at)
			copy(data, ref[at:s.to])
			inv.Commands = append(inv.Commands, NewAdd(at, data))
		}
		inv.Commands = append(inv.Commands, NewCopy(s.from, s.to, s.length))
		at = s.to + s.length
	}
	if at < d.RefLen {
		data := make([]byte, d.RefLen-at)
		copy(data, ref[at:])
		inv.Commands = append(inv.Commands, NewAdd(at, data))
	}
	return inv, nil
}
