package delta

import "ipdelta/internal/interval"

// ReferenceValidate is the online validator Validate replaced: each write
// interval is checked against, then inserted into, a sorted interval set
// in command order. On a delta in topological rather than write order
// every insert moves memory, so it is O(n²); the sort-and-sweep Validator
// must return exactly what it returns.
func ReferenceValidate(d *Delta) error {
	var written interval.Set
	for k, c := range d.Commands {
		if err := d.validateCommand(c); err != nil {
			return &ValidationError{Index: k, Cmd: c, Cause: err}
		}
		w := c.WriteInterval()
		if written.Overlaps(w) {
			return &ValidationError{Index: k, Cmd: c, Cause: ErrOverlap}
		}
		written.Add(w)
	}
	if written.Total() != d.VersionLen {
		return &ValidationError{Index: -1, Cause: ErrCoverage}
	}
	if d.VersionLen > 0 && !written.ContainsInterval(interval.FromRange(0, d.VersionLen)) {
		return &ValidationError{Index: -1, Cause: ErrCoverage}
	}
	return d.validateScratch()
}
