package codec

import (
	"bytes"
	"io"
	"testing"

	"ipdelta/internal/delta"
)

// allocDelta returns an n-command delta alternating copies with multi-byte
// varint fields and 8-byte adds, in write order or (permuted) reversed.
func allocDelta(n int, permuted bool) *delta.Delta {
	d := &delta.Delta{RefLen: 1 << 24}
	for k := 0; k < n; k++ {
		at := d.VersionLen
		if k%2 == 0 {
			d.Commands = append(d.Commands, delta.NewCopy(int64(k*4099)%(1<<24-64), at, 64))
			d.VersionLen += 64
		} else {
			d.Commands = append(d.Commands, delta.NewAdd(at, bytes.Repeat([]byte{byte(k)}, 8)))
			d.VersionLen += 8
		}
	}
	if permuted {
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			d.Commands[i], d.Commands[j] = d.Commands[j], d.Commands[i]
		}
	}
	return d
}

// copiesOnly returns an n-command delta of copies alone, in reverse write
// order: decoding it needs no add payload allocations.
func copiesOnly(n int) *delta.Delta {
	d := &delta.Delta{RefLen: 1 << 24, VersionLen: int64(n) * 64}
	for k := 0; k < n; k++ {
		d.Commands = append(d.Commands, delta.NewCopy(int64(k*4099)%(1<<24-64), int64(n-1-k)*64, 64))
	}
	return d
}

// TestEncodeAllocs gates the encoder's per-command cost: Encode allocates
// the same amount for a 100-command delta as for a 10k-command one, in
// every format (validation, varints, opcodes and the compact sections
// allocate nothing per command).
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for _, f := range allFormats {
		allocs := func(n int) float64 {
			d := allocDelta(n, f.InPlaceCapable())
			var buf bytes.Buffer
			if _, err := Encode(&buf, d, f); err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(20, func() {
				buf.Reset()
				if _, err := Encode(&buf, d, f); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(100), allocs(10000); small != large {
			t.Errorf("%v: Encode allocates %v times for 100 commands, %v for 10k", f, small, large)
		}
	}
}

// TestDecoderNextAllocs gates the decoder's per-command cost: a decode of
// 100 commands allocates as much as one of 10k — Next on copies, and
// NextStreaming on copies and adds, allocate nothing per command.
func TestDecoderNextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for _, f := range []Format{FormatOffsets, FormatCompact, FormatScratch, FormatLegacyOffsets} {
		decodeAllocs := func(d *delta.Delta, streaming bool) float64 {
			var buf bytes.Buffer
			if _, err := Encode(&buf, d, f); err != nil {
				t.Fatal(err)
			}
			enc := buf.Bytes()
			var payload [64]byte
			run := func() {
				dec, err := NewDecoder(bytes.NewReader(enc))
				if err != nil {
					t.Fatal(err)
				}
				for {
					var r io.Reader
					var c delta.Command
					if streaming {
						c, r, err = dec.NextStreaming()
					} else {
						c, err = dec.Next()
					}
					if err == io.EOF {
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if r != nil {
						if _, err := io.ReadFull(r, payload[:c.Length]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			run()
			return testing.AllocsPerRun(20, run)
		}
		if small, large := decodeAllocs(copiesOnly(100), false), decodeAllocs(copiesOnly(10000), false); small != large {
			t.Errorf("%v: Next allocates %v times for 100 copies, %v for 10k", f, small, large)
		}
		if small, large := decodeAllocs(allocDelta(100, true), true), decodeAllocs(allocDelta(10000, true), true); small != large {
			t.Errorf("%v: NextStreaming allocates %v times for 100 commands, %v for 10k", f, small, large)
		}
	}
}
