package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"ipdelta/internal/delta"
)

// legacy codeword opcodes. The legacy formats mimic the byte-granular
// codewords of the classic differencing literature: a single-byte add
// length, and copy codewords sized to the smallest offset/length fields
// that fit.
const (
	legacyOpAdd       = 0xA1 // len uint8, data
	legacyOpCopyShort = 0xC1 // f uint16, l uint8
	legacyOpCopyMed   = 0xC2 // f uint32, l uint16
	legacyOpCopyLong  = 0xC3 // f uint64, l uint32
)

// legacyMaxAdd is the largest add a single legacy codeword can carry;
// longer adds are split, which is precisely the inefficiency §7 discusses.
const legacyMaxAdd = 255

// Encode writes d to w in the given format and returns the number of bytes
// written, including header and trailing CRC32. Ordered formats require the
// commands to appear in contiguous write order ([0, VersionLen) with no
// gaps); ErrNotOrdered is returned otherwise.
func Encode(w io.Writer, d *delta.Delta, f Format) (int64, error) {
	e := &encoder{w: newCRCWriter(w)}
	err := e.encode(d, f)
	if m := observer.Load(); m != nil {
		if err != nil {
			m.encodeErrors.Inc()
		} else {
			m.encodes.Inc()
			m.encodeBytes.Add(e.w.n)
			m.encodeCommands.Add(int64(len(d.Commands)))
		}
	}
	return e.w.n, err
}

// EncodedSize returns the exact encoded size of d in format f without
// retaining the output.
func EncodedSize(d *delta.Delta, f Format) (int64, error) {
	return Encode(io.Discard, d, f)
}

// crcWriter counts bytes and maintains the running CRC32 of everything
// written through it. Varints and single bytes are staged in its own
// scratch array, so writing them does not allocate.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	n   int64
	buf [binary.MaxVarintLen64]byte
}

func newCRCWriter(w io.Writer) *crcWriter {
	return &crcWriter{w: bufio.NewWriter(w)}
}

//ipvet:allocfree
func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

//ipvet:allocfree
func (c *crcWriter) writeByte(b byte) error {
	c.buf[0] = b
	_, err := c.Write(c.buf[:1])
	return err
}

//ipvet:allocfree
func (c *crcWriter) writeUvarint(v uint64) error {
	n := binary.PutUvarint(c.buf[:], v)
	_, err := c.Write(c.buf[:n])
	return err
}

//ipvet:allocfree
func (c *crcWriter) writeVarint(v int64) error {
	n := binary.PutVarint(c.buf[:], v)
	_, err := c.Write(c.buf[:n])
	return err
}

//ipvet:allocfree
func (c *crcWriter) writeUint(v uint64, width int) error {
	binary.BigEndian.PutUint64(c.buf[:8], v)
	_, err := c.Write(c.buf[8-width : 8])
	return err
}

// finish appends the CRC (not hashed, of course) and flushes.
func (c *crcWriter) finish() error {
	binary.BigEndian.PutUint32(c.buf[:4], c.crc)
	n, err := c.w.Write(c.buf[:4])
	c.n += int64(n)
	if err != nil {
		return err
	}
	return c.w.Flush()
}

type encoder struct {
	w *crcWriter
}

func (e *encoder) encode(d *delta.Delta, f Format) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	cmds, err := prepareCommands(d, f)
	if err != nil {
		return err
	}
	if err := e.header(d, f, len(cmds)); err != nil {
		return err
	}
	if f == FormatScratch {
		if err := e.w.writeUvarint(uint64(d.ScratchRequired())); err != nil {
			return err
		}
	}
	if f == FormatCompact {
		if err := e.compactBody(cmds); err != nil {
			return err
		}
	} else {
		for _, c := range cmds {
			if err := e.command(c, f); err != nil {
				return err
			}
		}
	}
	return e.w.finish()
}

// prepareCommands validates ordering constraints and splits adds that the
// legacy codewords cannot carry whole.
func prepareCommands(d *delta.Delta, f Format) ([]delta.Command, error) {
	if f == FormatOrdered || f == FormatLegacyOrdered {
		var next int64
		for _, c := range d.Commands {
			if c.To != next {
				return nil, ErrNotOrdered
			}
			next += c.Length
		}
		if next != d.VersionLen {
			return nil, ErrNotOrdered
		}
	}
	if f != FormatScratch {
		for _, c := range d.Commands {
			if c.Op == delta.OpStash || c.Op == delta.OpUnstash {
				return nil, fmt.Errorf("codec: %v commands need the scratch format", c.Op)
			}
		}
	}
	if f != FormatLegacyOrdered && f != FormatLegacyOffsets {
		return d.Commands, nil
	}
	out := make([]delta.Command, 0, len(d.Commands))
	for _, c := range d.Commands {
		if c.Op != delta.OpAdd || c.Length <= legacyMaxAdd {
			out = append(out, c)
			continue
		}
		for off := int64(0); off < c.Length; off += legacyMaxAdd {
			n := c.Length - off
			if n > legacyMaxAdd {
				n = legacyMaxAdd
			}
			out = append(out, delta.NewAdd(c.To+off, c.Data[off:off+n]))
		}
	}
	return out, nil
}

func (e *encoder) header(d *delta.Delta, f Format, ncmds int) error {
	if _, err := e.w.Write(magic[:]); err != nil {
		return err
	}
	if err := e.w.writeByte(byte(f)); err != nil {
		return err
	}
	if err := e.w.writeUvarint(uint64(d.RefLen)); err != nil {
		return err
	}
	if err := e.w.writeUvarint(uint64(d.VersionLen)); err != nil {
		return err
	}
	return e.w.writeUvarint(uint64(ncmds))
}

func (e *encoder) command(c delta.Command, f Format) error {
	switch f {
	case FormatOrdered, FormatOffsets:
		return e.varintCommand(c, f == FormatOffsets)
	case FormatLegacyOrdered, FormatLegacyOffsets:
		return e.legacyCommand(c, f == FormatLegacyOffsets)
	case FormatScratch:
		return e.scratchCommand(c)
	default:
		return ErrBadFormat
	}
}

// scratchCommand encodes one command of the scratch format: opcode, then
// ⟨f,t,l⟩ for copies, ⟨t,l⟩+data for adds, ⟨f,l⟩ for stash, ⟨t,l⟩ for
// unstash — all varints.
func (e *encoder) scratchCommand(c delta.Command) error {
	if err := e.w.writeByte(byte(c.Op)); err != nil {
		return err
	}
	switch c.Op {
	case delta.OpCopy:
		if err := e.w.writeUvarint(uint64(c.From)); err != nil {
			return err
		}
		if err := e.w.writeUvarint(uint64(c.To)); err != nil {
			return err
		}
		return e.w.writeUvarint(uint64(c.Length))
	case delta.OpAdd:
		if err := e.w.writeUvarint(uint64(c.To)); err != nil {
			return err
		}
		if err := e.w.writeUvarint(uint64(c.Length)); err != nil {
			return err
		}
		_, err := e.w.Write(c.Data)
		return err
	case delta.OpStash:
		if err := e.w.writeUvarint(uint64(c.From)); err != nil {
			return err
		}
		return e.w.writeUvarint(uint64(c.Length))
	case delta.OpUnstash:
		if err := e.w.writeUvarint(uint64(c.To)); err != nil {
			return err
		}
		return e.w.writeUvarint(uint64(c.Length))
	default:
		return fmt.Errorf("scratch encode: %v", delta.ErrBadOp)
	}
}

// varintCommand encodes one command of the ordered/offsets formats:
// opcode byte, then ⟨l⟩ / ⟨t,l⟩ for adds and ⟨f,l⟩ / ⟨f,t,l⟩ for copies.
func (e *encoder) varintCommand(c delta.Command, offsets bool) error {
	if err := e.w.writeByte(byte(c.Op)); err != nil {
		return err
	}
	if c.Op == delta.OpCopy {
		if err := e.w.writeUvarint(uint64(c.From)); err != nil {
			return err
		}
	}
	if offsets {
		if err := e.w.writeUvarint(uint64(c.To)); err != nil {
			return err
		}
	}
	if err := e.w.writeUvarint(uint64(c.Length)); err != nil {
		return err
	}
	if c.Op == delta.OpAdd {
		_, err := e.w.Write(c.Data)
		return err
	}
	return nil
}

// legacyCommand encodes one classic codeword. In the offsets variant every
// codeword carries a fixed 8-byte write offset, reproducing how expensive
// the many short legacy adds become once in-place reconstruction forces
// explicit offsets (§7).
func (e *encoder) legacyCommand(c delta.Command, offsets bool) error {
	writeOffset := func() error {
		if !offsets {
			return nil
		}
		return e.w.writeUint(uint64(c.To), 8)
	}
	switch c.Op {
	case delta.OpAdd:
		// Long adds are split into <=255-byte codewords before reaching
		// here; refuse rather than truncate if that invariant breaks.
		if c.Length > legacyMaxAdd {
			return fmt.Errorf("codec: legacy add length %d exceeds %d", c.Length, legacyMaxAdd)
		}
		if err := e.w.writeByte(legacyOpAdd); err != nil {
			return err
		}
		if err := writeOffset(); err != nil {
			return err
		}
		if err := e.w.writeByte(byte(c.Length)); err != nil {
			return err
		}
		_, err := e.w.Write(c.Data)
		return err
	case delta.OpCopy:
		switch {
		case c.From <= 0xFFFF && c.Length <= 0xFF:
			if err := e.w.writeByte(legacyOpCopyShort); err != nil {
				return err
			}
			if err := writeOffset(); err != nil {
				return err
			}
			if err := e.w.writeUint(uint64(c.From), 2); err != nil {
				return err
			}
			return e.w.writeUint(uint64(c.Length), 1)
		case c.From <= 0xFFFFFFFF && c.Length <= 0xFFFF:
			if err := e.w.writeByte(legacyOpCopyMed); err != nil {
				return err
			}
			if err := writeOffset(); err != nil {
				return err
			}
			if err := e.w.writeUint(uint64(c.From), 4); err != nil {
				return err
			}
			return e.w.writeUint(uint64(c.Length), 2)
		default:
			if err := e.w.writeByte(legacyOpCopyLong); err != nil {
				return err
			}
			if err := writeOffset(); err != nil {
				return err
			}
			if err := e.w.writeUint(uint64(c.From), 8); err != nil {
				return err
			}
			return e.w.writeUint(uint64(c.Length), 4)
		}
	default:
		return fmt.Errorf("legacy encode: %v", delta.ErrBadOp)
	}
}

// compactBody encodes the redesigned in-place format: a copy section in
// application order with the from-offset expressed as a displacement from
// the write offset, then an add section whose write offsets are
// delta-encoded from the end of the previous add.
func (e *encoder) compactBody(cmds []delta.Command) error {
	// Two passes over cmds, one per section, instead of splitting it into
	// fresh copy and add slices: the encoder's allocations stay independent
	// of the command count.
	copies := 0
	for _, c := range cmds {
		if c.Op == delta.OpCopy {
			copies++
		}
	}
	if err := e.w.writeUvarint(uint64(copies)); err != nil {
		return err
	}
	for _, c := range cmds {
		if c.Op != delta.OpCopy {
			continue
		}
		if err := e.w.writeUvarint(uint64(c.To)); err != nil {
			return err
		}
		if err := e.w.writeUvarint(uint64(c.Length)); err != nil {
			return err
		}
		if err := e.w.writeVarint(c.From - c.To); err != nil {
			return err
		}
	}
	if err := e.w.writeUvarint(uint64(len(cmds) - copies)); err != nil {
		return err
	}
	prevEnd := int64(0)
	for _, c := range cmds {
		if c.Op == delta.OpCopy {
			continue
		}
		if err := e.w.writeVarint(c.To - prevEnd); err != nil {
			return err
		}
		if err := e.w.writeUvarint(uint64(c.Length)); err != nil {
			return err
		}
		if _, err := e.w.Write(c.Data); err != nil {
			return err
		}
		prevEnd = c.To + c.Length
	}
	return nil
}
