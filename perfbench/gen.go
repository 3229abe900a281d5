package main

import (
	"encoding/binary"
	"math/rand/v2"
	"sort"

	"ipdelta/internal/corpus"
)

// The generators below derive every workload input from the run seed.
// Each one also reports the bytes it changed, the base of the
// wire_per_churn and diff.add_per_churn ratios.

// newRNG returns the seeded generator every input derives from.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// span is a half-open byte range [lo, hi).
type span struct{ lo, hi int }

// unionLen returns the number of bytes covered by the ranges, counting
// overlaps once. It sorts rs in place.
func unionLen(rs []span) int64 {
	sort.Slice(rs, func(i, j int) bool { return rs[i].lo < rs[j].lo })
	var total int64
	end := -1
	for _, r := range rs {
		lo := max(r.lo, end)
		if r.hi > lo {
			total += int64(r.hi - lo)
		}
		end = max(end, r.hi)
	}
	return total
}

// firmwareChain is a release history of equal-length firmware images:
// each release splices fresh firmware content over a sixth of its
// predecessor, at the offsets cmd/iploadgen uses.
type firmwareChain struct {
	releases [][]byte
	windows  []span // splice window of release k; windows[0] is empty
}

func newFirmwareChain(n, size int, seed int64) *firmwareChain {
	base := corpus.Generate(corpus.PairSpec{Profile: corpus.Firmware, Size: size, Seed: seed}).Ref
	fc := &firmwareChain{releases: [][]byte{base}, windows: []span{{}}}
	splice := max(len(base)/6, 1)
	for k := 1; k < n; k++ {
		fresh := corpus.Generate(corpus.PairSpec{Profile: corpus.Firmware, Size: size, ChangeRate: 0.06, Seed: seed + int64(k)})
		v := append([]byte(nil), fc.releases[k-1]...)
		at := (k * 3 * splice) % (len(v) - splice + 1)
		copy(v[at:at+splice], fresh.Version[:splice])
		fc.releases = append(fc.releases, v)
		fc.windows = append(fc.windows, span{at, at + splice})
	}
	return fc
}

// churnBetween returns the exact number of bytes release j differs from
// release i (i < j). Only the splice windows of releases i+1..j can
// differ, so it compares those bytes alone.
func (fc *firmwareChain) churnBetween(i, j int) int64 {
	ws := append([]span(nil), fc.windows[i+1:j+1]...)
	sort.Slice(ws, func(a, b int) bool { return ws[a].lo < ws[b].lo })
	a, b := fc.releases[i], fc.releases[j]
	var n int64
	end := 0
	for _, w := range ws {
		for p := max(w.lo, end); p < w.hi; p++ {
			if a[p] != b[p] {
				n++
			}
		}
		end = max(end, w.hi)
	}
	return n
}

// randomImage returns size bytes of seeded random content.
func randomImage(size int, seed int64) []byte {
	rng := newRNG(seed, 1)
	out := make([]byte, size+8)
	for p := 0; p < size; p += 8 {
		binary.LittleEndian.PutUint64(out[p:], rng.Uint64())
	}
	return out[:size:size]
}

// churnBlock is the edit granularity of blockyChurn: contiguous 32 KiB
// overwrites, the same shape cmd/ipbench measures.
const churnBlock = 32 << 10

// blockyChurn returns a copy of base with rate of its length overwritten
// in 32 KiB blocks at seeded offsets, and the number of bytes that
// differ from base. Blocks may overlap; every overwritten byte is base
// XOR a non-zero value, so it differs from base however often it is
// rewritten, and the count is the union of the blocks.
func blockyChurn(base []byte, rate float64, seed int64) ([]byte, int64) {
	out := append([]byte(nil), base...)
	rng := newRNG(seed, 2)
	if len(out) <= churnBlock {
		for p := range out {
			out[p] = base[p] ^ byte(1+rng.IntN(255))
		}
		return out, int64(len(out))
	}
	n := max(int(float64(len(base))*rate/churnBlock), 1)
	blocks := make([]span, n)
	for k := range blocks {
		off := rng.IntN(len(out) - churnBlock)
		for p := off; p < off+churnBlock; p++ {
			out[p] = base[p] ^ byte(1+rng.IntN(255))
		}
		blocks[k] = span{off, off + churnBlock}
	}
	return out, unionLen(blocks)
}

// recordSize is the fixed record length of the database profile.
const recordSize = 128

// recordChain produces a release history of record-structured images:
// every release updates, inserts, deletes or swaps rate of the records.
type recordChain struct {
	rng     *rand.Rand
	rate    float64
	records [][]byte // current head, one slice per record
}

func newRecordChain(size int, rate float64, seed int64) (*recordChain, []byte) {
	base := corpus.Generate(corpus.PairSpec{Profile: corpus.Database, Size: size, Seed: seed}).Ref
	rc := &recordChain{rng: newRNG(seed, 3), rate: rate}
	for at := 0; at+recordSize <= len(base); at += recordSize {
		rc.records = append(rc.records, base[at:at+recordSize:at+recordSize])
	}
	return rc, base
}

// next derives the next release and returns it with its churn: the
// literal bytes an ideal delta has to carry. An update counts the bytes
// it rewrote and an insert its whole record; deletes and swaps only
// rearrange content the predecessor already holds, so they count zero.
func (rc *recordChain) next() ([]byte, int64) {
	rng := rc.rng
	recs := append([][]byte(nil), rc.records...)
	ops := max(int(float64(len(recs))*rc.rate), 1)
	// Every op picks a record no earlier op of this release touched, so
	// the churn of each op is exactly what it adds to the release.
	touched := map[*byte]bool{}
	pick := func() (int, bool) {
		for try := 0; try < 8; try++ {
			if r := rng.IntN(len(recs)); !touched[&recs[r][0]] {
				return r, true
			}
		}
		return 0, false
	}
	var churn int64
	for k := 0; k < ops && len(recs) > 1; k++ {
		r, ok := pick()
		if !ok {
			continue
		}
		switch rng.IntN(4) {
		case 0: // update fields in place, key preserved
			rec := append([]byte(nil), recs[r]...)
			for _, p := range rng.Perm(recordSize - 9)[:8] {
				rec[9+p] ^= byte(1 + rng.IntN(255))
			}
			recs[r] = rec
			touched[&rec[0]] = true
			churn += 8
		case 1: // insert a fresh record
			rec := make([]byte, recordSize)
			for p := 0; p < recordSize; p += 8 {
				binary.LittleEndian.PutUint64(rec[p:], rng.Uint64())
			}
			recs = append(recs[:r], append([][]byte{rec}, recs[r:]...)...)
			touched[&rec[0]] = true
			churn += recordSize
		case 2: // delete the record
			recs = append(recs[:r], recs[r+1:]...)
		default: // swap with another untouched record
			s, ok := pick()
			if !ok || s == r {
				continue
			}
			recs[r], recs[s] = recs[s], recs[r]
			touched[&recs[r][0]], touched[&recs[s][0]] = true, true
		}
	}
	rc.records = recs
	img := make([]byte, 0, len(recs)*recordSize)
	for _, rec := range recs {
		img = append(img, rec...)
	}
	return img, churn
}

// deck deals the integers [0, n) in seeded random order, reshuffling
// after every n deals, so every n consecutive deals cover each value
// once. Workload op scripts draw from decks rather than independently,
// which keeps the mix of operations the same from seed to seed.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n), next: n}
	for k := range d.cards {
		d.cards[k] = k
	}
	return d
}

func (d *deck) deal() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}
