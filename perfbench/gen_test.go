package main

import (
	"bytes"
	"testing"
)

func TestGeneratorsAreSeeded(t *testing.T) {
	a, b := newFirmwareChain(4, 64<<10, 7), newFirmwareChain(4, 64<<10, 7)
	for k := range a.releases {
		if !bytes.Equal(a.releases[k], b.releases[k]) {
			t.Fatalf("firmware release %d differs between runs of one seed", k)
		}
	}
	if c := newFirmwareChain(4, 64<<10, 8); bytes.Equal(a.releases[3], c.releases[3]) {
		t.Fatal("firmware chain ignores its seed")
	}

	base := randomImage(1<<20, 7)
	if !bytes.Equal(base, randomImage(1<<20, 7)) {
		t.Fatal("random image differs between runs of one seed")
	}
	v1, n1 := blockyChurn(base, 0.05, 9)
	v2, n2 := blockyChurn(base, 0.05, 9)
	if !bytes.Equal(v1, v2) || n1 != n2 {
		t.Fatal("blocky churn differs between runs of one seed")
	}

	r1, base1 := newRecordChain(256<<10, 0.05, 7)
	r2, base2 := newRecordChain(256<<10, 0.05, 7)
	if !bytes.Equal(base1, base2) {
		t.Fatal("record base differs between runs of one seed")
	}
	for k := 0; k < 4; k++ {
		i1, c1 := r1.next()
		i2, c2 := r2.next()
		if !bytes.Equal(i1, i2) || c1 != c2 {
			t.Fatalf("record release %d differs between runs of one seed", k+1)
		}
	}
}

// differing counts the positions where two equal-length images differ.
func differing(a, b []byte) int64 {
	var n int64
	for k := range a {
		if a[k] != b[k] {
			n++
		}
	}
	return n
}

func TestBlockyChurnCountsChangedBytes(t *testing.T) {
	base := randomImage(1<<20, 3)
	overlapped := false
	for seed := int64(1); seed <= 20; seed++ {
		// A high rate on a small image makes overlapping blocks common.
		v, n := blockyChurn(base, 0.6, seed)
		if got := differing(base, v); got != n {
			t.Fatalf("seed %d: reported %d changed bytes, byte comparison finds %d", seed, n, got)
		}
		blocks := int(float64(len(base)) * 0.6 / churnBlock)
		if n < int64(blocks*churnBlock) {
			overlapped = true
		}
	}
	if !overlapped {
		t.Fatal("no seed produced overlapping blocks; the test does not cover them")
	}
}

func TestFirmwareChurnMatchesByteComparison(t *testing.T) {
	fc := newFirmwareChain(8, 256<<10, 5)
	last := len(fc.releases) - 1
	for k := 0; k < last; k++ {
		if got, want := fc.churnBetween(k, last), differing(fc.releases[k], fc.releases[last]); got != want {
			t.Fatalf("release %d→%d: churn %d, byte comparison %d", k, last, got, want)
		}
	}
}

func TestRecordChurnCountsNewContent(t *testing.T) {
	rc, base := newRecordChain(256<<10, 0.05, 11)
	prev := base
	for k := 0; k < 5; k++ {
		img, churn := rc.next()
		if len(img)%recordSize != 0 {
			t.Fatalf("release %d: %d bytes is not whole records", k+1, len(img))
		}
		// Every record is either carried over from the predecessor
		// unchanged, rewritten in 8 bytes, or new; the churn is the
		// bytes not carried over.
		old := map[string]bool{}
		for at := 0; at < len(prev); at += recordSize {
			old[string(prev[at:at+recordSize])] = true
		}
		var fresh int64
		for at := 0; at < len(img); at += recordSize {
			if !old[string(img[at:at+recordSize])] {
				fresh++
			}
		}
		if churn == 0 || fresh == 0 || churn < 8*fresh || churn > recordSize*fresh {
			t.Fatalf("release %d: churn %d for %d new or rewritten records", k+1, churn, fresh)
		}
		prev = img
	}
}

func TestAttributeChargesEachInstantOnce(t *testing.T) {
	spans := []spanRec{
		{Name: "update", Start: 0, End: 100, Parent: -1},
		{Name: "mux.read", Start: 10, End: 60},
		{Name: "diff", Start: 20, End: 40, Server: true},
		{Name: "device.apply", Start: 60, End: 90},
		{Name: "flash.write", Start: 70, End: 80, Parent: 3},
	}
	got := attribute(spans)
	want := map[string]int64{
		"unattributed_ms":      20, // [0,10) and [90,100)
		"mux.read_wait_ms":     30, // [10,20) and [40,60)
		"diff.busy_ms":         20,
		"device.apply_self_ms": 20,
		"flash.write_ms":       10,
	}
	var total int64
	for k, v := range got {
		total += v
		if want[k] != v {
			t.Errorf("%s = %d, want %d", k, v, want[k])
		}
	}
	if total != 100 {
		t.Fatalf("attributed %d ns of a 100 ns update", total)
	}
}
