package main

import (
	"bytes"
	"fmt"
	"time"

	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
	"ipdelta/internal/device"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/obs"
	"ipdelta/internal/store"
)

// store-churn: serving from a version store as ipstore serve does. A
// seeded op script fetches in-place deltas from a random recent version
// to the head (the /delta endpoint: InPlaceDeltaTo + compact encode) and
// applies them to a device; about one op in eight appends the next
// release instead.
const (
	storeImage   = 2 << 20
	storeChurn   = 0.05
	storeHistory = 16 // versions in the store when the timed phase starts
	storeWindow  = 8  // fetches start from one of the newest storeWindow older versions
	appendEvery  = 8
	storeCache   = 64 // ipstore serve's default -cache
)

func runStoreChurn(ph phase) (*outcome, error) {
	rc, base := newRecordChain(storeImage, storeChurn, ph.seed)
	images := map[int][]byte{0: base}
	cum := []int64{0} // cumulative churn up to each version
	for v := 1; v < storeHistory; v++ {
		img, c := rc.next()
		images[v] = img
		cum = append(cum, cum[v-1]+c)
	}

	var reg *obs.Registry
	var tr *tracer
	reps := setupReps
	opts := []store.Option{store.WithCache(storeCache)}
	var algo diff.Algorithm = diff.NewAuto()
	if ph.traced {
		reg = obs.NewRegistry()
		tr = newTracer(reg, false)
		codec.SetObserver(reg)
		defer codec.SetObserver(nil)
		algo = tracedAlgo{inner: algo, t: tr}
		opts = append(opts, store.WithObserver(reg))
		for v := 1; v < storeHistory; v++ {
			tr.expectChurn(nil, images[v], cum[v]-cum[v-1])
		}
		reps = 1
	}
	opts = append(opts, store.WithAlgorithm(algo))

	// Set-up: build the store from the release history.
	ref := newRefKernel(storeImage)
	defer ref.release()
	var setups []float64
	var s *store.Store
	for rep := 0; rep < reps; rep++ {
		var err error
		setup, _ := ref.timed(func() {
			s = store.New(base, opts...)
			for v := 1; v < storeHistory && err == nil; v++ {
				_, err = s.AppendVersion(images[v])
			}
		})
		if err != nil {
			return nil, fmt.Errorf("store-churn set-up: %w", err)
		}
		setups = append(setups, setup/1000)
	}
	if tr != nil {
		if _, err := tr.retime(false); err != nil {
			return nil, err
		}
	}

	flash, err := device.NewFlash(nil, 2*storeImage)
	if err != nil {
		return nil, err
	}
	var dstore device.Store = flash
	var traced *tracedFlash
	if tr != nil {
		traced = &tracedFlash{Flash: flash}
		dstore = traced
	}
	verify := make([]byte, verifyChunk)
	// The op script: in every appendEvery ops one, at a seeded place,
	// appends; fetches start storeWindow..1 versions behind the head,
	// dealt from a seeded deck.
	rng := newRNG(ph.seed, 20)
	appendAt := newDeck(rng, appendEvery)
	back := newDeck(rng, storeWindow)
	out := &outcome{ref: ref}
	var before obs.Snapshot
	if reg != nil {
		before = reg.Snapshot()
	}
	heap := startHeapSampler()
	var appendMs []float64
	var t tally
	deadline := time.Now().Add(time.Duration(ph.seconds * float64(time.Second)))
	appendSlot := 0
	for step := 0; t.ok == 0 && out.failed == 0 || time.Now().Before(deadline); step++ {
		head := len(cum) - 1
		if step%appendEvery == 0 {
			appendSlot = appendAt.deal()
		}
		if step%appendEvery == appendSlot {
			img, c := rc.next()
			before := ref.sample()
			var op *opTrace
			if tr != nil {
				tr.expectChurn(nil, img, c)
				op = tr.begin("append", true)
			}
			heap.Arm(true)
			cpu, start := cpuNow(), time.Now()
			err := within(op, "store.append", func() error {
				_, err := s.AppendVersion(img)
				return err
			})
			lat := time.Since(start)
			cpu = cpuNow() - cpu
			heap.Arm(false)
			if op != nil {
				tr.finish(op, false)
				if _, rerr := tr.retime(false); rerr != nil && err == nil {
					err = rerr
				}
			}
			scaledMs := ref.scaled(cpu, (before+ref.sample())/2)
			out.wall += lat
			out.cpu += cpu
			out.scaledMs += scaledMs
			out.attempted++
			if err != nil {
				out.fail(err)
				continue
			}
			appendMs = append(appendMs, scaledMs)
			images[head+1] = img
			delete(images, head+1-storeWindow-1)
			cum = append(cum, cum[head]+c)
			continue
		}

		from := max(head-1-back.deal(), 0)
		img := images[from]
		if err := flash.WriteAt(img, 0); err != nil {
			return nil, err
		}
		before := ref.sample()
		var op *opTrace
		if tr != nil {
			op = tr.begin("update", true)
			traced.op = op
		}
		dev := device.New(dstore, int64(len(img)), device.DefaultWorkBufSize)
		pre := flash.Stats()
		heap.Arm(true)
		cpu, start := cpuNow(), time.Now()
		var n int64
		var untimed func() error
		if op == nil {
			n, err = storeFetch(s, from, dev)
		} else {
			n, untimed, err = storeFetchTraced(s, from, dev, op)
		}
		lat := time.Since(start)
		cpu = cpuNow() - cpu
		heap.Arm(false)
		post := flash.Stats()
		if op != nil {
			op.stop()
			if err == nil {
				err = untimed()
			}
			tr.finish(op, true)
		}
		scaledMs := ref.scaled(cpu, (before+ref.sample())/2)
		out.wall += lat
		out.cpu += cpu
		out.scaledMs += scaledMs
		out.attempted++
		out.latMs = append(out.latMs, ms(lat))
		out.cpuMs = append(out.cpuMs, scaledMs)
		out.rawMs = append(out.rawMs, ms(cpu))
		if err == nil {
			err = flashHolds(flash, images[head], verify)
		}
		if err != nil {
			out.fail(err)
			continue
		}
		t.add(n, cum[head]-cum[from], pre, post, dev.NVWrites())
	}
	peak := heap.Stop()

	// The store's own head must be the release the generator made.
	head := len(cum) - 1
	out.attempted++
	if got, err := s.Version(head); err != nil {
		out.fail(err)
	} else if !bytes.Equal(got, images[head]) {
		out.fail(fmt.Errorf("store version %d differs from the appended release", head))
	}

	out.e2e = t.endToEnd(out, setups, appendMs, peak)
	out.notes = append(out.notes,
		fmt.Sprintf("%d fetches, %d appends, %.2fs wall and %.2fs CPU, %d versions at the end, %d set-ups",
			t.ok, len(appendMs), out.wall.Seconds(), out.cpu.Seconds(), head+1, len(setups)))
	if tr != nil {
		out.layer = tr.layerMetrics(before, reg.Snapshot())
		t.addLayers(out.layer)
		out.tr = tr
	}
	return out, nil
}

// storeFetch is one /delta request applied to a device: an in-place
// delta from version from to the head, compact-encoded and applied. It
// returns the encoded size.
func storeFetch(s *store.Store, from int, dev *device.Device) (int64, error) {
	d, _, err := s.InPlaceDeltaTo(from, graph.LocallyMinimum{})
	if err != nil {
		return 0, err
	}
	enc, err := encodeCompact(d)
	if err != nil {
		return 0, err
	}
	return int64(len(enc)), dev.Apply(bytes.NewReader(enc))
}

// storeFetchTraced is storeFetch with InPlaceDeltaTo taken apart into
// the calls it makes (DeltaBetween, Version, inplace.Convert), each
// under its own span. The returned function runs after the timed
// window: it re-times the validations inside Convert and Encode on the
// same inputs, places them at the start of their parents, and records
// the conversion.
func storeFetchTraced(s *store.Store, from int, dev *device.Device, op *opTrace) (int64, func() error, error) {
	head := s.NumVersions() - 1
	var d, ip *delta.Delta
	var ref, enc []byte
	var st *inplace.Stats
	err := op.time("store.delta_between", func() (err error) {
		d, err = s.DeltaBetween(from, head)
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	if err := op.time("store.version", func() (err error) {
		ref, err = s.Version(from)
		return err
	}); err != nil {
		return 0, nil, err
	}
	kc := op.open("inplace")
	ip, st, err = inplace.Convert(d, ref, inplace.WithPolicy(graph.LocallyMinimum{}))
	op.close(kc)
	if err != nil {
		return 0, nil, err
	}
	ke := op.open("codec.encode")
	enc, err = encodeCompact(ip)
	op.close(ke)
	if err != nil {
		return 0, nil, err
	}
	if err := op.time("device.apply", func() error { return dev.Apply(bytes.NewReader(enc)) }); err != nil {
		return 0, nil, err
	}
	untimed := func() error {
		v1, err := timeIt(func() error { return d.Validate() })
		if err != nil {
			return err
		}
		v2, err := timeIt(func() error { return ip.Validate() })
		if err != nil {
			return err
		}
		op.addChild(kc, "delta.validate", op.startOf(kc), op.startOf(kc)+v1)
		op.addChild(ke, "delta.validate", op.startOf(ke), op.startOf(ke)+v2)
		codec.SetObserver(nil) // as in tracer.retime
		ordered, err := orderedSize(d)
		codec.SetObserver(op.t.reg)
		if err != nil {
			return err
		}
		op.t.noteConversion(d, st, ordered, int64(len(enc)))
		op.t.noteDecode(len(ip.Commands))
		return nil
	}
	return int64(len(enc)), untimed, nil
}
