package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"ipdelta/internal/codec"
	"ipdelta/internal/device"
	"ipdelta/internal/diff"
	"ipdelta/internal/netupdate"
	"ipdelta/internal/obs"
)

// release-large: publishing a new release of a large image. Each update
// hands a fresh, unwarmed server the new release and times it until
// the device reports the matching image, so the session runs diff,
// convert, encode, transfer and apply.
const (
	largeImage = 64 << 20
	largeChurn = 0.05
	// largeSetupReps replaces setupReps: this set-up takes about 50 ms,
	// mostly page faults, so it needs more samples for a steady median.
	largeSetupReps = 21
)

func runReleaseLarge(ph phase) (*outcome, error) {
	base := randomImage(largeImage, ph.seed)

	var reg *obs.Registry
	var tr *tracer
	reps := largeSetupReps
	if ph.traced {
		reg = obs.NewRegistry()
		tr = newTracer(reg, true)
		codec.SetObserver(reg)
		defer codec.SetObserver(nil)
		reps = 1
	}

	// Set-up: the loopback listener and the device holding the base
	// image in a flash part with no room for a second copy.
	ref := newRefKernel(largeImage)
	defer ref.release()
	var setups []float64
	var l net.Listener
	var flash *device.Flash
	for rep := 0; rep < reps; rep++ {
		if l != nil {
			l.Close()
		}
		var err error
		setup, _ := ref.timed(func() {
			if l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				return
			}
			if flash, err = device.NewFlash(base, int64(len(base))); err != nil {
				l.Close()
			}
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup/1000)
	}
	defer l.Close()

	client := netupdate.NewClient()
	verify := make([]byte, verifyChunk)
	out := &outcome{ref: ref}
	var before obs.Snapshot
	if reg != nil {
		before = reg.Snapshot()
	}
	heap := startHeapSampler()
	var publishes []float64
	var t tally
	deadline := time.Now().Add(time.Duration(ph.seconds * float64(time.Second)))
	for k := int64(1); out.attempted == 0 || time.Now().Before(deadline); k++ {
		version, churn := blockyChurn(base, largeChurn, ph.seed<<20+k)
		if err := flash.WriteAt(base, 0); err != nil {
			return nil, err
		}
		// Collect the previous update's garbage outside the timed
		// window, so each update's CPU time and heap peak are its own.
		runtime.GC()
		var store device.Store = flash
		var traced *tracedFlash
		if tr != nil {
			tr.expectChurn(base, version, churn)
			traced = &tracedFlash{Flash: flash}
			store = traced
		}
		dev := device.New(store, int64(len(base)), device.DefaultWorkBufSize)
		pre := flash.Stats()

		heap.Arm(true)
		var op *opTrace
		var rep netupdate.RunReport
		var lat, publish time.Duration
		var err error
		update, cpu := ref.timed(func() {
			// The traced operation starts and stops inside, so the
			// kernel runs around it stay out of its spans.
			if tr != nil {
				op = tr.begin("update", true)
				traced.op = op
			}
			rep, lat, publish, err = largeUpdate(l, client, base, version, dev, reg, tr, op)
			if op != nil {
				op.stop()
			}
		})
		heap.Arm(false)
		post := flash.Stats()
		if op != nil {
			cmds, rerr := tr.retime(true)
			if rerr != nil && err == nil {
				err = rerr
			}
			for _, n := range cmds {
				tr.noteDecode(n)
			}
			op.inferDeviceSpans()
			tr.finish(op, true)
		}

		out.attempted++
		out.latMs = append(out.latMs, ms(lat))
		// The publish is the update's first 30 ms; it gets the update's
		// scale, and the kernel's first run during the update comes only
		// after it.
		publishes = append(publishes, ms(publish)*update/ms(cpu))
		out.cpuMs = append(out.cpuMs, update)
		out.rawMs = append(out.rawMs, ms(cpu))
		out.wall += lat
		out.cpu += cpu
		out.scaledMs += update
		if err == nil {
			err = flashHolds(flash, version, verify)
		}
		if err != nil {
			out.fail(err)
			continue
		}
		t.add(rep.Result.DeltaBytes, churn, pre, post, dev.NVWrites())
		t.addSession(rep)
	}
	peak := heap.Stop()

	out.e2e = t.endToEnd(out, setups, publishes, peak)
	out.notes = append(out.notes,
		fmt.Sprintf("%d updates of %d MiB, %.2fs wall and %.2fs CPU, %d set-ups",
			t.ok, largeImage>>20, out.wall.Seconds(), out.cpu.Seconds(), len(setups)))
	if tr != nil {
		out.layer = tr.layerMetrics(before, reg.Snapshot())
		t.addLayers(out.layer)
		out.tr = tr
	}
	return out, nil
}

// largeUpdate publishes version to a fresh server (no prewarm) and runs
// one device session against it over a new v2 connection. It returns
// the session report, the update latency (publish to confirmed image)
// and the CPU time of the publish alone.
func largeUpdate(l net.Listener, client *netupdate.Client, base, version []byte, dev *device.Device,
	reg *obs.Registry, tr *tracer, op *opTrace) (netupdate.RunReport, time.Duration, time.Duration, error) {

	var algo diff.Algorithm = diff.NewAuto()
	var opts []netupdate.Option
	if tr != nil {
		algo = tracedAlgo{inner: algo, t: tr}
		opts = append(opts, netupdate.WithObserver(reg))
	}
	opts = append(opts, netupdate.WithAlgorithm(algo))

	start, cpu := time.Now(), cpuNow()
	var srv *netupdate.Server
	err := within(op, "netupdate.publish", func() (err error) {
		srv, err = netupdate.NewServer([][]byte{base, version}, opts...)
		return err
	})
	publish := cpuNow() - cpu
	if err != nil {
		return netupdate.RunReport{}, 0, publish, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = srv.HandleConn(conn) // the device's report decides the outcome
	}()
	var cc *netupdate.ClientConn
	err = within(op, "mux.dial", func() (err error) {
		cc, err = netupdate.Dial(context.Background(), l.Addr().String())
		return err
	})
	if err != nil {
		l.Close() // unblocks the accept; the run ends on this error
		<-served
		return netupdate.RunReport{}, 0, publish, err
	}
	dial := cc.Dialer()
	if op != nil {
		dial = tracedDialer(dial, op)
	}
	rep, err := client.Run(context.Background(), dial, dev)
	lat := time.Since(start)
	cc.Close()
	<-served
	return rep, lat, publish, err
}
