package main

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ipdelta/internal/codec"
	"ipdelta/internal/device"
	"ipdelta/internal/diff"
	"ipdelta/internal/netupdate"
	"ipdelta/internal/obs"
)

// fleet-warm: steady-state serving by a prewarmed update server. Every
// delta is built in set-up; the timed updates only move cached deltas
// over one v2 connection into simulated devices.
const (
	fleetReleases = 8
	fleetImage    = 1 << 20
	fleetStreams  = 2  // concurrent update streams on the one connection
	fleetBatch    = 64 // devices prepared before, and verified after, each timed batch
)

// fleetServer is a running update server and the client connection the
// fleet shares.
type fleetServer struct {
	l      net.Listener
	served chan error
	cc     *netupdate.ClientConn
	client *netupdate.Client
}

// publishFleet builds and prewarms the server as cmd/updated does:
// publishing the release history.
func publishFleet(history [][]byte, reg *obs.Registry, tr *tracer) (*netupdate.Server, error) {
	var algo diff.Algorithm = diff.NewAuto()
	var opts []netupdate.Option
	if tr != nil {
		algo = tracedAlgo{inner: algo, t: tr}
		opts = append(opts, netupdate.WithObserver(reg))
	}
	opts = append(opts, netupdate.WithAlgorithm(algo))
	srv, err := netupdate.NewServer(history, opts...)
	if err != nil {
		return nil, err
	}
	return srv, srv.Prewarm(0)
}

// serveFleet serves srv on loopback and dials one v2 connection to it.
func serveFleet(srv *netupdate.Server) (*fleetServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fs := &fleetServer{l: l, served: make(chan error, 1), client: netupdate.NewClient()}
	go func() { fs.served <- srv.Serve(l) }()
	fs.cc, err = netupdate.Dial(context.Background(), l.Addr().String())
	if err != nil {
		fs.close()
		return nil, err
	}
	return fs, nil
}

// close tears the connection and the server down and waits for Serve.
func (fs *fleetServer) close() {
	if fs.cc != nil {
		fs.cc.Close()
	}
	fs.l.Close()
	<-fs.served
}

// fleetSlot is one device of a batch.
type fleetSlot struct {
	flash  *device.Flash
	traced *tracedFlash
	from   int // release the device starts on
	dev    *device.Device
	before device.IOStats

	lat   time.Duration
	rep   netupdate.RunReport
	err   error
	after device.IOStats
	nv    int64
}

func runFleetWarm(ph phase) (*outcome, error) {
	fc := newFirmwareChain(fleetReleases, fleetImage, ph.seed)
	last := len(fc.releases) - 1
	head := fc.releases[last]
	churn := make([]int64, last)
	for k := range churn {
		churn[k] = fc.churnBetween(k, last)
	}

	var reg *obs.Registry
	var tr *tracer
	reps := setupReps
	if ph.traced {
		reg = obs.NewRegistry()
		tr = newTracer(reg, false)
		codec.SetObserver(reg)
		defer codec.SetObserver(nil)
		for k := range churn {
			tr.expectChurn(fc.releases[k], head, churn[k])
		}
		reps = 1
	}

	ref := newRefKernel(fleetImage)
	defer ref.release()
	var setups, publishes []float64
	var fs *fleetServer
	for rep := 0; rep < reps; rep++ {
		if fs != nil {
			fs.close()
		}
		var srv *netupdate.Server
		var err error
		publish, _ := ref.timed(func() { srv, err = publishFleet(fc.releases, reg, tr) })
		if err != nil {
			return nil, fmt.Errorf("fleet-warm set-up: %w", err)
		}
		serve, _ := ref.timed(func() { fs, err = serveFleet(srv) })
		if err != nil {
			return nil, fmt.Errorf("fleet-warm set-up: %w", err)
		}
		setups = append(setups, (publish+serve)/1000)
		publishes = append(publishes, publish)
	}
	defer fs.close()
	var decodeCmds []int // per start release: commands of the delta it is sent
	if tr != nil {
		var err error
		if decodeCmds, err = tr.retime(false); err != nil {
			return nil, err
		}
	}

	slots := make([]fleetSlot, fleetBatch)
	for k := range slots {
		flash, err := device.NewFlash(head, int64(len(head)))
		if err != nil {
			return nil, err
		}
		slots[k].flash = flash
		if tr != nil {
			slots[k].traced = &tracedFlash{Flash: flash}
		}
	}
	verify := make([]byte, verifyChunk)
	starts := newDeck(newRNG(ph.seed, 10), last)
	out := &outcome{ref: ref}
	var before obs.Snapshot
	if reg != nil {
		before = reg.Snapshot()
	}
	heap := startHeapSampler()
	var t tally
	deadline := time.Now().Add(time.Duration(ph.seconds * float64(time.Second)))
	for out.attempted == 0 || time.Now().Before(deadline) {
		// Prepare the batch outside the timed window: each device gets
		// a fresh progress record and a seeded older release.
		for k := range slots {
			s := &slots[k]
			s.from = starts.deal()
			if err := s.flash.WriteAt(fc.releases[s.from], 0); err != nil {
				return nil, err
			}
			var store device.Store = s.flash
			if s.traced != nil {
				store = s.traced
			}
			s.dev = device.New(store, int64(len(head)), device.DefaultWorkBufSize)
			s.before = s.flash.Stats()
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		before := ref.sample()
		heap.Arm(true)
		cpu, start := cpuNow(), time.Now()
		for w := 0; w < fleetStreams; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(slots); k = int(next.Add(1)) - 1 {
					fleetUpdate(fs, &slots[k], tr)
				}
			}()
		}
		wg.Wait()
		out.wall += time.Since(start)
		cpu = cpuNow() - cpu
		heap.Arm(false)
		batch := ref.scaled(cpu, (before+ref.sample())/2)
		out.cpu += cpu
		out.scaledMs += batch
		out.cpuMs = append(out.cpuMs, batch/float64(len(slots)))
		out.rawMs = append(out.rawMs, ms(cpu)/float64(len(slots)))

		for k := range slots {
			s := &slots[k]
			out.attempted++
			out.latMs = append(out.latMs, ms(s.lat))
			if s.err == nil {
				s.err = flashHolds(s.flash, head, verify)
			}
			if s.err != nil {
				out.fail(s.err)
				continue
			}
			t.add(s.rep.Result.DeltaBytes, churn[s.from], s.before, s.after, s.nv)
			t.addSession(s.rep)
			if tr != nil {
				tr.noteDecode(decodeCmds[s.from])
			}
		}
	}
	peak := heap.Stop()

	out.e2e = t.endToEnd(out, setups, publishes, peak)
	out.notes = append(out.notes,
		fmt.Sprintf("%d updates in %d batches, timed window %.2fs wall and %.2fs CPU, %d set-ups publishing in %.0f..%.0f CPU ms",
			t.ok, len(out.cpuMs), out.wall.Seconds(), out.cpu.Seconds(), len(setups), slices.Min(publishes), slices.Max(publishes)))
	if tr != nil {
		out.layer = tr.layerMetrics(before, reg.Snapshot())
		t.addLayers(out.layer)
		out.tr = tr
	}
	return out, nil
}

// fleetUpdate runs one timed update session for a prepared device.
func fleetUpdate(fs *fleetServer, s *fleetSlot, tr *tracer) {
	dial := fs.cc.Dialer()
	var op *opTrace
	if tr != nil {
		op = tr.begin("update", false)
		s.traced.op = op
		dial = tracedDialer(dial, op)
	}
	start := time.Now()
	s.rep, s.err = fs.client.Run(context.Background(), dial, s.dev)
	s.lat = time.Since(start)
	s.after = s.flash.Stats()
	s.nv = s.dev.NVWrites()
	if op != nil {
		op.stop()
		op.inferDeviceSpans()
		tr.finish(op, true)
	}
}
