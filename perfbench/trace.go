package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
	"ipdelta/internal/device"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/netupdate"
	"ipdelta/internal/obs"
)

// Tracing. A traced run wraps the program's injection points (the diff
// algorithm, the device's storage, the update stream) and times calls
// into each layer's public functions from the benchmark's own code. Each
// timed operation (an update, or an append on store-churn) collects its
// spans; when it ends, every instant of it is charged to one layer and
// the spans are kept in memory for the trace file written at exit.

// layers lists every span name, most specific first, with the per-layer
// metric its self time is charged to. At each instant of an operation
// the first listed span active on the operation's own goroutine takes
// the time. While that goroutine is blocked reading the update stream,
// the first listed server-side span active at that instant takes it
// instead: the reader was waiting for that work.
var layers = []struct{ name, metric string }{
	{"flash.read", "flash.read_ms"},
	{"flash.write", "flash.write_ms"},
	{"delta.validate", "delta.validate_ms"},
	{"diff", "diff.busy_ms"},
	{"inplace", "inplace.busy_ms"},
	{"codec.encode", "codec.encode_ms"},
	{"store.compose", "store.compose_ms"},
	{"store.materialize", "store.materialize_ms"},
	{"store.delta_between", "store.delta_between_ms"},
	{"store.version", "store.version_ms"},
	{"store.append", "store.append_ms"},
	{"mux.read", "mux.read_wait_ms"},
	{"mux.write", "mux.write_ms"},
	{"mux.open", "mux.write_ms"},
	{"mux.dial", "mux.write_ms"},
	{"device.apply", "device.apply_self_ms"},
	{"device.crc", "device.apply_self_ms"},
	{"netupdate.server", "netupdate.self_ms"},
	{"netupdate.publish", "netupdate.self_ms"},
}

// layerIndex maps a span name to its position in layers.
var layerIndex = func() map[string]int {
	m := make(map[string]int, len(layers))
	for k, l := range layers {
		m[l.name] = k
	}
	return m
}()

// sinkNames maps the obs stage names a traced run subscribes to onto
// span names; server-side stages are marked.
var sinkNames = map[string]struct {
	name   string
	server bool
}{
	"ipdelta_server_session_nanos":          {"netupdate.server", true},
	"ipdelta_store_stage_compose_nanos":     {"store.compose", false},
	"ipdelta_store_stage_materialize_nanos": {"store.materialize", false},
}

// spanRec is one recorded span. Times are nanoseconds since the trace
// epoch; Parent indexes the operation's span list (-1 for the root).
type spanRec struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Server bool   `json:"server,omitempty"`
}

// maxKeptSpans bounds the spans retained for the trace file; operations
// past the bound are still attributed, only not written out.
const maxKeptSpans = 200_000

// tracer collects spans and per-layer totals for one traced phase.
type tracer struct {
	epoch time.Time
	reg   *obs.Registry
	// algoServer marks diff spans as server-side work: the diff runs
	// inside the update server's session on release-large.
	algoServer bool

	mu      sync.Mutex
	cur     *opTrace // the one operation in flight, for server-side spans
	nextID  int64
	kept    []spanRec
	selfNs  map[string]int64 // per-layer self time over timed operations
	rootNs  int64
	applyNs int64 // device.apply span durations, children included
	updates int64

	firstByteNs, firstBytes int64 // hello → first delta byte, per update
	bytesIn, streams        int64
	decodeCmds              int64 // commands in the deltas devices decoded

	pairs   []diffPair // diffs awaiting re-timing
	diffs   diffTotals
	conv    convTotals
	churnOf map[[2]*byte]int64 // expected churn per (ref, version)
}

type diffTotals struct {
	calls, ns, versionBytes, addBytes int64
	churnAddBytes, churn              int64
	convertNs, timedDiffNs            int64
	ordered, inplaceBytes             int64
}

type convTotals struct {
	conversions, cmds, edges, cycles, convertedBytes int64
}

func newTracer(reg *obs.Registry, algoServer bool) *tracer {
	t := &tracer{
		epoch:      time.Now(),
		reg:        reg,
		algoServer: algoServer,
		selfNs:     map[string]int64{},
		churnOf:    map[[2]*byte]int64{},
	}
	reg.SetSink(t.sink)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// opTrace is the span list of one operation; spans[0] is its root.
type opTrace struct {
	t     *tracer
	mu    sync.Mutex
	spans []spanRec
	top   int32 // innermost open span on the operation's goroutine
	// stream events, for first-byte timing
	helloAt, firstByteAt int64
	bytesIn, streams     int64
}

// begin starts a timed operation. An exclusive one is the only
// operation in flight, so server-side spans and obs stages belong to
// it. Diffs outside any operation (in set-up) only feed the diff and
// conversion totals.
func (t *tracer) begin(name string, exclusive bool) *opTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	o := &opTrace{t: t, helloAt: -1, firstByteAt: -1}
	o.spans = []spanRec{{Op: t.nextID, Name: name, Start: t.now(), End: -1, Parent: -1}}
	if exclusive {
		t.cur = o
	}
	return o
}

// open starts a nested span on the operation's goroutine.
func (o *opTrace) open(name string) int32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := int32(len(o.spans))
	o.spans = append(o.spans, spanRec{Op: o.spans[0].Op, Name: name, Start: o.t.now(), End: -1, Parent: o.top})
	o.top = k
	return k
}

// close ends a span opened by open.
func (o *opTrace) close(k int32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.spans[k].End = o.t.now()
	o.top = o.spans[k].Parent
}

// add records a finished span. Client-side spans nest under the
// innermost open span, server-side ones under the root.
func (o *opTrace) add(name string, start, end int64, server bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	parent := o.top
	if server {
		parent = 0
	}
	o.spans = append(o.spans, spanRec{Op: o.spans[0].Op, Name: name, Start: start, End: end, Parent: parent, Server: server})
}

// addChild records a finished client-side span under the given parent.
func (o *opTrace) addChild(parent int32, name string, start, end int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.spans = append(o.spans, spanRec{Op: o.spans[0].Op, Name: name, Start: start, End: end, Parent: parent})
}

// startOf returns when span k started.
func (o *opTrace) startOf(k int32) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spans[k].Start
}

// time runs fn under a nested span.
func (o *opTrace) time(name string, fn func() error) error {
	k := o.open(name)
	defer o.close(k)
	return fn()
}

// within runs fn under a span of op, or bare when op is nil.
func within(op *opTrace, name string, fn func() error) error {
	if op == nil {
		return fn()
	}
	return op.time(name, fn)
}

// current returns the operation server-side spans belong to, if any.
func (t *tracer) current() *opTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// sink receives the obs stages of the traced program.
func (t *tracer) sink(ev obs.SpanEvent) {
	n, ok := sinkNames[ev.Name]
	if !ok {
		return
	}
	if o := t.current(); o != nil {
		start := int64(ev.Start.Sub(t.epoch))
		o.add(n.name, start, start+int64(ev.Duration), n.server)
	}
}

// stop ends an operation's root span, before any untimed follow-up
// work (re-timing, span inference) that still adds spans to it.
func (o *opTrace) stop() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.spans[0].End < 0 {
		o.spans[0].End = o.t.now()
	}
}

// finish ends an operation, if stop has not, and charges its time to
// the layers.
func (t *tracer) finish(o *opTrace, update bool) {
	o.stop()
	o.mu.Lock()
	spans := o.spans
	o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == o {
		t.cur = nil
	}
	if update {
		t.updates++
		if o.helloAt >= 0 && o.firstByteAt >= 0 {
			t.firstByteNs += o.firstByteAt - o.helloAt
			t.firstBytes++
		}
	}
	t.bytesIn += o.bytesIn
	t.streams += o.streams
	t.rootNs += spans[0].End - spans[0].Start
	for metric, ns := range attribute(spans) {
		t.selfNs[metric] += ns
	}
	for _, s := range spans {
		if s.Name == "device.apply" {
			t.applyNs += s.End - s.Start
		}
	}
	if len(t.kept)+len(spans) <= maxKeptSpans {
		t.kept = append(t.kept, spans...)
	}
}

// attribute charges every instant of the root span to one layer metric
// (see layers); instants no span covers go to unattributed_ms.
func attribute(spans []spanRec) map[string]int64 {
	type event struct {
		at    int64
		layer int
		delta int
		srv   bool
	}
	root := spans[0]
	evs := make([]event, 0, 2*len(spans))
	for _, s := range spans[1:] {
		k, ok := layerIndex[s.Name]
		lo, hi := max(s.Start, root.Start), min(s.End, root.End)
		if !ok || hi <= lo {
			continue
		}
		evs = append(evs, event{lo, k, 1, s.Server}, event{hi, k, -1, s.Server})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	client := make([]int, len(layers))
	server := make([]int, len(layers))
	first := func(c []int) int {
		for k, n := range c {
			if n > 0 {
				return k
			}
		}
		return -1
	}
	out := map[string]int64{}
	muxRead := layerIndex["mux.read"]
	at := root.Start
	charge := func(until int64) {
		if until <= at {
			return
		}
		metric := "unattributed_ms"
		if c := first(client); c >= 0 {
			metric = layers[c].metric
			if c == muxRead {
				if s := first(server); s >= 0 {
					metric = layers[s].metric
				}
			}
		}
		out[metric] += until - at
		at = until
	}
	for _, e := range evs {
		charge(e.at)
		if e.srv {
			server[e.layer] += e.delta
		} else {
			client[e.layer] += e.delta
		}
	}
	charge(root.End)
	return out
}

// noteDecode records the commands of a delta a device decoded. The
// streaming decoder devices use reports no obs counters, so the harness
// counts them from the encoded delta it re-timed or holds.
func (t *tracer) noteDecode(cmds int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.decodeCmds += int64(cmds)
}

// expectChurn records the generator's churn for a (ref, version) pair
// the diff algorithm is about to see. A nil ref matches any reference:
// the store diffs against its own materialized head.
func (t *tracer) expectChurn(ref, version []byte, churn int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.churnOf[churnKey(ref, version)] = churn
}

// churnKey identifies an input pair by its backing arrays.
func churnKey(ref, version []byte) [2]*byte {
	var k [2]*byte
	if len(ref) > 0 {
		k[0] = &ref[0]
	}
	if len(version) > 0 {
		k[1] = &version[0]
	}
	return k
}

// churnFor returns the expected churn of a diff input; t.mu is held.
func (t *tracer) churnFor(ref, version []byte) (int64, bool) {
	if c, ok := t.churnOf[churnKey(ref, version)]; ok {
		return c, true
	}
	c, ok := t.churnOf[churnKey(nil, version)]
	return c, ok
}

// diffPair is one diff call kept for re-timing the conversion pipeline
// on the same input outside the timed window.
type diffPair struct {
	ref    []byte
	d      *delta.Delta
	diffNs int64
	end    int64 // when the diff returned
	op     *opTrace
}

// tracedAlgo times the diff algorithm handed to the server or store.
type tracedAlgo struct {
	inner diff.Algorithm
	t     *tracer
}

func (a tracedAlgo) Name() string { return a.inner.Name() }

func (a tracedAlgo) Diff(ref, version []byte) (*delta.Delta, error) {
	t := a.t
	start := t.now()
	d, err := a.inner.Diff(ref, version)
	end := t.now()
	o := t.current()
	if o != nil {
		o.add("diff", start, end, t.algoServer)
	}
	if err != nil {
		return d, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.diffs.calls++
	t.diffs.ns += end - start
	t.diffs.versionBytes += int64(len(version))
	t.diffs.addBytes += d.AddedBytes()
	if c, ok := t.churnFor(ref, version); ok {
		t.diffs.churn += c
		t.diffs.churnAddBytes += d.AddedBytes()
	}
	t.pairs = append(t.pairs, diffPair{ref: ref, d: d, diffNs: end - start, end: end, op: o})
	return d, nil
}

// retime re-runs the conversion pipeline the program runs after each
// captured diff — validate, in-place convert, validate, compact encode
// — on the same input, outside the timed window. The timings feed the
// §7 conversion/diff ratio and the Table 1 compression loss. With place
// set, the re-timed steps are also added as server-side spans right
// after their diff, where the update server runs them. It returns the
// command count of each re-encoded delta, in diff order.
func (t *tracer) retime(place bool) ([]int, error) {
	t.mu.Lock()
	pairs := t.pairs
	t.pairs = nil
	t.mu.Unlock()
	// The codec counters describe what the program encodes, not these
	// re-runs; nothing else encodes while the harness re-times.
	codec.SetObserver(nil)
	defer codec.SetObserver(t.reg)
	cmds := make([]int, 0, len(pairs))
	for _, p := range pairs {
		v1, err := timeIt(func() error { return p.d.Validate() })
		if err != nil {
			return nil, err
		}
		var ip *delta.Delta
		var st *inplace.Stats
		cv, err := timeIt(func() (err error) {
			ip, st, err = inplace.Convert(p.d, p.ref, inplace.WithPolicy(graph.LocallyMinimum{}))
			return err
		})
		if err != nil {
			return nil, err
		}
		v2, err := timeIt(func() error { return ip.Validate() })
		if err != nil {
			return nil, err
		}
		var n int64
		enc, err := timeIt(func() (err error) {
			n, err = codec.Encode(io.Discard, ip, codec.FormatCompact)
			return err
		})
		if err != nil {
			return nil, err
		}
		ordered, err := orderedSize(p.d)
		if err != nil {
			return nil, err
		}
		t.noteConversion(p.d, st, ordered, n)
		cmds = append(cmds, len(ip.Commands))
		t.mu.Lock()
		t.diffs.timedDiffNs += p.diffNs
		t.diffs.convertNs += cv
		t.mu.Unlock()
		if place && p.op != nil {
			at := p.end
			p.op.add("delta.validate", at, at+v1, true)
			p.op.add("inplace", at, at+cv, true)
			at += cv
			p.op.add("delta.validate", at, at+v2, true)
			p.op.add("codec.encode", at, at+enc, true)
		}
	}
	return cmds, nil
}

// noteConversion accumulates one in-place conversion's statistics; the
// compression loss compares its compact encoding with the write-order
// encoding of its input (ordered = 0 when the input is not in write
// order).
func (t *tracer) noteConversion(d *delta.Delta, st *inplace.Stats, ordered, inplaceBytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.conv.conversions++
	t.conv.cmds += int64(len(d.Commands))
	t.conv.edges += int64(st.Edges)
	t.conv.cycles += int64(st.CyclesBroken)
	t.conv.convertedBytes += st.ConvertedBytes
	if ordered > 0 {
		t.diffs.ordered += ordered
		t.diffs.inplaceBytes += inplaceBytes
	}
}

// orderedSize returns d's write-order encoded size, or 0 when d is not
// in contiguous write order.
func orderedSize(d *delta.Delta) (int64, error) {
	n, err := codec.EncodedSize(d, codec.FormatOrdered)
	if err == codec.ErrNotOrdered {
		return 0, nil
	}
	return n, err
}

// timeIt returns fn's wall time in nanoseconds.
func timeIt(fn func() error) (int64, error) {
	start := time.Now()
	err := fn()
	return int64(time.Since(start)), err
}

// tracedFlash times every storage access of a device.
type tracedFlash struct {
	*device.Flash
	op *opTrace
}

func (f *tracedFlash) ReadAt(p []byte, off int64) error {
	start := f.op.t.now()
	err := f.Flash.ReadAt(p, off)
	f.op.add("flash.read", start, f.op.t.now(), false)
	return err
}

func (f *tracedFlash) WriteAt(p []byte, off int64) error {
	start := f.op.t.now()
	err := f.Flash.WriteAt(p, off)
	f.op.add("flash.write", start, f.op.t.now(), false)
	return err
}

// tracedConn times the client side of one update stream.
type tracedConn struct {
	net.Conn
	op *opTrace
}

func (c *tracedConn) Read(p []byte) (int, error) {
	o := c.op
	start := o.t.now()
	n, err := c.Conn.Read(p)
	end := o.t.now()
	o.add("mux.read", start, end, false)
	o.mu.Lock()
	o.bytesIn += int64(n)
	if n > 0 && o.firstByteAt < 0 {
		o.firstByteAt = end
	}
	o.mu.Unlock()
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	o := c.op
	start := o.t.now()
	n, err := c.Conn.Write(p)
	o.add("mux.write", start, o.t.now(), false)
	o.mu.Lock()
	if o.helloAt < 0 {
		o.helloAt = start
	}
	o.mu.Unlock()
	return n, err
}

// tracedDialer wraps a DialFunc so every stream it opens is timed.
func tracedDialer(dial netupdate.DialFunc, o *opTrace) netupdate.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		var conn net.Conn
		err := o.time("mux.open", func() (err error) {
			conn, err = dial(ctx)
			return err
		})
		if err != nil {
			return nil, err
		}
		o.mu.Lock()
		o.streams++
		o.mu.Unlock()
		return &tracedConn{Conn: conn, op: o}, nil
	}
}

// inferDeviceSpans adds the device spans of a streamed update, which
// runs inside netupdate.Run where no wrapper reaches: device.crc from
// the opened stream to the hello (the device checksums its image), and
// device.apply from the first delta byte to the status message (the
// in-place apply and the confirming checksum).
func (o *opTrace) inferDeviceSpans() {
	o.mu.Lock()
	var opened, hello, status int64 = -1, -1, -1
	first := o.firstByteAt
	for _, s := range o.spans {
		switch {
		case s.Name == "mux.open" && opened < 0:
			opened = s.End
		case s.Name == "mux.write" && hello < 0:
			hello = s.Start
		case s.Name == "mux.write" && first >= 0 && status < 0 && s.Start > first:
			status = s.Start
		}
	}
	o.mu.Unlock()
	if opened >= 0 && hello > opened {
		o.add("device.crc", opened, hello, false)
	}
	if first >= 0 && status > first {
		o.add("device.apply", first, status, false)
	}
}

// writeTrace writes the kept spans as JSON lines.
func (t *tracer) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics turns the traced phase into the per-layer metrics; the
// workload adds the ones only it can measure.
func (t *tracer) layerMetrics(before, after obs.Snapshot) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := map[string]float64{}
	per := func(v int64) float64 {
		if t.updates == 0 {
			return 0
		}
		return float64(v) / float64(t.updates)
	}
	perMs := func(ns int64) float64 { return per(ns) / 1e6 }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	for _, l := range layers {
		m[l.metric] = perMs(t.selfNs[l.metric])
	}
	m["unattributed_ms"] = perMs(t.selfNs["unattributed_ms"])
	m["trace.update_mean_ms"] = perMs(t.rootNs)
	m["trace.spans"] = float64(len(t.kept))
	m["device.apply_ms"] = perMs(t.applyNs)

	d := t.diffs
	m["diff.calls"] = float64(d.calls)
	m["diff.mb_per_s"] = ratio(d.versionBytes, d.ns) * 1e9 / (1 << 20)
	m["diff.add_bytes"] = ratio(d.addBytes, d.calls)
	m["diff.add_per_churn"] = ratio(d.churnAddBytes, d.churn)
	m["inplace.to_diff_ratio"] = ratio(d.convertNs, d.timedDiffNs)
	if d.ordered > 0 {
		m["inplace.compression_loss"] = float64(d.inplaceBytes)/float64(d.ordered) - 1
	}
	c := t.conv
	m["inplace.edges"] = ratio(c.edges, c.conversions)
	m["inplace.cycles_broken"] = ratio(c.cycles, c.conversions)
	m["inplace.converted_bytes"] = ratio(c.convertedBytes, c.conversions)
	m["delta.cmds"] = ratio(c.cmds, c.conversions)

	counter := func(name string) int64 { return after.Counter(name) - before.Counter(name) }
	// Encodes run in set-up on fleet-warm, so these count the whole phase.
	m["codec.encode_cmds"] = ratio(after.Counter("ipdelta_codec_encode_commands_total"), after.Counter("ipdelta_codec_encode_total"))
	m["codec.encode_bytes"] = ratio(after.Counter("ipdelta_codec_encode_bytes_total"), after.Counter("ipdelta_codec_encode_total"))
	m["codec.decode_cmds"] = per(t.decodeCmds)

	m["netupdate.first_byte_ms"] = ratio(t.firstByteNs, t.firstBytes) / 1e6
	sess := after.Histograms["ipdelta_server_session_nanos"]
	prev := before.Histograms["ipdelta_server_session_nanos"]
	m["netupdate.server_session_ms"] = ratio(sess.Sum-prev.Sum, sess.Count-prev.Count) / 1e6
	m["netupdate.cached_deltas"] = float64(after.Gauges["ipdelta_server_cached_deltas"])
	m["mux.bytes_in"] = per(t.bytesIn)
	m["mux.streams"] = per(t.streams)

	vh, vm := counter("ipdelta_store_cache_version_hits_total"), counter("ipdelta_store_cache_version_misses_total")
	dh, dm := counter("ipdelta_store_cache_delta_hits_total"), counter("ipdelta_store_cache_delta_misses_total")
	m["store.cache_version_hit_ratio"] = ratio(vh, vh+vm)
	m["store.cache_version_lookups"] = float64(vh + vm)
	m["store.cache_delta_hit_ratio"] = ratio(dh, dh+dm)
	m["store.cache_delta_lookups"] = float64(dh + dm)
	m["store.chain_replays"] = per(counter("ipdelta_store_chain_replays_total"))
	return m
}

// encodeCompact is codec.Encode into a fresh buffer, as the store's
// /delta endpoint does it.
func encodeCompact(d *delta.Delta) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, d, codec.FormatCompact); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return buf.Bytes(), nil
}
