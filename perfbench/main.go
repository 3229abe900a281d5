// Command perfbench is the end-to-end update benchmark of ipdelta. It
// runs one named workload through the library's public APIs with the
// defaults cmd/updated and cmd/ipstore ship with, verifies every
// reconstructed image, and prints its metrics; the last line of its
// output is one JSON object.
//
// Usage:
//
//	perfbench --workload fleet-warm|release-large|store-churn
//	          [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
//
// With --trace 0 it prints the end-to-end metrics, whose times are
// process CPU time scaled by a reference kernel (calib.go). With
// --trace 1 it runs the workload twice for half the time each, first
// bare and then with its injection points wrapped, and prints the
// per-layer metrics, the tracing overhead between the two, and writes
// the traced spans to DIR as JSON lines. The process exits non-zero when any operation
// fails or any image differs from its expected version. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ipdelta/internal/device"
	"ipdelta/internal/netupdate"
)

// setupReps is how often each workload sets up per run; setup_s is the
// median.
const setupReps = 5

// phase is one measured pass over a workload.
type phase struct {
	seed    int64
	seconds float64
	traced  bool // wrap the injection points and record spans
}

// outcome is what one phase measured.
type outcome struct {
	attempted, failed int64
	firstErr          error
	latMs             []float64     // every update's wall-clock latency
	cpuMs             []float64     // scaled CPU ms per update: per update, or per batch on fleet-warm
	rawMs             []float64     // the same, unscaled
	scaledMs          float64       // scaled CPU ms of the timed windows
	wall, cpu         time.Duration // timed windows on the wall and (unscaled) CPU clocks
	ref               *refKernel    // sampled around every timed operation
	e2e               map[string]float64
	layer             map[string]float64 // traced phases only
	notes             []string
	tr                *tracer
}

func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

var workloads = map[string]func(phase) (*outcome, error){
	"fleet-warm":    runFleetWarm,
	"release-large": runReleaseLarge,
	"store-churn":   runStoreChurn,
}

// endToEnd lists the metrics of an untraced run with their units. Their
// times are process CPU time (cpuNow), scaled to nominal speed by the
// reference kernel run around each timed operation (calib.go).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"updates_per_cpu_s", "1/s"},
	{"update_cpu_p50_ms", "ms"},
	{"wire_bytes_per_update", "bytes"},
	{"wire_per_churn", "ratio"},
	{"flash_write_bytes_per_update", "bytes"},
	{"append_cpu_p50_ms", "ms"},
	{"peak_heap_mb", "MiB"},
}

// perLayer lists the metrics of a traced run with their units. Times
// are self time per update; counts and bytes are per update unless
// the README says otherwise.
var perLayer = []struct{ name, unit string }{
	{"diff.calls", "count"},
	{"diff.busy_ms", "ms"},
	{"diff.mb_per_s", "MiB/s"},
	{"diff.add_bytes", "bytes"},
	{"diff.add_per_churn", "ratio"},
	{"inplace.busy_ms", "ms"},
	{"inplace.edges", "count"},
	{"inplace.cycles_broken", "count"},
	{"inplace.converted_bytes", "bytes"},
	{"inplace.to_diff_ratio", "ratio"},
	{"inplace.compression_loss", "ratio"},
	{"delta.validate_ms", "ms"},
	{"delta.cmds", "count"},
	{"codec.encode_ms", "ms"},
	{"codec.encode_cmds", "count"},
	{"codec.encode_bytes", "bytes"},
	{"codec.decode_cmds", "count"},
	{"netupdate.first_byte_ms", "ms"},
	{"netupdate.server_session_ms", "ms"},
	{"netupdate.self_ms", "ms"},
	{"netupdate.attempts", "count"},
	{"netupdate.retries", "count"},
	{"netupdate.fallbacks", "count"},
	{"netupdate.cached_deltas", "count"},
	{"mux.read_wait_ms", "ms"},
	{"mux.write_ms", "ms"},
	{"mux.bytes_in", "bytes"},
	{"mux.streams", "count"},
	{"device.apply_ms", "ms"},
	{"device.apply_self_ms", "ms"},
	{"device.nv_writes", "count"},
	{"flash.read_ms", "ms"},
	{"flash.write_ms", "ms"},
	{"flash.read_bytes", "bytes"},
	{"flash.write_bytes", "bytes"},
	{"flash.ops", "count"},
	{"store.delta_between_ms", "ms"},
	{"store.version_ms", "ms"},
	{"store.append_ms", "ms"},
	{"store.compose_ms", "ms"},
	{"store.materialize_ms", "ms"},
	{"store.cache_delta_hit_ratio", "ratio"},
	{"store.cache_delta_lookups", "count"},
	{"store.cache_version_hit_ratio", "ratio"},
	{"store.cache_version_lookups", "count"},
	{"store.chain_replays", "count"},
	{"unattributed_ms", "ms"},
	{"trace.update_mean_ms", "ms"},
	{"trace.untraced_cpu_p50_ms", "ms"},
	{"trace.traced_cpu_p50_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},
	{"wall.updates_per_s", "1/s"},
	{"wall.update_p50_ms", "ms"},
	{"wall.update_p99_ms", "ms"},
	{"error_rate", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fleet-warm, release-large or store-churn")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for traced spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}

	var rep report
	var values map[string]float64
	var units = endToEnd
	if *trace == 0 {
		out, err := w(phase{seed: *seed, seconds: *seconds})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printNotes(*name, "untraced", out)
		rep.Attempted, rep.Failed = out.attempted, out.failed
		values = out.e2e
	} else {
		bare, err := w(phase{seed: *seed, seconds: *seconds / 2})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printNotes(*name, "untraced half", bare)
		traced, err := w(phase{seed: *seed, seconds: *seconds / 2, traced: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printNotes(*name, "traced half", traced)
		rep.Attempted = bare.attempted + traced.attempted
		rep.Failed = bare.failed + traced.failed
		values = traced.layer
		values["trace.untraced_cpu_p50_ms"] = bare.e2e["update_cpu_p50_ms"]
		values["trace.traced_cpu_p50_ms"] = traced.e2e["update_cpu_p50_ms"]
		values["trace.overhead"] = values["trace.traced_cpu_p50_ms"]/values["trace.untraced_cpu_p50_ms"] - 1
		for _, k := range []string{"wall.updates_per_s", "wall.update_p50_ms", "wall.update_p99_ms"} {
			values[k] = bare.e2e[k]
		}
		values["error_rate"] = float64(rep.Failed) / float64(rep.Attempted)
		units = perLayer
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := traced.tr.writeTrace(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Printf("%s: %d spans written to %s\n", *name, len(traced.tr.kept), path)
	}

	rep.Correct = rep.Failed == 0
	rep.Metrics = make(map[string]metric, len(units))
	for _, u := range units {
		rep.Metrics[u.name] = metric{Value: values[u.name], Unit: u.unit}
		fmt.Printf("  %-32s %16.4f %s\n", u.name, values[u.name], u.unit)
	}
	fmt.Printf("  %-32s %16d of %d attempted\n", "failed", rep.Failed, rep.Attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func printNotes(name, label string, out *outcome) {
	for _, n := range out.notes {
		fmt.Printf("%s (%s): %s\n", name, label, n)
	}
	if out.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s (%s): %d of %d operations failed; first: %v\n",
			name, label, out.failed, out.attempted, out.firstErr)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// median returns the middle value of xs (the mean of the middle two for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally sums what the verified updates of a phase cost.
type tally struct {
	ok, wire, churn, nv          int64
	attempts, retries, fallbacks int64
	flash                        device.IOStats // traffic of the updates alone
}

// add counts one verified update: its wire and churn bytes, the flash
// traffic between the two snapshots and the device's progress writes.
func (t *tally) add(wire, churn int64, pre, post device.IOStats, nv int64) {
	t.ok++
	t.wire += wire
	t.churn += churn
	t.nv += nv
	t.flash.ReadOps += post.ReadOps - pre.ReadOps
	t.flash.WriteOps += post.WriteOps - pre.WriteOps
	t.flash.BytesRead += post.BytesRead - pre.BytesRead
	t.flash.BytesWritten += post.BytesWritten - pre.BytesWritten
}

// addSession counts the retry ladder of one verified update session.
func (t *tally) addSession(rep netupdate.RunReport) {
	t.attempts += int64(rep.Attempts)
	t.retries += int64(rep.Attempts - 1)
	if rep.FellBack {
		t.fallbacks++
	}
}

// endToEnd returns the end-to-end metrics of a phase, and the wall-clock
// figures the traced run reports beside the per-layer metrics. setups
// (seconds) and appends (ms) are scaled CPU times.
func (t *tally) endToEnd(out *outcome, setups, appends []float64, peakHeap float64) map[string]float64 {
	out.notes = append(out.notes, fmt.Sprintf(
		"CPU ms per update: median %.3f scaled, %.3f unscaled; reference kernel: median %.3f ms over %d runs (nominal %.3f)",
		median(out.cpuMs), median(out.rawMs), median(out.ref.ms), len(out.ref.ms), out.ref.nominal))
	return map[string]float64{
		"setup_s":                      median(setups),
		"updates_per_cpu_s":            float64(t.ok) / (out.scaledMs / 1000),
		"update_cpu_p50_ms":            median(out.cpuMs),
		"wire_bytes_per_update":        ratio(t.wire, t.ok),
		"wire_per_churn":               ratio(t.wire, t.churn),
		"flash_write_bytes_per_update": ratio(t.flash.BytesWritten, t.ok),
		"append_cpu_p50_ms":            median(appends),
		"peak_heap_mb":                 peakHeap,
		"wall.updates_per_s":           float64(t.ok) / out.wall.Seconds(),
		"wall.update_p50_ms":           percentile(out.latMs, 0.50),
		"wall.update_p99_ms":           percentile(out.latMs, 0.99),
	}
}

// addLayers adds the per-layer metrics the tally measured.
func (t *tally) addLayers(m map[string]float64) {
	m["netupdate.attempts"] = ratio(t.attempts, t.ok)
	m["netupdate.retries"] = float64(t.retries)
	m["netupdate.fallbacks"] = float64(t.fallbacks)
	m["device.nv_writes"] = ratio(t.nv, t.ok)
	m["flash.read_bytes"] = ratio(t.flash.BytesRead, t.ok)
	m["flash.write_bytes"] = ratio(t.flash.BytesWritten, t.ok)
	m["flash.ops"] = ratio(t.flash.ReadOps+t.flash.WriteOps, t.ok)
}

// verifyChunk is the buffer size flashHolds compares with.
const verifyChunk = 1 << 20

// flashHolds reports an error unless the flash starts with want. It
// compares through buf, so checking a large image allocates nothing.
func flashHolds(f *device.Flash, want, buf []byte) error {
	for at := 0; at < len(want); at += len(buf) {
		n := min(len(buf), len(want)-at)
		if err := f.ReadAt(buf[:n], int64(at)); err != nil {
			return err
		}
		if !bytes.Equal(buf[:n], want[at:at+n]) {
			return fmt.Errorf("device image differs from the expected version at byte %d", at)
		}
	}
	return nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
