// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the system from outside, checks every
// answer, and prints the metrics BENCHMARK.json names, by name and
// with units, as one JSON object on the last line of standard output:
//
//	perfbench --workload daemon-ingest --seed 7 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 runs the same workload with spans recorded around every
// call the benchmark makes into a layer and prints the per-layer
// metrics derived from those spans and from the program's own
// counters. run.sh builds this command and the streamkmd daemon from
// the checkout and runs it from the checkout root; README.md lists the
// workloads, the metrics and which layer each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints; BENCHMARK.json
// carries the same names with their bounds.
var endToEnd = []metricDef{
	{"throughput_pps", "pts/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p90_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"success_rate", "ratio"},
	{"mse", "coord2"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics every traced run prints. A workload that
// bypasses a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"serve.apply_ms_mean", "ms"},
	{"serve.query_ms_mean", "ms"},
	{"serve.outside_apply_ms_mean", "ms"},
	{"serve.decode_us_per_batch", "us"},
	{"serve.ingest_inproc_ms", "ms"},
	{"serve.fsyncs_per_kpt", "1/kpt"},
	{"serve.checkpoints_per_kpt", "1/kpt"},
	{"serve.rejects", "count"},
	{"disk.fsync_us", "us"},
	{"streamkm.push_us_per_batch", "us"},
	{"streamkm.snapshot_us", "us"},
	{"streamkm.checkpoint_us", "us"},
	{"streamkm.checkpoint_bytes", "bytes"},
	{"core.snapshot_cache_hit_ratio", "ratio"},
	{"core.snapshot_warm_starts", "count"},
	{"engine.execute_s", "s"},
	{"engine.partial_busy_s", "s"},
	{"engine.merge_busy_s", "s"},
	{"engine.clone_utilization", "ratio"},
	{"stream.chunks_highwater", "count"},
	{"stream.partials_highwater", "count"},
	{"kmeans.partial_iterations", "count"},
	{"kmeans.merge_iterations", "count"},
	{"kmeans.restarts", "count"},
	{"grid.index_s", "s"},
	{"grid.load_s", "s"},
	{"client.ingest_p99_ms", "ms"},
	{"client.query_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	root     string  // checkout root; every file the run touches is under it
	work     string  // this run's scratch directory, removed at exit
	daemon   string  // streamkmd binary
	tr       *tracer // nil unless --trace 1
}

// outcome is what a workload measured and checked.
type outcome struct {
	failedChecks []string
	attempted    int64
	failed       int64
	e2e          map[string]float64
	layers       map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// check records a failed answer check; the run then reports
// "correct": false and names the check on standard error.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failedChecks = append(o.failedChecks, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*runConfig) (*outcome, error){
	"batch-cells":   runBatchCells,
	"daemon-ingest": runDaemonIngest,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload to run: batch-cells or daemon-ingest")
		seed     = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 20, "how long the run measures")
		traced   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		daemon   = flag.String("daemon", "", "streamkmd binary (daemon-ingest)")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	rc := &runConfig{workload: *workload, seed: *seed, seconds: *seconds, root: root, work: work, daemon: *daemon}
	if *traced == 1 {
		rc.tr = newTracer()
	}
	printEnv(rc)

	out, err := fn(rc)
	if err != nil {
		return err
	}
	if rc.tr != nil {
		path := filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-seed%d.json", rc.workload, rc.seed))
		if err := rc.tr.write(path); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	for _, c := range out.failedChecks {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", c)
	}
	res := result{Correct: len(out.failedChecks) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	defs, values := endToEnd, out.e2e
	if rc.tr != nil {
		defs, values = perLayer, out.layers
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printEnv records the environment a result was measured in: CPUs,
// the filesystem under the daemon's state, and the Go toolchain.
func printEnv(rc *runConfig) {
	fs := fsType(rc.work)
	if fs == "tmpfs" {
		fmt.Fprintln(os.Stderr, "perfbench: warning: state directory is on tmpfs; fsync costs nothing there")
	}
	b, _ := json.Marshal(map[string]any{"env": map[string]any{
		"nproc": runtime.NumCPU(), "state_fs": fs, "go": runtime.Version(),
		"workload": rc.workload, "seed": rc.seed, "seconds": rc.seconds, "trace": rc.tr != nil,
	}})
	fmt.Println(string(b))
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
