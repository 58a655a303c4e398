// Command psbench is the repository's benchmark: eight closed-loop
// workloads from the simulator to the gateway's HTTP socket, six
// end-to-end metrics on each, and a traced pass that splits an exchange
// into per-layer spans. It measures the program from outside, through its
// public functions, and claims nothing; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, traced or not.
type result struct {
	Workload   string                 `json:"workload"`
	Traced     bool                   `json:"traced"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Violations []string               `json:"violations,omitempty"`
	// Samples is the number of latency samples behind each percentile
	// (per one-second slice on the sliced workloads), and TailQuantile
	// the quantile op_p99_us holds.
	Samples      int     `json:"samples"`
	TailQuantile float64 `json:"tail_quantile"`
	TimeWait     [2]int  `json:"time_wait_sockets"` // before and after
	// Ledger is, on a traced socket run, the root span split into its
	// three parts as shares: where one op's time goes.
	Ledger string `json:"ledger,omitempty"`
}

// resultFile is what lands in the output directory.
type resultFile struct {
	Env     envStamp `json:"env"`
	Results []result `json:"results"`
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Uint64("seed", defaultSeed, "seed every generated input derives from")
		seconds   = flag.Int("seconds", 6, "measured window in seconds (after a 1 s warm-up)")
		trace     = flag.Int("trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; -1: both")
		outDir    = flag.String("out", "benchmark/out", "directory for result and trace files")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced pass twice, then on the held-out seed, and compare against the bounds")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *outDir, *selfcheck, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, outDir string, selfcheck, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(args[0], args[1])
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	cfg := runConfig{seed: seed, window: time.Duration(seconds) * time.Second, d: drivers()}
	if selfcheck {
		return selfCheck(cfg, outDir)
	}
	if name != "all" && trace >= 0 {
		return runHere(name, cfg, trace == 1, outDir)
	}
	names := []string{name}
	if name == "all" {
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.name)
		}
	}
	passes := []bool{false, true}
	if trace >= 0 {
		passes = []bool{trace == 1}
	}
	var all []result
	for _, traced := range passes {
		results, err := runPass(names, cfg, traced, outDir)
		if err != nil {
			return err
		}
		all = append(all, results...)
	}
	return report(all, true)
}

// runHere runs one workload and one pass in this process: what the driver
// contract's command line asks for.
func runHere(name string, cfg runConfig, traced bool, outDir string) error {
	build, ok := builders[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := runWorkload(name, build, cfg, traced, outDir)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printResult(r, cfg)
	if err := writeJSON(resultPath(outDir, name, traced), resultFile{stampEnv(cfg, traced), []result{r}}); err != nil {
		return err
	}
	return report([]result{r}, false)
}

func resultPath(outDir, name string, traced bool) string {
	return filepath.Join(outDir, fmt.Sprintf("%s-trace%d.json", name, b2i(traced)))
}

// runPass runs the named workloads in order, each in a process of its
// own: live heap, the collector's pacing and the runtime's retained
// goroutine descriptors all carry over from one workload to the next
// inside a process, and the driver measures every workload in a fresh one.
func runPass(names []string, cfg runConfig, traced bool, outDir string) ([]result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []result
	for _, name := range names {
		path := resultPath(outDir, name, traced)
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.Itoa(int(cfg.window.Seconds())), "-trace", strconv.Itoa(b2i(traced)), "-out", outDir)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		// The child's last line is its machine-readable result; the file
		// it wrote says the same and more.
		text := strings.TrimRight(string(out), "\n")
		fmt.Println(text[:max(strings.LastIndexByte(text, '\n'), 0)])
		file, err := readResults(path)
		if err != nil || len(file.Results) != 1 {
			return nil, fmt.Errorf("%s: no result (%v)", name, errors.Join(runErr, err))
		}
		results = append(results, file.Results[0])
	}
	return results, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func runWorkload(name string, build builder, cfg runConfig, traced bool, outDir string) (result, error) {
	r := result{Workload: name, Traced: traced, Metrics: map[string]metricValue{}}
	r.TimeWait[0] = timeWaitSockets()
	var err error
	if traced {
		err = runTraced(name, build, cfg, outDir, &r)
	} else {
		err = runUntraced(build, cfg, &r)
	}
	r.TimeWait[1] = timeWaitSockets()
	for name, v := range r.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.Violations = append(r.Violations, fmt.Sprintf("metric %s is %v", name, v.Value))
			r.Metrics[name] = metricValue{0, v.Unit}
		}
	}
	if r.Failed > 0 {
		r.Violations = append(r.Violations, fmt.Sprintf("%d of %d operations failed", r.Failed, r.Attempted))
	}
	r.Correct = err == nil && len(r.Violations) == 0
	return r, err
}

// A run sets its workload up at least minSetups times and reports the
// median; a set-up that takes milliseconds is repeated until setupBudget
// is spent or maxSetups is reached, because the median of three 2 ms
// readings is mostly scheduler noise.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// runUntraced measures the end-to-end metrics: set-up (several times, the
// median is reported), warm-up, the window, then — outside any timing —
// the live heap and the correctness checks.
func runUntraced(build builder, cfg runConfig, r *result) error {
	var inst instance
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget.Seconds()); {
		if inst != nil {
			inst.close()
		}
		began := time.Now()
		var err error
		if inst, err = build(cfg, nil); err != nil {
			return fmt.Errorf("set-up %d: %w", len(setups), err)
		}
		setups = append(setups, time.Since(began).Seconds())
		spent += setups[len(setups)-1]
	}
	defer inst.close()
	m := inst.measure(cfg.window)
	heap := liveHeapMB()
	r.Violations = inst.check()
	r.Attempted, r.Failed, r.Samples, r.TailQuantile = m.attempted, m.failed, m.samples, m.tailQ
	values := map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     m.opsPerS,
		"op_p50_us":     m.p50us,
		"op_p99_us":     m.p99us,
		"cpu_us_per_op": m.cpuUsPerOp,
		"live_heap_mb":  heap,
	}
	for _, spec := range endToEndSpecs {
		r.Metrics[spec.name] = metricValue{values[spec.name], spec.unit}
	}
	return nil
}

// runTraced measures the per-layer metrics: the isolated probes, a short
// untraced window (the baseline for the tracing overhead and the process
// counters), then a full window on a fleet built through the tracing
// factory, whose spans and counters the instance turns into layers.
func runTraced(name string, build builder, cfg runConfig, outDir string, r *result) error {
	m := metrics{}
	if err := probeCore(cfg.seed, m); err != nil {
		return err
	}
	if err := probeCodec(cfg.seed, m); err != nil {
		return err
	}

	plain, err := build(cfg, nil)
	if err != nil {
		return err
	}
	base := plain.measure(baselineWindow)
	plain.close()
	if base.attempted > 0 {
		m["proc.allocs_per_op"] = float64(base.mem.mallocs) / float64(base.attempted)
		m["proc.bytes_per_op"] = float64(base.mem.bytes) / float64(base.attempted)
	}
	m["proc.gc_cycles"] = float64(base.mem.gcCycles)
	m["proc.gc_pause_ms"] = float64(base.mem.gcPause.Nanoseconds()) / 1e6
	m["proc.goroutines_peak"] = float64(base.goroutinesPeak)

	tr := newTracer()
	inst, err := build(cfg, tr)
	if err != nil {
		return err
	}
	defer inst.close()
	t := inst.measure(cfg.window)
	from, to := int64(t.from.Sub(tr.epoch)), int64(t.to.Sub(tr.epoch))
	r.Ledger = inst.layers(m, tr.aggregate(from, to), t)
	m["trace.overhead_pct"] = 100 * (base.opsPerS - t.opsPerS) / base.opsPerS
	r.Violations = inst.check()
	r.Attempted, r.Failed, r.Samples, r.TailQuantile = t.attempted, t.failed, t.samples, t.tailQ

	for _, spec := range perLayerSpecs {
		r.Metrics[spec.name] = metricValue{m[spec.name], spec.unit} // 0: not exercised by this workload
	}
	return writeJSON(filepath.Join(outDir, "trace-"+name+".json"), traceFile{
		Env:           stampEnv(cfg, true),
		Workload:      name,
		SpansRecorded: tr.spanCount(),
		Spans:         tr.export(from, to, traceFileTraces),
	})
}

// baselineWindow is the untraced window a traced run measures first.
const baselineWindow = 3 * time.Second

// traceFileTraces bounds the trace file: a socket workload records over a
// million spans in a window, and the file is for reading single exchanges.
const traceFileTraces = 2000

type traceFile struct {
	Env           envStamp    `json:"env"`
	Workload      string      `json:"workload"`
	SpansRecorded int         `json:"spans_recorded"`
	Spans         []traceSpan `json:"spans"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric of a result by name with its unit, and
// for a traced socket run the ledger: where one op's time goes.
func printResult(r result, cfg runConfig) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Printf("\n== %s (%s; %s, D=%d; seed %d; window %v after %v warm-up)\n",
		r.Workload, pass, loadModel, cfg.d, cfg.seed, cfg.window, warmUp)
	fmt.Printf("   ops attempted %d, failed %d; TIME_WAIT sockets %d -> %d\n",
		r.Attempted, r.Failed, r.TimeWait[0], r.TimeWait[1])
	if r.Traced {
		for _, spec := range perLayerSpecs {
			if v := r.Metrics[spec.name]; v.Value != 0 {
				fmt.Printf("   %-34s %14.4f %-5s  moves %s on %s\n", spec.name, v.Value, v.Unit, spec.moves, spec.on)
			}
		}
		if r.Ledger != "" {
			fmt.Printf("   ledger: %s\n", r.Ledger)
		}
	} else {
		for _, spec := range endToEndSpecs {
			v := r.Metrics[spec.name]
			note := ""
			switch spec.name {
			case "op_p50_us":
				note = fmt.Sprintf("  (n=%d)", r.Samples)
			case "op_p99_us":
				note = fmt.Sprintf("  (n=%d, p%g)", r.Samples, 100*r.TailQuantile)
			case "cpu_us_per_op":
				note = "  (whole process: the callers' CPU is in it)"
			}
			fmt.Printf("   %-34s %14.4f %s%s\n", spec.name, v.Value, v.Unit, note)
		}
	}
	for _, v := range r.Violations {
		fmt.Printf("   INCORRECT: %s\n", v)
	}
}

// report prints the machine-readable last line. For a single workload and
// pass it is the driver contract's object; for several, metrics are keyed
// workload/metric.
func report(results []result, qualify bool) error {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, v := range r.Metrics {
			if qualify {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = v
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n", b)
	if !out.Correct {
		return errors.New("a correctness check failed (see INCORRECT lines above)")
	}
	return nil
}
