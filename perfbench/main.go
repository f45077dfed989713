// Command perfbench is the ftpn repository benchmark. It drives three
// seeded workloads (campaign, topo, forensics) through the public
// functions of the exp, topo, ft, recover, des and obs packages on the
// sequential DES kernel, times each of those calls from outside, checks
// every scenario's outputs, and prints one JSON result line last.
//
//	go run . --workload campaign --seed 1 --seconds 10 --trace 0
//
// A run sets up the workload several times (setup_s is the median),
// then runs scenarios on a pool of workers for --seconds, and never
// fewer than the workload's deterministic prefix. Host times are the
// process's CPU time, reported at a fixed host speed through a
// reference loop the run samples between its own work (ref.go).
// Simulated results — detection latencies, counts and sim_digest — come
// from the prefix, so they are identical for a seed whatever the host
// speed or worker count. With --trace 1 it runs the prefix traced
// instead — spans around every timed call, the kernel's context-switch
// count and a CPU profile split by module — and then untraced scenarios
// past the prefix, for the tracing overhead.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ftpn/internal/exp"
	"ftpn/internal/topo"
)

// workload is one seeded scenario source with its own checks.
type workload interface {
	// setup builds, from scratch, the state scenarios share. It is
	// timed and repeated; its digest must not change between calls.
	setup(s *scen) error
	// scenario runs and checks scenario s.idx.
	scenario(s *scen)
}

// Set-up is repeated until minSetupTime has been spent in it, at least
// minSetups and at most maxSetups times, so that its median outlasts a
// burst of contention on the host: with 1 s, campaign's three set-ups
// of one seed read 0.29 s in one run and 0.53 s in another.
const (
	minSetupTime = 3 * time.Second
	minSetups    = 3
	maxSetups    = 100
	refPerSetup  = 8 // reference-loop samples before each set-up
)

// scenarioTailPct is the percentile of scenario_ms_tail. A burst of
// contention on the host slows a few dozen consecutive scenarios: in two
// of ten topo runs it raised p99 by 60% while p50 rose by 10%. Every
// run has hundreds of scenarios beyond p90.
const scenarioTailPct = 90

// defaultPrefix is each workload's deterministic prefix, sized so that
// the median detection latency moves by less than 5% between seeds, the
// detection-latency tail is p99 with at least ten detections beyond it,
// and one worker runs the prefix in about 10 s on a 2-CPU host.
var defaultPrefix = map[string]int{"campaign": 2000, "topo": 1800, "forensics": 1200}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workers  int
	prefix   int
	out      string
}

func newWorkload(cfg config) (workload, error) {
	base := cfg.seed * seedStride
	switch cfg.workload {
	case "campaign":
		return &campaign{seed: cfg.seed}, nil
	case "topo":
		return &topoWL{pool: &seedPool{base: base, classes: topoClasses}, prefix: cfg.prefix}, nil
	case "forensics":
		pool := seedPool{base: base, classes: []string{topo.ScenarioStop}, keep: isStop}
		return &forensics{pool: &pool, prefix: cfg.prefix}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want campaign, topo or forensics)", cfg.workload)
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "campaign, topo or forensics")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds of the untraced phase")
	fs.IntVar(&trace, "trace", 0, "1: add a traced run of the prefix and print per-layer metrics")
	fs.IntVar(&cfg.workers, "workers", 1, "scenario workers (at most nproc)")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for the report, spans and profile")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace != 0
	cfg.prefix = defaultPrefix[cfg.workload]
	switch {
	case cfg.seconds < 0:
		return cfg, errors.New("--seconds must not be negative")
	case cfg.workers < 1 || cfg.workers > runtime.NumCPU():
		return cfg, fmt.Errorf("--workers must be in [1, %d]", runtime.NumCPU())
	case trace != 0 && trace != 1:
		return cfg, errors.New("--trace must be 0 or 1")
	}
	return cfg, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run and returns the exit code: 0 when
// every check passed, 1 when any failed or the run could not complete,
// 2 for bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := newWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// One P per worker: each scenario's kernel hands the processor from
	// goroutine to goroutine, and with idle Ps beside it the runtime
	// wakes another thread for every handoff, which measures OS
	// wake-up jitter instead of the kernel.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.workers))
	rep, err := bench(cfg, w)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// refEvery is how many scenarios a worker of an untraced phase runs
// between two samples of the reference loop (about 2% of its time).
const refEvery = 16

// phase is one pass of scenarios over the worker pool.
type phase struct {
	outcomes  []outcome // ordered by index
	wall, cpu time.Duration
	tracers   []*tracer
	ref       []float64 // reference-loop samples, ns (untraced only)
}

// runPhase hands scenario indices first, first+1, ... to the workers
// until d has passed and every index below prefix has been handed out,
// then waits for the workers to finish. Untraced workers sample the
// reference loop every refEvery scenarios.
func runPhase(w workload, workers, first, prefix int, d time.Duration, traced bool) phase {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]outcome, workers)
	refs := make([][]float64, workers)
	ph := phase{tracers: make([]*tracer, workers)}
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuNow()
	for wi := range workers {
		var ref *refLoop
		if traced {
			ph.tracers[wi] = newTracer(wi)
		} else {
			ref = newRefLoop()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				i := int(next.Add(1) - 1)
				if i >= prefix && time.Since(start) >= d {
					break
				}
				if ref != nil && n%refEvery == 0 {
					refs[wi] = append(refs[wi], ref.sample())
				}
				per[wi] = append(per[wi], runScenario(w, i, ph.tracers[wi]))
			}
			if ref != nil {
				ref.stop()
			}
		}()
	}
	wg.Wait()
	ph.wall, ph.cpu = time.Since(start), time.Duration(cpuNow()-cpu0)
	for wi, o := range per {
		ph.outcomes = append(ph.outcomes, o...)
		ph.ref = append(ph.ref, refs[wi]...)
	}
	slices.SortFunc(ph.outcomes, func(a, b outcome) int { return a.Index - b.Index })
	return ph
}

// runScenario runs one scenario; a panic in the program is a failed
// scenario, not a crashed benchmark.
func runScenario(w workload, i int, tr *tracer) (out outcome) {
	s := newScen(i, tr)
	if tr != nil {
		s.root = tr.reserve()
	}
	t0, c0 := now(), cpuNow()
	defer func() {
		if v := recover(); v != nil {
			s.fail("panic: %v", v)
		}
		t1 := now()
		s.out.CPUNs = cpuNow() - c0
		s.out.Digest = s.dig.Sum64()
		if tr != nil {
			tr.add(span{ID: s.root, Scenario: i, Call: callScenario, Start: t0, End: t1})
		}
		out = s.out
	}()
	w.scenario(s)
	return
}

// setupOnce runs one set-up and returns the CPU time it took. Its
// outcome carries the set-up digest and, when traced, the time of each
// call.
func setupOnce(w workload, tr *tracer) (time.Duration, outcome, error) {
	s := newScen(-1, tr)
	if tr != nil {
		s.root = tr.reserve()
	}
	t0, c0 := now(), cpuNow()
	err := w.setup(s)
	t1, c1 := now(), cpuNow()
	if tr != nil {
		tr.add(span{ID: s.root, Scenario: -1, Call: callScenario, Start: t0, End: t1})
	}
	s.out.Digest = s.dig.Sum64()
	return time.Duration(c1 - c0), s.out, err
}

// report is a run's full result: the result-line fields plus the
// report-only detail written beside it.
type report struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Workers    int     `json:"workers"`
	Prefix     int     `json:"prefix"`
	Seconds    int     `json:"seconds"`
	Setups     int     `json:"setups"`
	SimDigest  string  `json:"sim_digest"`
	TailPct    float64 `json:"scenario_tail_percentile"`
	TailN      int     `json:"scenario_tail_samples"`
	LatTailPct float64 `json:"detect_latency_tail_percentile"`
	LatN       int     `json:"detect_latency_samples"`
	SlackN     int     `json:"bound_slack_samples"`

	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // first 20
	Metrics   map[string]float64 `json:"metrics"`
	SpansFile string             `json:"spans_file,omitempty"`
}

func bench(cfg config, w workload) (*report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workers: cfg.workers, Prefix: cfg.prefix, Seconds: cfg.seconds,
		Metrics: map[string]float64{},
	}
	m := rep.Metrics
	fail := func(format string, args ...any) {
		rep.Failed++
		if len(rep.Failures) < 20 {
			rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
		}
	}

	// Set-up, repeated; every repetition must rebuild the same state.
	// Each starts on a collected heap, so that it does not pay for the
	// garbage of the one before, and follows refPerSetup samples of the
	// reference loop.
	var setupS, ref []float64
	var setupDigest uint64
	var setupTotal time.Duration
	setupRef := newRefLoop()
	for i := 0; i < minSetups || (setupTotal < minSetupTime && i < maxSetups); i++ {
		for range refPerSetup {
			ref = append(ref, setupRef.sample())
		}
		runtime.GC()
		d, o, err := setupOnce(w, nil)
		dig := o.Digest
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i == 0 {
			setupDigest = dig
			m["setup_cold_s"] = d.Seconds()
		} else if dig != setupDigest {
			fail("set-up %d digest %016x differs from the first %016x", i, dig, setupDigest)
		}
		setupS = append(setupS, d.Seconds())
		setupTotal += d
	}
	setupRef.stop()
	rep.Setups = len(setupS)
	m["setup_s"] = median(setupS)

	measured := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		if err := traced(rep, cfg, w, measured, setupDigest, fail); err != nil {
			return nil, err
		}
	} else {
		// Untraced phase: the end-to-end metrics.
		ph := runPhase(w, cfg.workers, 0, cfg.prefix, measured, false)
		rep.SimDigest = fmt.Sprintf("%016x", prefixDigest(setupDigest, ph.outcomes[:cfg.prefix]))
		rep.Attempted = len(ph.outcomes)
		countFailures(ph.outcomes, fail)
		endToEnd(rep, cfg, ph)
		// Host times at the reference speed.
		m["ref_loop_us"] = median(append(ref, ph.ref...)) / 1e3
		f := refNominalNs / 1e3 / m["ref_loop_us"]
		for _, k := range []string{"setup_s", "setup_cold_s", "scenario_ms_p50", "scenario_ms_tail"} {
			m[k] *= f
		}
		for _, k := range []string{"scenarios_per_s", "sim_events_per_s"} {
			m[k] /= f
		}
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
		}
	}
	return rep, nil
}

// prefixDigest folds the set-up digest and the prefix's scenario
// digests, in index order, into sim_digest.
func prefixDigest(setup uint64, outs []outcome) uint64 {
	h := fnv.New64a()
	b := binary.LittleEndian.AppendUint64(nil, setup)
	for _, o := range outs {
		b = binary.LittleEndian.AppendUint64(b, uint64(o.Index))
		b = binary.LittleEndian.AppendUint64(b, o.Digest)
	}
	h.Write(b)
	return h.Sum64()
}

func countFailures(outs []outcome, fail func(string, ...any)) {
	for _, o := range outs {
		if len(o.Fails) > 0 {
			fail("scenario %d: %s", o.Index, o.Fails[0])
		}
	}
}

// endToEnd computes the end-to-end metrics of the untraced phase. Host
// times are the process's CPU time while a scenario ran: a host that
// deschedules the benchmark stretches its wall time but not its cost
// (cpu_share says how much of the wall time the process got). With more
// than one worker a scenario's CPU time includes the other workers', so
// host metrics compare only at one worker, the default.
func endToEnd(rep *report, cfg config, ph phase) {
	m := rep.Metrics
	n := len(ph.outcomes)
	var events uint64
	var falseConv, failed int
	var cpu float64
	cpuMs := make([]float64, 0, n)
	for _, o := range ph.outcomes {
		events += o.Events
		falseConv += o.FalseConvictions
		if len(o.Fails) > 0 {
			failed++
		}
		cpuMs = append(cpuMs, float64(o.CPUNs)/1e6)
		cpu += float64(o.CPUNs) / 1e9
	}
	slices.Sort(cpuMs)
	m["scenarios_per_s"] = float64(n) / cpu
	m["scenario_ms_p50"] = percentile(cpuMs, 50)
	rep.TailPct, rep.TailN = scenarioTailPct, n
	m["scenario_ms_tail"] = percentile(cpuMs, rep.TailPct)
	m["sim_events_per_s"] = float64(events) / cpu
	m["cpu_share"] = ph.cpu.Seconds() / (ph.wall.Seconds() * float64(cfg.workers))
	m["failed_frac"] = float64(failed) / float64(n)
	m["false_convictions"] = float64(falseConv)

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	var lat []float64
	slack := math.Inf(1)
	for _, o := range ph.outcomes[:cfg.prefix] {
		if o.LatencyUs >= 0 {
			lat = append(lat, float64(o.LatencyUs)/1e3)
		}
		if o.HasSlack {
			rep.SlackN++
			slack = min(slack, o.SlackPct)
		}
	}
	slices.Sort(lat)
	rep.LatN = len(lat)
	rep.LatTailPct = tailFor(len(lat))
	m["detect_latency_ms_p50"] = percentile(lat, 50)
	m["detect_latency_ms_tail"] = percentile(lat, rep.LatTailPct)
	m["bound_slack_pct_min"] = slack
}

// traced runs the prefix with spans, kernel tracing and a CPU profile,
// and computes the per-layer metrics. It runs the prefix first, so that
// caches hold what they would in an untraced run, and then measures
// untraced scenarios past the prefix for the tracing overhead.
func traced(rep *report, cfg config, w workload, measured time.Duration, setupDigest uint64, fail func(string, ...any)) error {
	m := rep.Metrics
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	setupTr := newTracer(cfg.workers)
	_, setupOut, err := setupOnce(w, setupTr)
	dig := setupOut.Digest
	if err != nil {
		pprof.StopCPUProfile()
		return fmt.Errorf("traced set-up: %w", err)
	}
	hits0, misses0 := exp.SizingCacheStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph := runPhase(w, cfg.workers, 0, cfg.prefix, 0, true)
	runtime.ReadMemStats(&ms1)
	hits1, misses1 := exp.SizingCacheStats()
	pprof.StopCPUProfile()
	if dig != setupDigest {
		fail("traced set-up digest %016x differs from the untraced %016x", dig, setupDigest)
	}
	rep.SimDigest = fmt.Sprintf("%016x", prefixDigest(dig, ph.outcomes))
	untraced := runPhase(w, cfg.workers, cfg.prefix, cfg.prefix+1, measured, false)
	rep.Attempted = len(ph.outcomes) + len(untraced.outcomes)
	countFailures(ph.outcomes, fail)
	countFailures(untraced.outcomes, fail)

	// The per-layer counts and call times cover the traced set-up and
	// the prefix, so that work a set-up does for the scenarios, such as
	// generating their networks, is charged to its layer.
	var sum outcome
	for _, o := range slices.Concat(ph.outcomes, []outcome{setupOut}) {
		for c := range o.CallNs {
			sum.CallNs[c] += o.CallNs[c]
		}
		sum.HashNs += o.HashNs
		sum.Events += o.Events
		sum.Procs += o.Procs
		sum.Switches += o.Switches
		sum.Tokens += o.Tokens
		sum.HashBytes += o.HashBytes
		sum.SelWrites += o.SelWrites
		sum.SelDrops += o.SelDrops
		sum.ValueDrops += o.ValueDrops
		sum.Convictions += o.Convictions
		sum.Recoveries += o.Recoveries
		sum.Incomplete += o.Incomplete
		sum.FlightEvents += o.FlightEvents
	}
	sec := func(c call) float64 { return float64(sum.CallNs[c]) / 1e9 }
	m["des.run_s"] = sec(callRun)
	m["des.ns_per_event"] = float64(sum.CallNs[callRun]) / float64(max(sum.Events, 1))
	m["des.events"] = float64(sum.Events)
	m["des.procs"] = float64(sum.Procs)
	m["des.switches"] = float64(sum.Switches)
	m["kpn.build_s"] = sec(callBuild)
	m["kpn.hash_s"] = float64(sum.HashNs) / 1e9
	m["kpn.hash_bytes"] = float64(sum.HashBytes)
	m["kpn.tokens"] = float64(sum.Tokens)
	m["rtc.sizing_s"] = sec(callSizing)
	m["rtc.mkbounds_s"] = sec(callMKBounds)
	if calls := (hits1 - hits0) + (misses1 - misses0); calls > 0 {
		m["rtc.sizing_cache_hit_ratio"] = float64(hits1-hits0) / float64(calls)
	}
	m["topo.generate_s"] = sec(callGenerate)
	m["topo.compile_s"] = sec(callCompile)
	m["ft.build_s"] = sec(callFTBuild)
	m["ft.selector_writes"] = float64(sum.SelWrites)
	m["ft.selector_drops"] = float64(sum.SelDrops)
	m["ft.value_drops"] = float64(sum.ValueDrops)
	m["ft.convictions"] = float64(sum.Convictions)
	m["recover.recoveries"] = float64(sum.Recoveries)
	m["recover.incomplete"] = float64(sum.Incomplete)
	m["obs.flight_events"] = float64(sum.FlightEvents)
	m["obs.explain_s"] = sec(callExplain)
	m["obs.log_bytes_s"] = sec(callFlightBytes)
	m["go.alloc_bytes_per_scenario"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(ph.outcomes))
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["go.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9

	self, err := selfSeconds(prof.Bytes())
	if err != nil {
		return err
	}
	for _, mod := range modules {
		m[mod+".self_s"] = self[mod]
	}
	perUntraced := meanCPU(untraced.outcomes)
	perTraced := meanCPU(ph.outcomes)
	m["trace.overhead_pct"] = 100 * (perTraced/perUntraced - 1)

	base := filepath.Join(cfg.out, fmt.Sprintf("perfbench-%s-seed%d", cfg.workload, cfg.seed))
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return err
	}
	rep.SpansFile = base + ".spans.json"
	return writeSpans(rep.SpansFile, append(ph.tracers, setupTr))
}

// write prints the report — every metric with its unit, then the result
// line — and saves the full report as JSON beside the spans.
func (rep *report) write(cfg config, stdout io.Writer) error {
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%v nproc=%d gomaxprocs=%d workers=%d %s prefix=%d sim_digest=%s\n",
		rep.Workload, rep.Seed, rep.Trace, rep.NProc, rep.GOMAXPROCS, rep.Workers, rep.GoVersion, rep.Prefix, rep.SimDigest)
	fmt.Fprintf(stdout, "  scenario_ms_tail is p%g of %d scenarios; detect_latency_ms_tail is p%g of %d detections; bound slack over %d bounded detections\n",
		rep.TailPct, rep.TailN, rep.LatTailPct, rep.LatN, rep.SlackN)
	contract := map[string]map[string]any{}
	for _, mt := range catalogue {
		v, ok := rep.Metrics[mt.Name]
		if !ok || mt.Traced != rep.Trace {
			continue
		}
		list := "report only"
		if mt.Contract {
			list = mt.list()
			contract[mt.Name] = map[string]any{"value": v, "unit": mt.Unit}
		}
		fmt.Fprintf(stdout, "  %-30s %16.6g %-7s (%s)\n", mt.Name, v, mt.Unit, list)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(stdout, "  FAIL %s\n", f)
	}
	fmt.Fprintf(stdout, "  failed %d of %d scenarios attempted\n", rep.Failed, rep.Attempted)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("perfbench-%s-seed%d-trace%d.json", rep.Workload, rep.Seed, boolInt(rep.Trace)))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   contract,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// meanCPU is the mean CPU time of a scenario in ns.
func meanCPU(outs []outcome) float64 {
	var sum int64
	for _, o := range outs {
		sum += o.CPUNs
	}
	return float64(sum) / float64(len(outs))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
