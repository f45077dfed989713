package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"syscall"
	"time"
)

// call names one timed public call. Every span the benchmark records
// is one of these, and each belongs to exactly one module, so a span's
// duration is that module's busy time.
type call int

const (
	callScenario    call = iota // root span of one scenario (or one set-up)
	callScenarioFor             // exp.ScenarioFor
	callAppByName               // exp.AppByName
	callGenerate                // topo.Generate (including the stop-seed scan)
	callCompile                 // topo.Compile
	callSizing                  // exp.SizingFor
	callMKBounds                // exp.MKDetectionBounds
	callBuild                   // App.Build / Model.Build
	callNewKernel               // des.NewKernel
	callFTBuild                 // ft.Build
	callNewManager              // recover.NewManager
	callInstrument              // ft.InstrumentFlight
	callApplyFaults             // Model.ApplyFaults / System.InjectFault
	callRun                     // des.Kernel.Run (minus the sink's Token.Hash time)
	callShutdown                // des.Kernel.Shutdown
	callExplain                 // obs.FlightRecorder.Events + obs.Explain
	callFlightBytes             // obs.FlightRecorder.Bytes
	callCheck                   // the benchmark's own output checks
	numCalls
)

var callNames = [numCalls]string{
	callScenario:    "scenario",
	callScenarioFor: "exp.ScenarioFor",
	callAppByName:   "exp.AppByName",
	callGenerate:    "topo.Generate",
	callCompile:     "topo.Compile",
	callSizing:      "exp.SizingFor",
	callMKBounds:    "exp.MKDetectionBounds",
	callBuild:       "kpn.Build",
	callNewKernel:   "des.NewKernel",
	callFTBuild:     "ft.Build",
	callNewManager:  "recover.NewManager",
	callInstrument:  "ft.InstrumentFlight",
	callApplyFaults: "ft.InjectFault",
	callRun:         "des.Kernel.Run",
	callShutdown:    "des.Kernel.Shutdown",
	callExplain:     "obs.Explain",
	callFlightBytes: "obs.FlightRecorder.Bytes",
	callCheck:       "bench.check",
}

// epoch anchors span timestamps; time.Since reads the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// cpuNow reads the process's CPU time: user plus system time of all its
// threads, the garbage collector's included. Time the host gives to
// other processes does not count, so a scenario measured with it costs
// the same whether or not the host descheduled the benchmark meanwhile.
// Linux keeps the sum exact and reports it in microseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// span is one timed call. Scenario is the scenario index (-1 for
// set-up), Parent the id of the enclosing span (0 for a root).
type span struct {
	ID, Parent int64
	Scenario   int
	Worker     int
	Call       call
	Start, End int64
	HashNs     int64 // Token.Hash time nested in a des.Kernel.Run span
}

// tracer keeps one worker's spans in memory until the run ends.
type tracer struct {
	worker int
	nextID int64
	spans  []span
}

func newTracer(worker int) *tracer {
	return &tracer{worker: worker, nextID: int64(worker+1) << 40}
}

// reserve allocates a span id ahead of the span, so children recorded
// before their parent ends can name it.
func (t *tracer) reserve() int64 {
	t.nextID++
	return t.nextID
}

// add records a span, allocating its id unless reserved.
func (t *tracer) add(sp span) {
	if sp.ID == 0 {
		sp.ID = t.reserve()
	}
	sp.Worker = t.worker
	t.spans = append(t.spans, sp)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeSpans writes every worker's spans as one Chrome trace file.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "{\"traceEvents\":[\n")
	first := true
	for _, t := range tracers {
		for _, sp := range t.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			args := map[string]any{"span": sp.ID, "parent": sp.Parent, "scenario": sp.Scenario}
			if sp.HashNs > 0 {
				args["hash_ns"] = sp.HashNs
			}
			if err := enc.Encode(chromeEvent{
				Name: callNames[sp.Call], Ph: "X",
				Ts: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
				Pid: 1, Tid: sp.Worker, Args: args,
			}); err != nil {
				f.Close()
				return fmt.Errorf("spans: %w", err)
			}
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
