package main

import (
	"hash/fnv"

	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/obs"
	"ftpn/internal/topo"
)

// forensics runs permanent stop scenarios scanned from topo.Generate
// with the flight recorder armed, and requires obs.Explain to
// reconstruct each conviction's injection, latency and fault mode from
// the event log alone. It has no consumer sink.
type forensics struct {
	pool   *seedPool // permanent stops only
	prefix int
}

// isStop reports whether a spec is a permanent fail-silent stop: the
// fault class with an analytic detection bound.
func isStop(spec *topo.Spec) bool {
	return spec.Scenario == topo.ScenarioStop && len(spec.Faults) > 0 && spec.Faults[0].RepairAtUs == 0
}

// setup scans the generator for the stops of the deterministic prefix,
// as latbench does before its runs.
func (w *forensics) setup(s *scen) error {
	t := s.begin()
	seeds := w.pool.fill(w.prefix)
	s.end(callGenerate, t)
	for _, seed := range seeds {
		s.i64(seed)
	}
	return nil
}

func (w *forensics) scenario(s *scen) {
	t := s.begin()
	spec := topo.Generate(w.pool.seedFor(s.idx))
	s.end(callGenerate, t)
	s.str(spec.Name)
	fs := spec.Faults[0]
	mode, ok := fault.ModeByName(fs.Mode)
	if !ok {
		s.fail("unknown fault mode %q", fs.Mode)
		return
	}
	pol := ft.PolicySpec{}
	if spec.Detection != nil {
		pol = *spec.Detection
	}
	pol.Value = false // a stop is a timing fault; there is no golden to replay
	polM := policyM(pol)

	t = s.begin()
	model, err := topo.Compile(spec)
	s.end(callCompile, t)
	if err != nil {
		s.fail("compile: %v", err)
		return
	}
	app := modelApp(model)
	t = s.begin()
	sizing, err := exp.SizingFor(app)
	s.end(callSizing, t)
	if err != nil {
		s.fail("sizing: %v", err)
		return
	}
	t = s.begin()
	bounds, err := exp.MKDetectionBounds(app, sizing, polM)
	s.end(callMKBounds, t)
	if err != nil {
		s.fail("mk bounds: %v", err)
		return
	}

	fr := obs.NewFlightRecorder(0)
	st := fr.Stream(0)
	t = s.begin()
	net, err := app.Build(nil)
	s.end(callBuild, t)
	if err != nil {
		s.fail("build: %v", err)
		return
	}
	cfg := sizing.BuildConfig(app)
	cfg.Policy = pol
	k := s.kernel()
	t = s.begin()
	sys, err := ft.Build(k, net, cfg)
	s.end(callFTBuild, t)
	if err != nil {
		s.fail("ft build: %v", err)
		return
	}
	t = s.begin()
	ft.InstrumentFlight(sys, st)
	s.end(callInstrument, t)
	injectAt := des.Time(fs.AtUs)
	st.Record(obs.FlightEvent{At: fs.AtUs, Kind: obs.FlightInject, Reason: fs.Mode, Replica: fs.Replica})
	t = s.begin()
	model.ApplyFaults(sys)
	s.end(callApplyFaults, t)
	s.run(k)

	t = s.begin()
	events := fr.Events()
	first, detected := sys.FirstFault(fs.Replica)
	var ex obs.Explanation
	explained := false
	if detected {
		ex, explained = obs.Explain(events, first.Channel, first.Replica, first.At)
	}
	s.end(callExplain, t)
	t = s.begin()
	logBytes := fr.Bytes()
	s.end(callFlightBytes, t)

	t = s.begin()
	defer s.end(callCheck, t)
	s.out.FlightEvents += fr.Len()
	h := fnv.New64a()
	h.Write(logBytes)
	s.u64(h.Sum64())
	s.system(sys)

	healthy := 3 - fs.Replica
	for _, f := range sys.Faults {
		if f.Replica == healthy {
			s.out.FalseConvictions++
			s.fail("healthy replica R%d convicted at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
		}
	}
	if wr := sys.Selectors[app.OutChan].Writes(healthy); wr != spec.Tokens {
		s.fail("Lemma 1: healthy replica R%d wrote %d of %d tokens", healthy, wr, spec.Tokens)
	}
	if err := sys.CheckInvariants(); err != nil {
		s.fail("counter invariants: %v", err)
	}
	if !detected || first.At < injectAt {
		s.fail("%s fault injected at %dus was never detected", fs.Mode, injectAt)
		return
	}
	latency := first.At - injectAt
	s.out.LatencyUs = latency
	if bound := stopBound(mode, bounds); bound > 0 {
		s.out.HasSlack = true
		s.out.SlackPct = 100 * float64(bound-latency) / float64(bound)
		if latency > bound {
			s.fail("detection latency %dus exceeds the m=%d bound %dus (%s)", latency, polM, bound, fs.Mode)
		}
	}

	// The forensic chain must agree with what the benchmark measured.
	if !explained {
		s.fail("forensics: no convict event in the flight log")
		return
	}
	if ex.InjectedAt != fs.AtUs {
		s.fail("forensics: injection reconstructed at %dus, injected at %dus", ex.InjectedAt, fs.AtUs)
	}
	if ex.LatencyUs != latency {
		s.fail("forensics: latency reconstructed as %dus, measured %dus", ex.LatencyUs, latency)
	}
	if ex.FaultMode != fs.Mode {
		s.fail("forensics: fault mode reconstructed as %q, injected %q", ex.FaultMode, fs.Mode)
	}
	s.i64(ex.ConvictedAt)
	s.i64(int64(len(ex.Chain)))
}
