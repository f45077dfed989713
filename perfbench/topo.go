package main

import (
	"sync"

	"ftpn/internal/apps"
	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/topo"
)

// seedStride separates the generator seed windows of two benchmark
// seeds, so different --seed values draw disjoint networks.
const seedStride = 1_000_000

// seedPool hands each scenario index the generator seed of its network.
// Scenario i runs the next network of class classes[i % len(classes)]
// that passes keep, so every class runs equally often whatever its
// share of topo.Generate's draws. Set-up scans the generator for the
// deterministic prefix; a scenario past the prefix scans further. The
// pool keeps seeds, not specs: thousands of retained specs would have
// the garbage collector scan them in every cycle, which is the
// benchmark's cost, not the program's.
type seedPool struct {
	base    int64
	classes []string
	keep    func(*topo.Spec) bool // nil keeps every spec of a class

	mu    sync.Mutex
	seeds map[string][]int64 // by class, in scan order
	next  int64              // next generator seed to scan
}

// fill rescans from scratch for the first n scenarios and returns their
// seeds.
func (p *seedPool) fill(n int) []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seeds, p.next = map[string][]int64{}, p.base
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = p.seedLocked(i)
	}
	return seeds
}

// seedFor returns the generator seed of scenario i.
func (p *seedPool) seedFor(i int) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seedLocked(i)
}

func (p *seedPool) seedLocked(i int) int64 {
	class, j := p.classes[i%len(p.classes)], i/len(p.classes)
	for len(p.seeds[class]) <= j {
		spec := topo.Generate(p.next)
		if p.keep == nil || p.keep(spec) {
			p.seeds[spec.Scenario] = append(p.seeds[spec.Scenario], p.next)
		}
		p.next++
	}
	return p.seeds[class][j]
}

// topoWL runs networks of all six scenario classes in turn, each under
// its spec's own detection policy: fresh sizing, the (m,k) bounds for
// m = 0..2, a fault-free golden run and a scripted fault run. Payloads
// are synthetic, so no codec work runs, and nothing recovers.
type topoWL struct {
	pool   *seedPool
	prefix int
}

// topoClasses are the scenario classes topo cycles through.
var topoClasses = []string{topo.ScenarioFaultFree, topo.ScenarioStop, topo.ScenarioDegrade,
	topo.ScenarioDrop, topo.ScenarioCorrupt, topo.ScenarioBurst}

// setup scans the generator for the networks of the deterministic
// prefix.
func (w *topoWL) setup(s *scen) error {
	t := s.begin()
	seeds := w.pool.fill(w.prefix)
	s.end(callGenerate, t)
	for _, seed := range seeds {
		s.i64(seed)
	}
	return nil
}

// modelApp adapts a compiled model into an exp.App, so exp's sizing and
// bound analysis apply to it unchanged.
func modelApp(model *topo.Model) exp.App {
	return exp.App{
		Name: model.Spec.Name,
		Build: func(sink apps.Sink) (*kpn.Network, error) {
			return model.Build(topo.Sink(sink))
		},
		Producer:      model.ProducerModel(),
		Consumer:      model.ConsumerModel(),
		InModel:       model.InModel,
		OutModel:      model.OutModel,
		InChan:        model.InChan,
		OutChan:       model.OutChan,
		Tokens:        model.Tokens(),
		PeriodUs:      model.PeriodUs(),
		InTokenBytes:  model.InTokenBytes,
		OutTokenBytes: model.OutTokenBytes,
		OutInit:       model.OutInit,
	}
}

// valueCheck is the replay cross-check against a golden consumer
// stream: selector pair p corresponds to golden token nPre+p-1. It
// fails only on a same-Seq payload mismatch; a Seq skew belongs to the
// timing detectors (ft.ValueCheck's contract).
func valueCheck(golden []tokenID, sizing exp.Sizing) ft.ValueCheck {
	nPre := int64(max(sizing.SelInits[0], sizing.SelInits[1]))
	return func(pair int64, tok kpn.Token) bool {
		idx := nPre + pair - 1
		if idx < 0 || idx >= int64(len(golden)) || golden[idx].seq != tok.Seq {
			return true
		}
		return golden[idx].hash == tok.Hash()
	}
}

// policyM is the violation budget of a policy: m for (m,k), 0 otherwise.
func policyM(pol ft.PolicySpec) int {
	if pol.Kind == ft.PolicyMK {
		return pol.M
	}
	return 0
}

func (w *topoWL) scenario(s *scen) {
	t := s.begin()
	spec := topo.Generate(w.pool.seedFor(s.idx))
	s.end(callGenerate, t)
	s.str(spec.Name)
	pol := ft.PolicySpec{}
	if spec.Detection != nil {
		pol = *spec.Detection
	}
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

	// The (m,k) bounds reproduce the sizing at m = 0 and grow with m.
	var bm exp.MKBounds
	var prev exp.MKBounds
	for m := 0; m <= max(2, polM); m++ {
		t = s.begin()
		b, err := exp.MKDetectionBounds(app, sizing, m)
		s.end(callMKBounds, t)
		if err != nil {
			s.fail("mk bounds m=%d: %v", m, err)
			return
		}
		if m == 0 && (b.SelBoundUs != sizing.SelBoundUs || b.RepBoundUs != sizing.RepBoundUs) {
			s.fail("MKDetectionBounds(0) = (%d,%d), sizing bounds (%d,%d)",
				b.SelBoundUs, b.RepBoundUs, sizing.SelBoundUs, sizing.RepBoundUs)
		}
		if m > 0 && (b.SelBoundUs < prev.SelBoundUs || b.RepBoundUs < prev.RepBoundUs) {
			s.fail("mk bounds not monotone at m=%d", m)
		}
		if m == polM {
			bm = b
		}
		prev = b
		s.i64(b.SelBoundUs)
		s.i64(b.RepBoundUs)
	}

	// Fault-free golden run under the timing policy: the sizing admits
	// zero convictions and both replicas write the full workload.
	timingPol := pol
	timingPol.Value = false
	var golden []tokenID
	sys := w.runOnce(s, app, sizing, timingPol, nil, &golden, nil)
	if sys == nil {
		return
	}
	t = s.begin()
	s.stream(golden)
	s.system(sys)
	if len(sys.Faults) != 0 {
		f := sys.Faults[0]
		s.out.FalseConvictions += len(sys.Faults)
		s.fail("fault-free run convicted R%d at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
	}
	if int64(len(golden)) != spec.Tokens {
		s.fail("fault-free consumer stream %d of %d tokens", len(golden), spec.Tokens)
	}
	for r := 1; r <= 2; r++ {
		if wr := sys.Selectors[app.OutChan].Writes(r); wr != spec.Tokens {
			s.fail("fault-free replica R%d wrote %d of %d tokens", r, wr, spec.Tokens)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		s.fail("fault-free counter invariants: %v", err)
	}
	s.end(callCheck, t)
	if len(spec.Faults) == 0 {
		return
	}

	// Scripted fault run under the full policy.
	fs := spec.Faults[0]
	mode, ok := fault.ModeByName(fs.Mode)
	if !ok {
		s.fail("unknown fault mode %q", fs.Mode)
		return
	}
	var check ft.ValueCheck
	if pol.Value {
		check = valueCheck(golden, sizing)
	}
	var stream []tokenID
	sys = w.runOnce(s, app, sizing, pol, check, &stream, model)
	if sys == nil {
		return
	}
	t = s.begin()
	defer s.end(callCheck, t)
	s.stream(stream)
	s.system(sys)
	if d := sameStream(stream, golden); d != "" {
		s.fail("fault run: %s", d)
	}
	transient := fs.RepairAtUs > 0
	healthy := 3 - fs.Replica
	for _, f := range sys.Faults {
		if f.Replica == healthy || transient {
			s.out.FalseConvictions++
			s.fail("%s fault: R%d convicted at %dus (%s on %s)", fs.Mode, f.Replica, f.At, f.Reason, f.Channel)
		}
	}
	if wr := sys.Selectors[app.OutChan].Writes(healthy); wr != spec.Tokens {
		s.fail("Lemma 1: healthy replica R%d wrote %d of %d tokens", healthy, wr, spec.Tokens)
	}
	if !transient {
		injectAt := des.Time(fs.AtUs)
		first, ok := sys.FirstFault(fs.Replica)
		if !ok || first.At < injectAt {
			s.fail("%s fault injected at %dus was never detected", fs.Mode, injectAt)
		} else {
			latency := first.At - injectAt
			s.out.LatencyUs = latency
			if bound := stopBound(mode, bm); bound > 0 {
				s.out.HasSlack = true
				s.out.SlackPct = 100 * float64(bound-latency) / float64(bound)
				if latency > bound {
					s.fail("detection latency %dus exceeds the m=%d bound %dus (%s)", latency, polM, bound, fs.Mode)
				}
			}
			if mode == fault.Corrupt && first.Kind != ft.KindValue {
				s.fail("corruption detected as %s, want a value conviction", first.Kind)
			}
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		s.fail("fault-run counter invariants: %v", err)
	}
}

// runOnce builds and runs the duplicated system once; with a model it
// applies the spec's fault script. It returns nil after a failure.
func (w *topoWL) runOnce(s *scen, app exp.App, sizing exp.Sizing, pol ft.PolicySpec,
	check ft.ValueCheck, stream *[]tokenID, model *topo.Model) *ft.System {
	t := s.begin()
	net, err := app.Build(s.sink(stream))
	s.end(callBuild, t)
	if err != nil {
		s.fail("build: %v", err)
		return nil
	}
	cfg := sizing.BuildConfig(app)
	cfg.Policy = pol
	if check != nil {
		cfg.ValueCheck = map[string]ft.ValueCheck{app.OutChan: check}
	}
	k := s.kernel()
	t = s.begin()
	sys, err := ft.Build(k, net, cfg)
	s.end(callFTBuild, t)
	if err != nil {
		s.fail("ft build: %v", err)
		return nil
	}
	if model != nil {
		t = s.begin()
		model.ApplyFaults(sys)
		s.end(callApplyFaults, t)
	}
	s.run(k)
	return sys
}
