package main

import (
	"fmt"

	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/recover"
)

// campaign runs exp.ScenarioFor(seed, i) over the four paper apps with
// the inline (paper) detector: inject, detect, recover, re-integrate,
// second fault, and a golden-stream check through Token.Hash. Codec
// payloads are memoised per cell, so codec work happens in set-up only.
type campaign struct {
	seed    int64
	goldens map[cell]*golden
}

// cell is one (app, jitter tier, workload length) combination that
// exp.ScenarioFor draws; each gets one golden run in set-up.
type cell struct {
	app       string
	minJitter bool
	tokens    int64
}

// golden is a cell's fault-free reference. Its App is shared by every
// scenario of the cell, so all of them share the cell's payload memo.
type golden struct {
	app    exp.App
	sizing exp.Sizing
	stream []tokenID
}

// campaignCells is how many cells exp.ScenarioFor draws from: four apps
// times two jitter tiers.
const campaignCells = 8

// campaignPolicy is the inline detector of the paper; its violation
// budget is m = 0.
var campaignPolicy = ft.PolicySpec{}

func (w *campaign) setup(s *scen) error {
	// Find the cells by drawing scenarios, so the goldens match what
	// ScenarioFor produces whatever its app table holds.
	var cells []cell
	seen := map[cell]bool{}
	for i := 0; len(cells) < campaignCells && i < 100000; i++ {
		t := s.begin()
		sc := exp.ScenarioFor(w.seed, i)
		s.end(callScenarioFor, t)
		c := cell{sc.App, sc.MinJitter, sc.Tokens}
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	if len(cells) < campaignCells {
		return fmt.Errorf("campaign: found %d of %d cells", len(cells), campaignCells)
	}
	w.goldens = make(map[cell]*golden, len(cells))
	for _, c := range cells {
		t := s.begin()
		app, err := exp.AppByName(c.app, c.minJitter, c.tokens)
		s.end(callAppByName, t)
		if err != nil {
			return err
		}
		t = s.begin()
		sizing, err := exp.SizingFor(app)
		s.end(callSizing, t)
		if err != nil {
			return err
		}
		g := &golden{app: app, sizing: sizing}
		t = s.begin()
		net, err := app.Build(s.sink(&g.stream))
		s.end(callBuild, t)
		if err != nil {
			return err
		}
		k := s.kernel()
		t = s.begin()
		sys, err := ft.Build(k, net, sizing.BuildConfig(app))
		s.end(callFTBuild, t)
		if err != nil {
			return err
		}
		s.run(k)
		if len(sys.Faults) != 0 {
			return fmt.Errorf("campaign: golden run of %s convicted %v", c.app, sys.Faults[0])
		}
		s.str(c.app)
		s.stream(g.stream)
		w.goldens[c] = g
	}
	return nil
}

func (w *campaign) scenario(s *scen) {
	t := s.begin()
	sc := exp.ScenarioFor(w.seed, s.idx)
	s.end(callScenarioFor, t)
	g := w.goldens[cell{sc.App, sc.MinJitter, sc.Tokens}]
	if g == nil {
		s.fail("no golden for cell %s/%v/%d", sc.App, sc.MinJitter, sc.Tokens)
		return
	}
	app := g.app

	t = s.begin()
	sizing, err := exp.SizingFor(app)
	s.end(callSizing, t)
	if err != nil {
		s.fail("sizing: %v", err)
		return
	}
	t = s.begin()
	bounds, err := exp.MKDetectionBounds(app, sizing, campaignPolicy.M)
	s.end(callMKBounds, t)
	if err != nil {
		s.fail("mk bounds: %v", err)
		return
	}

	var stream []tokenID
	t = s.begin()
	net, err := app.Build(s.sink(&stream))
	s.end(callBuild, t)
	if err != nil {
		s.fail("build: %v", err)
		return
	}
	k := s.kernel()
	cfg := sizing.BuildConfig(app)
	cfg.Policy = campaignPolicy
	t = s.begin()
	sys, err := ft.Build(k, net, cfg)
	s.end(callFTBuild, t)
	if err != nil {
		s.fail("ft build: %v", err)
		return
	}
	t = s.begin()
	mgr := recover.NewManager(sys, recover.Plan{Delay: sc.DelayUs, MaxRecoveries: 1})
	s.end(callNewManager, t)

	// The second fault lands a settle time after the first recovery,
	// unless too little stream remains for another detection arc.
	target2 := sc.Replica
	if sc.SecondOther {
		target2 = 3 - sc.Replica
	}
	streamEnd := des.Time(sc.Tokens) * app.PeriodUs
	var inject2At des.Time = -1
	mode2, _ := fault.ModeByName(sc.SecondMode)
	mgr.OnRecovered = func(ev recover.Event) {
		if ev.Replica != sc.Replica || inject2At >= 0 {
			return
		}
		at := ev.RecoveredAt + sc.SettleUs
		if at > streamEnd-25*app.PeriodUs {
			return
		}
		inject2At = at
		sys.InjectFault(target2, at, mode2, 0)
	}
	mode, ok := fault.ModeByName(sc.Mode)
	if !ok {
		s.fail("unknown fault mode %q", sc.Mode)
		return
	}
	t = s.begin()
	sys.InjectFault(sc.Replica, sc.InjectUs, mode, sc.ExtraUs)
	s.end(callApplyFaults, t)
	s.run(k)

	t = s.begin()
	defer s.end(callCheck, t)
	s.stream(stream)
	s.system(sys)
	s.i64(inject2At)

	// Exact masking: token-identical to the cell's golden stream.
	if d := sameStream(stream, g.stream); d != "" {
		s.fail("%s", d)
	}

	// Exactly one complete recovery of the first target.
	recoveredAt := des.Time(-1)
	events := mgr.Events()
	s.out.Recoveries += len(events)
	for _, ev := range events {
		s.i64(int64(ev.Replica))
		s.i64(ev.DetectedAt)
		s.i64(ev.RecoveredAt)
		if !ev.Complete {
			s.out.Incomplete++
		}
		if ev.Replica == sc.Replica && recoveredAt < 0 {
			recoveredAt = ev.RecoveredAt
			if !ev.Complete {
				s.fail("re-integration of R%d incomplete on some channel", sc.Replica)
			}
		}
	}

	// Zero false convictions: the healthy replica is convicted only by
	// a second fault aimed at it, and the recovered replica only by a
	// second fault aimed back at it.
	healthy := 3 - sc.Replica
	for _, f := range sys.Faults {
		switch f.Replica {
		case sc.Replica:
			if recoveredAt >= 0 && f.At > recoveredAt && (inject2At < 0 || sc.SecondOther || f.At < inject2At) {
				s.out.FalseConvictions++
				s.fail("R%d re-convicted at %dus inside the recovered window (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
			}
		case healthy:
			if !sc.SecondOther || inject2At < 0 || f.At < inject2At {
				s.out.FalseConvictions++
				s.fail("healthy replica R%d convicted at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
			}
		}
	}

	// Detection, within the policy's own (m,k) bound for stop modes.
	first, ok := sys.FirstFault(sc.Replica)
	if !ok || first.At < sc.InjectUs {
		s.fail("fault injected at %dus was never detected", sc.InjectUs)
	} else {
		latency := first.At - sc.InjectUs
		s.out.LatencyUs = latency
		if bound := stopBound(mode, bounds); bound > 0 {
			s.out.HasSlack = true
			s.out.SlackPct = 100 * float64(bound-latency) / float64(bound)
			if latency > bound {
				s.fail("detection latency %dus exceeds the m=%d bound %dus (%s)", latency, campaignPolicy.M, bound, sc.Mode)
			}
		}
		if recoveredAt < 0 {
			s.fail("detected fault was never recovered")
		}
	}
	if n := len(events); n > 2 || (!sc.SecondOther && n > 1) {
		s.fail("%d recoveries, the plan allows at most one per replica", n)
	}

	// Redundancy was restored: the second fault is detected too.
	if inject2At >= 0 {
		detected := false
		for _, f := range sys.Faults {
			if f.Replica == target2 && f.At >= inject2At {
				detected = true
				s.i64(f.At)
				break
			}
		}
		if !detected {
			s.fail("second fault on R%d at %dus was not detected", target2, inject2At)
		}
	}

	// Lemma 1: the healthy replica writes the full workload.
	if !sc.SecondOther {
		if wr := sys.Selectors[app.OutChan].Writes(healthy); wr != sc.Tokens {
			s.fail("healthy replica wrote %d of %d tokens (back-pressured)", wr, sc.Tokens)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		s.fail("counter invariants: %v", err)
	}
}

// stopBound is the detection bound a stop mode is held to: a
// producer-side stop starves the selector, a consumer-side stop backs
// up the replicator queue, a full stop trips whichever fires first.
// Other modes have no analytic bound (0).
func stopBound(mode fault.Mode, b exp.MKBounds) des.Time {
	switch mode {
	case fault.StopAll:
		return min(b.SelBoundUs, b.RepBoundUs)
	case fault.StopProducing:
		return b.SelBoundUs
	case fault.StopConsuming:
		return b.RepBoundUs
	}
	return 0
}
