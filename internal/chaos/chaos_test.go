package chaos

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/rng"
)

func TestInjectorAppliesCrashesAndLeaks(t *testing.T) {
	g := gen.Path(5)
	plan := Merge(
		Plan{Crashes: energy.FailurePlan{{Time: 1, Node: 2}, {Time: 3, Node: 4}}},
		Plan{Leaks: []Leak{{Time: 0, Node: 0, Amount: 2}, {Time: 2, Node: 1, Amount: 99}}},
	)
	net := energy.NewNetwork(g, energy.Uniform(g, 3))
	in := plan.Injector()

	if d := in.Inject(net, 0); d != 0 {
		t.Fatalf("slot 0: %d deaths, want 0", d)
	}
	if net.Residual[0] != 1 {
		t.Fatalf("slot 0: node 0 residual %d, want 1 (leak of 2)", net.Residual[0])
	}
	if d := in.Inject(net, 1); d != 1 || net.Alive[2] {
		t.Fatalf("slot 1: want node 2 dead, 1 death; got deaths=%d alive=%v", d, net.Alive[2])
	}
	if d := in.Inject(net, 2); d != 0 {
		t.Fatalf("slot 2: %d deaths, want 0", d)
	}
	if net.Residual[1] != 0 {
		t.Fatalf("slot 2: leak must clamp at 0, residual %d", net.Residual[1])
	}
	if d := in.Inject(net, 3); d != 1 || net.Alive[4] {
		t.Fatalf("slot 3: want node 4 dead")
	}
}

func TestInjectorCountsOnlyAliveKills(t *testing.T) {
	g := gen.Path(3)
	plan := Plan{Crashes: energy.FailurePlan{{Time: 0, Node: 1}, {Time: 0, Node: 1}}}
	net := energy.NewNetwork(g, energy.Uniform(g, 1))
	if d := plan.Injector().Inject(net, 0); d != 1 {
		t.Fatalf("double-kill counted %d deaths, want 1", d)
	}
}

func TestInjectorRelabel(t *testing.T) {
	plan := Plan{
		Crashes: energy.FailurePlan{{Time: 1, Node: 1}, {Time: 2, Node: 2}, {Time: 3, Node: 4}, {Time: 4, Node: 5}},
		Leaks:   []Leak{{Time: 1, Node: 3, Amount: 1}, {Time: 2, Node: 2, Amount: 1}, {Time: 3, Node: 5, Amount: 2}, {Time: 4, Node: 0, Amount: 1}},
	}
	orig := Plan{
		Crashes: slices.Clone(plan.Crashes),
		Leaks:   slices.Clone(plan.Leaks),
	}
	mem := &obs.Memory{}
	in := plan.Injector().WithHooks(obs.Hooks{Trace: mem})
	net := energy.NewNetwork(gen.Path(6), energy.Uniform(gen.Path(6), 3))
	if d := in.Inject(net, 1); d != 1 || net.Alive[1] || net.Residual[3] != 2 {
		t.Fatalf("slot 1: deaths %d, alive %v, residual %v", d, net.Alive, net.Residual)
	}

	// The first delta removes node 2 and shifts 3, 4, 5 down by one. The
	// slot-1 events are applied already; node 2's slot-2 events are dropped.
	in.Relabel([]int{0, 1, -1, 2, 3, 4})
	net = energy.NewNetwork(gen.Path(5), energy.Uniform(gen.Path(5), 3))
	if d := in.Inject(net, 2); d != 0 || net.AliveCount() != 5 || net.TotalResidual() != 15 {
		t.Fatalf("slot 2 after relabel: deaths %d, alive %v, residual %v; want nothing applied",
			d, net.Alive, net.Residual)
	}

	// The second delta removes node 0 (original 0) and adds node 4. The
	// chained relabels put original 4 on node 2 and original 5 on node 3;
	// original 0's leak is dropped and never reaches the added node.
	in.Relabel([]int{-1, 0, 1, 2, 3})
	net = energy.NewNetwork(gen.Path(5), energy.Uniform(gen.Path(5), 3))
	deaths := in.Inject(net, 3) + in.Inject(net, 4)
	if deaths != 2 || net.Alive[2] || net.Alive[3] || !net.Alive[4] {
		t.Fatalf("slots 3-4: deaths %d, alive %v; want nodes 2 and 3 dead", deaths, net.Alive)
	}
	if !slices.Equal(net.Residual, []int{3, 3, 3, 1, 3}) {
		t.Fatalf("slots 3-4: residual %v; want original 5's leak of 2 on node 3 only", net.Residual)
	}
	var got []string
	for _, ev := range mem.Events {
		got = append(got, fmt.Sprintf("%s t=%d node=%d", ev.Type, ev.T, ev.Node))
	}
	want := []string{"crash t=1 node=1", "leak t=1 node=3", "crash t=3 node=2", "leak t=3 node=3", "crash t=4 node=3"}
	if !slices.Equal(got, want) {
		t.Fatalf("events %q, want %q", got, want)
	}

	// The plan is untouched: a second injector replays the original IDs.
	if !reflect.DeepEqual(plan, orig) {
		t.Fatalf("Relabel modified the plan: %+v, want %+v", plan, orig)
	}
	net = energy.NewNetwork(gen.Path(6), energy.Uniform(gen.Path(6), 3))
	if d := plan.Injector().Inject(net, 4); d != 4 || !slices.Equal(net.Residual, []int{2, 3, 2, 2, 3, 1}) {
		t.Fatalf("replay: deaths %d, residual %v; want 4 and [2 3 2 2 3 1]", d, net.Residual)
	}
}

func TestMergeSortsAndComposes(t *testing.T) {
	a := Plan{Crashes: energy.FailurePlan{{Time: 5, Node: 1}}}
	b := Plan{Crashes: energy.FailurePlan{{Time: 2, Node: 0}}, Leaks: []Leak{{Time: 9, Node: 0, Amount: 1}, {Time: 1, Node: 2, Amount: 1}}}
	c := FlatLoss(0.5, rng.New(1))
	m := Merge(a, b, c)
	if len(m.Crashes) != 2 || m.Crashes[0].Time != 2 || m.Crashes[1].Time != 5 {
		t.Fatalf("crashes not merged/sorted: %+v", m.Crashes)
	}
	if len(m.Leaks) != 2 || m.Leaks[0].Time != 1 {
		t.Fatalf("leaks not sorted: %+v", m.Leaks)
	}
	if m.Radio == nil {
		t.Fatal("radio lost in merge")
	}
}

func TestFlatLossRate(t *testing.T) {
	r := FlatLoss(0.3, rng.New(7)).Radio
	dropped := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if r.Drop(0, 1, i) {
			dropped++
		}
	}
	got := float64(dropped) / trials
	if got < 0.27 || got > 0.33 {
		t.Fatalf("flat loss rate %.3f far from 0.3", got)
	}
}

func TestGilbertElliottIsBursty(t *testing.T) {
	// Good state lossless, bad state always drops, slow transitions: losses
	// must arrive in runs, so consecutive outcomes correlate far more than
	// an independent process with the same marginal rate.
	r := BurstyLoss(0, 1, 0.05, 0.2, rng.New(3)).Radio
	const n = 30000
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = r.Drop(0, 1, i)
	}
	same := 0
	for i := 1; i < n; i++ {
		if out[i] == out[i-1] {
			same++
		}
	}
	if frac := float64(same) / float64(n-1); frac < 0.8 {
		t.Fatalf("consecutive-agreement %.3f: losses not bursty", frac)
	}
}

func TestGilbertElliottPerLinkState(t *testing.T) {
	ge := BurstyLoss(0, 1, 0.5, 0.5, rng.New(4)).Radio.(*GilbertElliott)
	for i := 0; i < 100; i++ {
		ge.Drop(0, 1, i)
		ge.Drop(1, 0, i)
	}
	if len(ge.links) != 2 {
		t.Fatalf("expected independent state per directed link, have %d entries", len(ge.links))
	}
}

func TestParseSpec(t *testing.T) {
	g := gen.GNP(40, 0.2, rng.New(1))
	plan, err := ParseSpec("crash=5, blackout=2x2, leak=3x2, loss=0.1", g, 20, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Crashes) < 5 {
		t.Fatalf("expected >= 5 crashes, got %d", len(plan.Crashes))
	}
	if len(plan.Leaks) != 3 {
		t.Fatalf("expected 3 leaks, got %d", len(plan.Leaks))
	}
	if plan.Radio == nil {
		t.Fatal("loss directive produced no radio")
	}
	for i := 1; i < len(plan.Crashes); i++ {
		if plan.Crashes[i].Time < plan.Crashes[i-1].Time {
			t.Fatal("merged crash plan not time-sorted")
		}
	}
	if p, err := ParseSpec("", g, 20, rng.New(9)); err != nil || p.CrashCount() != 0 {
		t.Fatalf("empty spec must be the empty plan, got %+v, %v", p, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	g := gen.Path(4)
	for _, bad := range []string{
		"crash", "crash=x", "crash=-1", "blackout=3", "leak=2", "loss=1.5",
		"burst=0.9", "frob=1",
	} {
		if _, err := ParseSpec(bad, g, 10, rng.New(1)); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestSpecDeterminism(t *testing.T) {
	g := gen.GNP(60, 0.15, rng.New(2))
	a, err := ParseSpec("crash=8,leak=4x3", g, 30, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ParseSpec("crash=8,leak=4x3", g, 30, rng.New(5))
	if len(a.Crashes) != len(b.Crashes) || len(a.Leaks) != len(b.Leaks) {
		t.Fatal("same spec+seed produced different plans")
	}
	for i := range a.Crashes {
		if a.Crashes[i] != b.Crashes[i] {
			t.Fatal("crash plans diverge")
		}
	}
	for i := range a.Leaks {
		if a.Leaks[i] != b.Leaks[i] {
			t.Fatal("leak plans diverge")
		}
	}
}
