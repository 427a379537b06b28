package experiments

import (
	"testing"

	"repro/internal/obs"
)

// E22 (tight-ratio families) is the lightest mapTrials experiment at quick
// scale, so the trace test drives it.
const traceExp = "E22"

func TestTrialEventsEmitted(t *testing.T) {
	mem := &obs.Memory{}
	cfg := quickCfg()
	cfg.Trace = mem
	if _, err := Run(traceExp, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	starts := mem.Count(obs.EvTrialStart)
	ends := mem.Count(obs.EvTrialEnd)
	if starts == 0 {
		t.Fatal("no trial_start events emitted")
	}
	if starts != ends {
		t.Fatalf("%d trial_start vs %d trial_end events", starts, ends)
	}
	for _, ev := range mem.Events {
		if ev.Name != traceExp {
			t.Fatalf("trial event labeled %q, want %q", ev.Name, traceExp)
		}
	}
}
