package experiments

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// E22 (tight-ratio families) is the lightest mapTrials experiment at quick
// scale, so the escape-hatch tests drive it.
const hatchExp = "E22"

func TestRunCanceledBeforeStart(t *testing.T) {
	cfg := quickCfg()
	cfg.Cancel = func() bool { return true }
	tab, err := Run(hatchExp, cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if tab != nil {
		t.Fatalf("canceled-before-start run produced a table: %+v", tab)
	}
}

func TestRunCanceledMidway(t *testing.T) {
	// Sticky cancel that fires after the first poll: the first trial may
	// run, the rest are skipped, and Run reports the cancellation.
	var polls atomic.Int32
	cfg := quickCfg()
	cfg.Cancel = func() bool { return polls.Add(1) > 1 }
	_, err := Run(hatchExp, cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestTrialEventsEmitted(t *testing.T) {
	mem := &obs.Memory{}
	cfg := quickCfg()
	cfg.Trace = mem
	if _, err := Run(hatchExp, cfg); err != nil {
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
		if ev.Name != hatchExp {
			t.Fatalf("trial event labeled %q, want %q", ev.Name, hatchExp)
		}
	}
}
