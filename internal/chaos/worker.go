package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// ErrWorkerFault is the error an injected worker failure surfaces. The
// serving layer maps it to a 500 and counts it separately from genuine
// solver errors, so service tests can assert the failure path precisely.
var ErrWorkerFault = errors.New("chaos: injected worker fault")

// WorkerFault models a degraded service worker — the serving-layer member of
// the fault family (crashes and leaks hit the network, radios hit the
// messages, WorkerFault hits the machine doing the computing). Each Invoke
// independently sleeps with probability SlowP (for Delay) and fails with
// probability FailP, drawn from a seeded source so a flaky-worker scenario
// replays exactly. It satisfies the FaultInjector hook of internal/serve.
//
// The zero value injects nothing. All methods are safe for concurrent use.
type WorkerFault struct {
	mu     sync.Mutex
	src    *rng.Source
	slowP  float64
	failP  float64
	delay  time.Duration
	failed int
}

// NewWorkerFault builds a seeded worker fault: each invocation sleeps delay
// with probability slowP and fails with probability failP. Probabilities
// outside [0, 1] and negative delays panic — a fault plan is configuration,
// not runtime input.
func NewWorkerFault(slowP, failP float64, delay time.Duration, src *rng.Source) *WorkerFault {
	if slowP < 0 || slowP > 1 || failP < 0 || failP > 1 {
		panic(fmt.Sprintf("chaos: worker fault probabilities (%v, %v) out of [0, 1]", slowP, failP))
	}
	if delay < 0 {
		panic(fmt.Sprintf("chaos: negative worker delay %v", delay))
	}
	if (slowP > 0 || failP > 0) && src == nil {
		panic("chaos: worker fault with positive probability needs a randomness source")
	}
	return &WorkerFault{src: src, slowP: slowP, failP: failP, delay: delay}
}

// Invoke applies the fault once, keyed by the job about to run (the key is
// accepted for symmetry with other injectors and for logging wrappers; the
// coin flips do not depend on it). It sleeps outside the lock so concurrent
// workers degrade independently.
func (f *WorkerFault) Invoke(key string) error {
	if f == nil || (f.slowP == 0 && f.failP == 0) {
		return nil
	}
	f.mu.Lock()
	slow := f.slowP > 0 && f.src.Float64() < f.slowP
	fail := f.failP > 0 && f.src.Float64() < f.failP
	if fail {
		f.failed++
	}
	delay := f.delay
	f.mu.Unlock()
	if slow && delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return fmt.Errorf("%w (job %s)", ErrWorkerFault, key)
	}
	return nil
}

// Failed returns how many invocations were failed so far.
func (f *WorkerFault) Failed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed
}

// ParseWorkerFault builds a WorkerFault from a compact directive string, the
// format behind ltserve's -fault flag:
//
//	slow=P:DUR   each invocation sleeps DUR (Go duration) with probability P
//	fail=P       each invocation fails with probability P
//
// Example: "slow=0.2:50ms,fail=0.05". An empty spec returns nil (no fault).
func ParseWorkerFault(spec string, src *rng.Source) (*WorkerFault, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var slowP, failP float64
	var delay time.Duration
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: worker-fault directive %q is not key=value", field)
		}
		switch key {
		case "slow":
			pStr, dStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("chaos: slow=%s: want P:DUR", val)
			}
			p, err := strconv.ParseFloat(pStr, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("chaos: slow=%s: want probability in [0, 1]", val)
			}
			d, err := time.ParseDuration(dStr)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("chaos: slow=%s: bad duration %q", val, dStr)
			}
			slowP, delay = p, d
		case "fail":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("chaos: fail=%s: want probability in [0, 1]", val)
			}
			failP = p
		default:
			return nil, fmt.Errorf("chaos: unknown worker-fault directive %q (have slow, fail)", key)
		}
	}
	return NewWorkerFault(slowP, failP, delay, src), nil
}
