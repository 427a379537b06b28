package par

import (
	"runtime"
	"sync"
)

// Pool is the long-lived sibling of ForEach: a fixed set of worker
// goroutines draining a bounded task queue. Where ForEach fans a known
// iteration space out and joins, a Pool accepts work over time — the shape a
// serving layer needs — while keeping the same two guarantees: worker count
// is fixed up front (never one goroutine per task) and the queue is bounded,
// so admission failure is an explicit TrySubmit=false the caller can turn
// into backpressure instead of unbounded memory growth.
type Pool struct {
	mu     sync.Mutex
	tasks  chan func()
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts a pool of the given number of workers (<= 0 means
// GOMAXPROCS) over a queue holding up to depth pending tasks (< 0 means 0:
// every submission must find an idle worker).
func NewPool(workers, depth int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth < 0 {
		depth = 0
	}
	p := &Pool{tasks: make(chan func(), depth)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// TrySubmit enqueues fn unless the pool is closed or the queue is full, and
// reports whether it was accepted. It never blocks: a false return is the
// backpressure signal. An accepted task is guaranteed to run, even if Close
// is called before a worker picks it up.
func (p *Pool) TrySubmit(fn func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- fn:
		return true
	default:
		return false
	}
}

// QueueLen returns the number of accepted tasks not yet picked up by a
// worker (a point-in-time reading; it may be stale by the time it returns).
func (p *Pool) QueueLen() int { return len(p.tasks) }

// Close stops accepting new tasks and blocks until every already accepted
// task has finished — the drain half of graceful shutdown. Close is
// idempotent and safe to call concurrently with TrySubmit.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
