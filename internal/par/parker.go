package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// spinBudget bounds how many times a waiter polls its condition before
	// it parks: about 0.1 ms on a 2-vCPU x86 host, several times a
	// park-and-wake round trip, so a wait that ends soon never parks.
	spinBudget = 1 << 14
	// spinYield is how often a spinning waiter yields its P, so the party
	// that makes its condition true runs even when it shares that P.
	spinYield = 64
)

// Parker is the self-timed runtime's spin-then-park wait: a waiter polls a
// condition over atomics that other goroutines store, spinning for a
// bounded number of polls (yielding its P now and then) when every party
// can hold a P of its own (parties <= GOMAXPROCS at NewParker), and then
// parks on a mutex and condition variable until a Wake lets it re-check.
// It is clock-free and allocation-free, and must not be copied after first
// use.
type Parker struct {
	spin bool
	// sleepers counts waiters parked (or about to park) on cond; Wake takes
	// mu to broadcast only when it is nonzero.
	sleepers atomic.Int64
	mu       sync.Mutex
	cond     sync.Cond
}

// NewParker returns a Parker for the given number of concurrent parties.
func NewParker(parties int) *Parker {
	p := &Parker{spin: parties <= runtime.GOMAXPROCS(0)}
	p.cond.L = &p.mu
	return p
}

// Await returns once ready reports true. ready must read only state that
// other goroutines change through sync/atomic stores each followed by a
// Wake: a waiter counts itself in sleepers before its last check, so either
// that check sees the store or the Wake after it sees the waiter.
func (p *Parker) Await(ready func() bool) {
	if ready() {
		return
	}
	if p.spin {
		for i := 1; i <= spinBudget; i++ {
			if ready() {
				return
			}
			if i%spinYield == 0 {
				runtime.Gosched()
			}
		}
	}
	p.mu.Lock()
	p.sleepers.Add(1)
	for !ready() {
		p.cond.Wait()
	}
	p.sleepers.Add(-1)
	p.mu.Unlock()
}

// Wake lets every parked waiter re-check its condition. It costs one atomic
// load when nobody is parked.
func (p *Parker) Wake() {
	if p.sleepers.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}
