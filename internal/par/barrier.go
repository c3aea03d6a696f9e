package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// spinBudget bounds how many times a waiter polls its condition before
	// it parks: about 0.1 ms on a 2-vCPU x86 host, several times what a
	// park-and-wake round trip costs, so a wait that ends soon after it
	// starts never parks.
	spinBudget = 1 << 14
	// spinYield is how often a spinning waiter yields its P, so a party that
	// still has to arrive can run even when it shares that P.
	spinYield = 64
)

// Parker is the waiting half of the spin-then-park primitives: a waiter
// polls a condition over atomics that other goroutines store, spinning for
// a bounded number of polls (yielding its P now and then) and only then
// parking on a mutex + condition variable until a Wake lets it re-check.
// Waiters spin only when every party can hold a P of its own (parties <=
// GOMAXPROCS when the Parker is built); otherwise they park at once. It is
// clock-free and allocation-free. A Parker must not be copied after first
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
	p := new(Parker)
	p.init(parties)
	return p
}

func (p *Parker) init(parties int) {
	p.spin = parties <= runtime.GOMAXPROCS(0)
	p.cond.L = &p.mu
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

// Barrier is a reusable (cyclic) synchronization barrier for a fixed party
// count: every party calls Await, nobody proceeds until all parties have
// arrived, and the barrier then resets for the next cycle. It is the
// synchronization primitive of the barrier-phased executors (internal/sim
// phased memory simulation): one Await per worker per phase boundary gives
// the write-then-barrier-then-read ordering the per-segment allocation
// relies on.
//
// Arrivals go on an atomic counter; the last arriver resets it, bumps an
// atomic generation and wakes the waiters, which wait on the generation
// through a Parker. The implementation is clock-free (bannedcall-clean) and
// allocation-free per cycle. A Barrier must not be copied after first use.
type Barrier struct {
	parties int
	arrived atomic.Int64
	gen     atomic.Uint64
	park    Parker
}

// NewBarrier returns a barrier for the given number of parties. It panics
// when parties < 1: a zero-party barrier has no well-defined trip point.
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic("par: NewBarrier requires at least one party")
	}
	b := &Barrier{parties: parties}
	b.park.init(parties)
	return b
}

// Parties reports the fixed party count the barrier was built for.
func (b *Barrier) Parties() int { return b.parties }

// Await blocks until all parties have called Await in the current cycle,
// then releases every waiter and resets the barrier for the next cycle.
// Everything a party did before its Await happens-before everything any
// party does after the corresponding release (the arrival counter and the
// generation carry the ordering), which is exactly the cross-worker
// visibility guarantee the phased executors need between a producing and a
// consuming phase.
func (b *Barrier) Await() {
	// The generation cannot move before this party arrives, so gen names
	// the current cycle.
	gen := b.gen.Load()
	if b.arrived.Add(1) == int64(b.parties) {
		b.arrived.Store(0)
		b.gen.Add(1)
		b.park.Wake()
		return
	}
	b.park.Await(func() bool { return b.gen.Load() != gen })
}
