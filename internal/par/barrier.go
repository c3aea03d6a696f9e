package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// spinBudget bounds how many times a waiter polls the generation before
	// it parks: about 0.1 ms on a 2-vCPU x86 host, several times what a
	// park-and-wake round trip costs, so a phase that ends soon after its
	// first arriver never parks.
	spinBudget = 1 << 14
	// spinYield is how often a spinning waiter yields its P, so a party that
	// still has to arrive can run even when it shares that P.
	spinYield = 64
)

// Barrier is a reusable (cyclic) synchronization barrier for a fixed party
// count: every party calls Await, nobody proceeds until all parties have
// arrived, and the barrier then resets for the next cycle. It is the
// synchronization primitive of the barrier-phased parallel executors
// (internal/sim phased memory simulation, internal/runtime phased engine):
// one Await per worker per phase boundary gives the
// write-then-barrier-then-read ordering the per-segment allocation relies on.
//
// Arrivals go on an atomic counter; the last arriver resets it and bumps an
// atomic generation. A waiter first spins on the generation for a bounded
// number of polls, yielding its P now and then, and only then parks on a
// mutex + condition variable. Waiters spin only when every party can hold a
// P of its own (parties <= GOMAXPROCS when the barrier is built); otherwise
// they park at once. The implementation is clock-free (bannedcall-clean) and
// allocation-free per cycle. A Barrier must not be copied after first use.
type Barrier struct {
	parties int
	spin    bool
	arrived atomic.Int64
	gen     atomic.Uint64
	// sleepers counts waiters parked (or about to park) on cond; the last
	// arriver takes mu to broadcast only when it is nonzero.
	sleepers atomic.Int64
	mu       sync.Mutex
	cond     *sync.Cond
}

// NewBarrier returns a barrier for the given number of parties. It panics
// when parties < 1: a zero-party barrier has no well-defined trip point.
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic("par: NewBarrier requires at least one party")
	}
	b := &Barrier{parties: parties, spin: parties <= runtime.GOMAXPROCS(0)}
	b.cond = sync.NewCond(&b.mu)
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
		// A waiter counts itself in sleepers before it checks the
		// generation, so either it sees the bump or the load below sees it.
		if b.sleepers.Load() > 0 {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		}
		return
	}
	if b.spin {
		for i := 1; i <= spinBudget; i++ {
			if b.gen.Load() != gen {
				return
			}
			if i%spinYield == 0 {
				runtime.Gosched()
			}
		}
	}
	b.mu.Lock()
	b.sleepers.Add(1)
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.sleepers.Add(-1)
	b.mu.Unlock()
}
