package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierSinglePartyNeverBlocks(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 1000; i++ {
		b.Await() // would deadlock the test if a 1-party barrier waited
	}
	if b.Parties() != 1 {
		t.Fatalf("Parties() = %d, want 1", b.Parties())
	}
}

func TestBarrierPanicsOnZeroParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0)
}

// TestBarrierPhaseOrdering drives P workers through many phases and checks
// the defining invariant: no worker enters phase k+1 before every worker has
// finished phase k. Each worker increments a per-phase arrival counter
// before Await and asserts the counter is full after.
func TestBarrierPhaseOrdering(t *testing.T) {
	const parties, phases = 8, 200
	b := NewBarrier(parties)
	arrived := make([]atomic.Int64, phases)
	var wg sync.WaitGroup
	errs := make([]string, parties)
	for w := 0; w < parties; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ph := 0; ph < phases; ph++ {
				arrived[ph].Add(1)
				b.Await()
				if got := arrived[ph].Load(); got != parties {
					errs[w] = "worker saw incomplete phase"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Fatalf("worker %d: %s", w, e)
		}
	}
}

// TestBarrierCyclicReuse checks the generation logic across cycles with
// parties arriving in shifting orders: a stale waiter from cycle k must not
// be released by cycle k+1's trip, and the barrier must reset cleanly.
func TestBarrierCyclicReuse(t *testing.T) {
	const parties, cycles = 3, 500
	b := NewBarrier(parties)
	var sum atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parties; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				sum.Add(int64(w + 1))
				b.Await()
			}
		}(w)
	}
	wg.Wait()
	// 1+2+3 per cycle.
	if got, want := sum.Load(), int64(6*cycles); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// runCycles drives parties goroutines through cycles Awaits each and fails
// the test if they have not all finished within the deadline.
func runCycles(t *testing.T, b *Barrier, parties, cycles int) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for w := 0; w < parties; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := 0; c < cycles; c++ {
					b.Await()
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d parties did not finish %d cycles", parties, cycles)
	}
}

// TestBarrierSpinYieldsOnOneProc builds spinning barriers and then runs
// them on a single P: a spinning waiter must yield, or the parties still to
// arrive wait out its whole spin (forever, were the spin unbounded).
func TestBarrierSpinYieldsOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, parties := range []int{2, 4} {
		b := NewBarrier(parties)
		if !b.park.spin {
			t.Fatalf("%d parties at GOMAXPROCS 4 do not spin", parties)
		}
		runtime.GOMAXPROCS(1)
		runCycles(t, b, parties, 1000)
		runtime.GOMAXPROCS(4)
	}
}

// TestBarrierHappensBefore has every party write its own slot with plain
// stores before an Await and read every other slot after it. Under -race it
// checks that the barrier itself orders the accesses, on the spin path and
// on the park path.
func TestBarrierHappensBefore(t *testing.T) {
	for _, parties := range []int{2, runtime.GOMAXPROCS(0) + 1} {
		b := NewBarrier(parties)
		const cycles = 300
		slots := make([]int, parties)
		errs := make([]string, parties)
		var wg sync.WaitGroup
		for w := 0; w < parties; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for c := 1; c <= cycles; c++ {
					slots[w] = c
					b.Await()
					for j, v := range slots {
						if v != c && errs[w] == "" {
							errs[w] = fmt.Sprintf("cycle %d: slot %d holds %d", c, j, v)
						}
					}
					// Readers finish before anyone writes the next cycle.
					b.Await()
				}
			}(w)
		}
		wg.Wait()
		for w, e := range errs {
			if e != "" {
				t.Errorf("parties %d worker %d: %s", parties, w, e)
			}
		}
	}
}

// waitSleepers waits until n waiters are parked on b's condition variable.
func waitSleepers(t *testing.T, b *Barrier, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.park.sleepers.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked, want %d", b.park.sleepers.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBarrierParksWhenOversubscribed: with more parties than Ps a spinning
// waiter would hold a P a missing party needs, so waiters park at once.
func TestBarrierParksWhenOversubscribed(t *testing.T) {
	parties := runtime.GOMAXPROCS(0) + 1
	b := NewBarrier(parties)
	if b.park.spin {
		t.Fatalf("%d parties at GOMAXPROCS %d spin", parties, parties-1)
	}
	var wg sync.WaitGroup
	for w := 0; w < parties-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Await()
		}()
	}
	waitSleepers(t, b, int64(parties-1))
	b.Await()
	wg.Wait()
	runCycles(t, b, parties, 1000)
}

// TestBarrierSpinIsBounded: a spinning waiter whose partner never comes
// parks once its spin budget is spent, and the late partner still wakes it.
func TestBarrierSpinIsBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	b := NewBarrier(2)
	if !b.park.spin {
		t.Fatal("2 parties at GOMAXPROCS 2 do not spin")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Await()
	}()
	waitSleepers(t, b, 1)
	b.Await()
	<-done
}

// TestParkerWakesParkedWaiter: a waiter that has spent its spin budget (or
// never spins) parks, and a store followed by Wake releases it, with the
// store visible after Await returns.
func TestParkerWakesParkedWaiter(t *testing.T) {
	for _, parties := range []int{2, runtime.GOMAXPROCS(0) + 1} {
		p := NewParker(parties)
		var flag atomic.Bool
		data := 0
		done := make(chan int)
		go func() {
			p.Await(flag.Load)
			done <- data
		}()
		deadline := time.Now().Add(10 * time.Second)
		for p.sleepers.Load() != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("parties %d: waiter never parked", parties)
			}
			time.Sleep(time.Millisecond)
		}
		data = 42
		flag.Store(true)
		p.Wake()
		if got := <-done; got != 42 {
			t.Errorf("parties %d: waiter read %d after Await, want 42", parties, got)
		}
	}
}
