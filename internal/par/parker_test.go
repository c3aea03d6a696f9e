package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ring passes a turn around parties goroutines for cycles rounds through p:
// goroutine w waits for its turn, bumps a plain counter and hands the turn
// on with a store and a Wake. Only p orders the counter's accesses, so
// under -race the ring checks that an Await sees what was written before
// the Wake that released it. The ring must finish within 10 s.
func ring(t *testing.T, p *Parker, parties, cycles int) {
	t.Helper()
	var turn atomic.Int64
	count := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for w := 0; w < parties; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for c := 0; c < cycles; c++ {
					mine := int64(c*parties + w)
					p.Await(func() bool { return turn.Load() == mine })
					count++
					turn.Store(mine + 1)
					p.Wake()
				}
			}(w)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d parties did not finish %d cycles", parties, cycles)
	}
	if want := parties * cycles; count != want {
		t.Fatalf("the ring counted %d turns, want %d", count, want)
	}
}

// waitSleepers waits until n waiters are parked on p's condition variable.
func waitSleepers(t *testing.T, p *Parker, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.sleepers.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked, want %d", p.sleepers.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParkerSpinYieldsOnOneProc builds spinning Parkers and then runs them
// on a single P: a spinning waiter must yield, or the party that would make
// its condition true waits out its whole spin on every turn.
func TestParkerSpinYieldsOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, parties := range []int{2, 4} {
		p := NewParker(parties)
		if !p.spin {
			t.Fatalf("%d parties at GOMAXPROCS 4 do not spin", parties)
		}
		runtime.GOMAXPROCS(1)
		ring(t, p, parties, 1000)
		runtime.GOMAXPROCS(4)
	}
}

// TestParkerHappensBefore runs the ring on the spin path and on the park
// path; under -race it checks that the Parker itself orders the plain
// accesses around its waits.
func TestParkerHappensBefore(t *testing.T) {
	for _, parties := range []int{2, runtime.GOMAXPROCS(0) + 1} {
		ring(t, NewParker(parties), parties, 300)
	}
}

// TestParkerParksWhenOversubscribed: with more parties than Ps a spinning
// waiter would hold a P the party it waits for needs, so waiters park at
// once.
func TestParkerParksWhenOversubscribed(t *testing.T) {
	parties := runtime.GOMAXPROCS(0) + 1
	p := NewParker(parties)
	if p.spin {
		t.Fatalf("%d parties at GOMAXPROCS %d spin", parties, parties-1)
	}
	var flag atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < parties-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Await(flag.Load)
		}()
	}
	waitSleepers(t, p, int64(parties-1))
	flag.Store(true)
	p.Wake()
	wg.Wait()
	ring(t, p, parties, 1000)
}

// TestParkerSpinIsBounded: a spinning waiter whose condition never comes
// true parks once its spin budget is spent, and a late store and Wake
// still release it.
func TestParkerSpinIsBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := NewParker(2)
	if !p.spin {
		t.Fatal("2 parties at GOMAXPROCS 2 do not spin")
	}
	var flag atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Await(flag.Load)
	}()
	waitSleepers(t, p, 1)
	flag.Store(true)
	p.Wake()
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
		waitSleepers(t, p, 1)
		data = 42
		flag.Store(true)
		p.Wake()
		if got := <-done; got != 42 {
			t.Errorf("parties %d: waiter read %d after Await, want 42", parties, got)
		}
	}
}
