package service

import "sync"

// flightGroup collapses concurrent identical compilations: the first
// resolution to miss a digest becomes the leader and actually produces it
// (a local plan, a peer fetch or a dispatch to the owner); every
// resolution, of any route, that misses it while that flight is open just
// waits for the leader's result. Combined with the determinism-linted
// pipeline this gives the cache its headline property — N concurrent
// identical requests cost one compilation and all N observers receive
// byte-identical artifacts.
//
// Unlike x/sync/singleflight, the waiting side is channel-based so each
// waiter can give up independently when its own request deadline expires
// while the flight (and its eventual cache insert) continues for everyone
// else.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight // guarded by mu
}

// flight is one in-progress compilation. done is closed exactly once, after
// res is set.
type flight struct {
	done chan struct{}
	res  entryResult
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[string]*flight)}
}

// join returns the open flight for key, creating it if absent. leader is
// true for the caller that must produce the result and then call finish.
func (g *flightGroup) join(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// finish publishes the leader's outcome and closes the flight. The entry is
// removed from the map first, so requests arriving after finish start a
// fresh flight (or, on success, hit the cache the leader populated).
func (g *flightGroup) finish(key string, f *flight, res entryResult) {
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	f.res = res
	close(f.done)
}
