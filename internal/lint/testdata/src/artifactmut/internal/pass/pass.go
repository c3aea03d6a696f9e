// Package pass mirrors the artifact layer of the real internal/pass package:
// the analyzer resolves artifact types and publishing roots by package-path
// suffix, so this fixture exercises exactly the production matching.
package pass

// Repetitions is an artifact type (matched by name).
type Repetitions struct {
	Q map[string]int
}

// Order is an artifact type (matched by name).
type Order struct {
	Actors []string
}

// Plan carries a published artifact; its Run method is a publishing root.
type Plan struct {
	rep *Repetitions
}

// bump mutates its parameter. The diagnostic lands here — at the mutation
// site — with the full call path that reaches it from the root.
func bump(r *Repetitions) {
	r.Q["x"]++ // want "pass.bump writes through published artifact pass.Repetitions via r.Q[\"x\"] (reached by pass.(*Plan).Run -> pass.outer -> pass.bump)"
}

// outer only forwards: the writes-through-parameter summary propagates
// through it, so the reported path is Run -> outer -> bump.
func outer(r *Repetitions) {
	bump(r)
}

// relabel mutates a by-value copy: the write never crosses a pointer, slice,
// or map, so it stays inside the callee's copy and is allowed.
func relabel(o Order) Order {
	o.Actors = nil
	return o
}

// Run is the plan-execution root.
func (p *Plan) Run() *Order {
	p.rep.Q["direct"] = 1 // want "writes through published artifact pass.Repetitions via p.rep.Q"
	outer(p.rep)

	// Allowed: ord roots at a composite literal in this function, so nobody
	// shares it yet — construction is exempt by design.
	ord := &Order{Actors: []string{"seed"}}
	ord.Actors = append(ord.Actors, "fresh")

	// Allowed: a value copy of an artifact may be reshaped freely.
	cp := Order{Actors: ord.Actors}
	cp = relabel(cp)
	_ = cp
	return ord
}

// decodeOrder is a store-decode root: it builds a fresh artifact and may
// populate it freely before returning it.
func decodeOrder(data []byte) (*Order, error) {
	o := &Order{Actors: make([]string, 0, len(data))}
	o.Actors = append(o.Actors, string(data))
	return o, nil
}

// scratchMutate writes through an artifact parameter but is unreachable from
// every root, so reachability gating keeps it silent.
func scratchMutate(r *Repetitions) {
	r.Q["scratch"] = 0
}
