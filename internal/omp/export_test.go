package omp

import "github.com/interweaving/komp/internal/exec"

// Hooks only this package's tests call.

// CachedTeams returns how many idle teams the top-level hot cache
// currently parks (the eviction bound's tests read it).
func (rt *Runtime) CachedTeams() int { return rt.hot.size() }

// Layer returns the runtime's execution layer.
func (rt *Runtime) Layer() exec.Layer { return rt.layer }

// newCLDeque returns a Chase–Lev deque on its own, outside a team slot.
func newCLDeque() *clDeque {
	d := &clDeque{}
	d.init()
	return d
}
