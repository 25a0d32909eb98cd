//go:build go1.23

// iter.Pull needs language version 1.23 while go.mod says 1.22 (the
// nested benchmark module's go line must follow the root's and is frozen
// outside benchmark PRs); the tag above raises this one file. There is no
// fallback file: under an older toolchain the package does not build.

package sim

import (
	"iter"
	"sync"
)

// coro is a coroutine that runs proc bodies, one after another. The event
// loop switches into it with next; the proc switches back with yield,
// both when it blocks and when its body has ended. A switch is a direct
// hand-over between two goroutines of which exactly one runs — the Go
// scheduler neither parks the one nor wakes the other, which is what a
// channel hand-off paid for.
//
// The runtime ties a coroutine created by a goroutine locked to its OS
// thread (runtime.LockOSThread, package init) to that thread, so such a
// goroutine must not drive a Sim: its coroutines would reach other
// callers through the free list.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// The proc to run at the next switch in.
	p  *Proc
	fn func(*Proc)
}

// killSignal unwinds a proc condemned by Kill from its block point to
// the coroutine root, running the deferred calls of proc code on the way.
// (runtime.Goexit would not do: iter.Pull re-raises it in the caller of
// next, which is the goroutine driving the simulator.)
type killSignal struct{}

// IsKill reports whether a recovered panic value is the unwinding of a
// proc condemned by Kill. Proc code that recovers panics it did not raise
// must re-panic with the same value when this is true.
func IsKill(r any) bool {
	_, ok := r.(killSignal)
	return ok
}

// coroFreeMax caps the idle coroutines kept for reuse. One 8XEON cell is
// 192 procs and nothing larger than the 1024-core machine runs, so every
// run recycles all of its coroutines into the next one; beyond the
// cap a finished coroutine is stopped and its stack returned.
const coroFreeMax = 1024

// coroFree holds coroutines whose last proc body returned (or was
// killed): parked at the top of their loop with an unwound stack. It is
// shared by all Sims of the process, so a figure's cells, which build
// one Sim each, pay for goroutine creation and stack growth once.
var coroFree struct {
	sync.Mutex
	list []*coro
}

// getCoro returns a coroutine set to run fn(p) at its next switch in.
func getCoro(p *Proc, fn func(*Proc)) *coro {
	coroFree.Lock()
	var c *coro
	if n := len(coroFree.list); n > 0 {
		c, coroFree.list[n-1], coroFree.list = coroFree.list[n-1], nil, coroFree.list[:n-1]
	}
	coroFree.Unlock()
	if c == nil {
		c = &coro{}
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p, c.fn = p, fn
	return c
}

// putCoro takes back a coroutine whose proc body has ended. A coroutine
// whose body panicked or called Goexit never gets here: next does not
// return in dispatch, and the coroutine is gone with the body.
func putCoro(c *coro) {
	coroFree.Lock()
	keep := len(coroFree.list) < coroFreeMax
	if keep {
		coroFree.list = append(coroFree.list, c)
	}
	coroFree.Unlock()
	if !keep {
		c.stop()
	}
}

// loop is the coroutine's body: run a proc, switch back to dispatch,
// and, when switched into again, run the proc getCoro has set meanwhile.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run()
		if !yield(struct{}{}) {
			return // stopped by putCoro
		}
	}
}

// run runs one proc body to its end and accounts the proc as done
// whichever way the body ended: by returning, by Kill, by a panic or by
// runtime.Goexit. Only the first two leave the coroutine reusable; the
// others continue past the deferred call into iter.Pull, which ends the
// coroutine and re-raises them in the caller of next.
func (c *coro) run() {
	p, fn := c.p, c.fn
	c.p, c.fn = nil, nil
	defer func() {
		p.sim.finish(p)
		if r := recover(); r != nil && !IsKill(r) {
			panic(r)
		}
	}()
	if !p.killed {
		fn(p)
	}
}
