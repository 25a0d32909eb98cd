package nautilus

import (
	"fmt"

	"github.com/interweaving/komp/internal/exec"
)

// KTask is a unit of deferred work for the kernel task system.
type KTask struct {
	Name string
	Fn   func(tc exec.TC)
}

type cpuQueue struct {
	tasks []*KTask
	word  exec.Word // pending count, doubles as the futex word
}

// TaskSystem is the SoftIRQ-like per-CPU task framework (§2.1, §5: the
// kernel-level VIRGIL runtime "directly uses the kernel's internal task
// system, which operates similarly to the SoftIRQ mechanism in the Linux
// kernel"). Each participating CPU runs a worker that drains its queue;
// idle workers steal from the fullest remote queue.
type TaskSystem struct {
	k       *Kernel
	queues  []cpuQueue // by CPU
	workers []exec.Handle
	cpus    []int
	stop    bool
	stopW   exec.Word
	rr      int

	// Cost knobs (virtual ns). These are the "thin veneer" costs of the
	// kernel task path — far below a thread spawn.
	SubmitNS   int64
	DispatchNS int64
	StealNS    int64

	// Stats.
	Submitted int64
	Executed  int64
	Steals    int64
}

func newTaskSystem(k *Kernel) *TaskSystem {
	ts := &TaskSystem{
		k:          k,
		queues:     make([]cpuQueue, k.Machine.NumCPUs()),
		SubmitNS:   90,
		DispatchNS: 60,
		StealNS:    250,
	}
	return ts
}

// Start spawns one worker thread per given CPU. It must be called from a
// running thread context before Submit.
func (ts *TaskSystem) Start(tc exec.TC, cpus []int) {
	if len(ts.workers) > 0 {
		panic("nautilus: task system already started")
	}
	ts.stop = false
	ts.stopW.Store(0)
	ts.cpus = append([]int(nil), cpus...)
	for _, cpu := range cpus {
		cpu := cpu
		h := tc.Spawn(fmt.Sprintf("ktask/%d", cpu), cpu, func(wtc exec.TC) {
			ts.workerLoop(wtc, cpu)
		})
		ts.workers = append(ts.workers, h)
	}
}

// SubmitBatch enqueues tasks round-robin across the started worker CPUs
// with one aggregate charge, then wakes every worker whose queue became
// non-empty: the submitting thread does not interleave its charges with
// running tasks.
func (ts *TaskSystem) SubmitBatch(tc exec.TC, tasks []*KTask) {
	if len(tasks) == 0 {
		return
	}
	if len(ts.cpus) == 0 {
		panic("nautilus: SubmitBatch before Start")
	}
	tc.Charge(int64(len(tasks)) * ts.SubmitNS)
	// Wake order must be deterministic (map iteration is not): the wake
	// sequence decides which workers run first, and on the simulator that
	// ordering is part of the seed-pure virtual timeline.
	seen := map[int]bool{}
	var touched []int
	for _, t := range tasks {
		cpu := ts.cpus[ts.rr%len(ts.cpus)]
		ts.rr++
		q := &ts.queues[cpu]
		q.tasks = append(q.tasks, t)
		q.word.Add(1)
		if !seen[cpu] {
			seen[cpu] = true
			touched = append(touched, cpu)
		}
	}
	ts.Submitted += int64(len(tasks))
	for _, cpu := range touched {
		tc.FutexWake(&ts.queues[cpu].word, 1)
	}
}

// Stop shuts the workers down and joins them.
func (ts *TaskSystem) Stop(tc exec.TC) {
	ts.stop = true
	ts.stopW.Store(1)
	for _, cpu := range ts.cpus {
		tc.FutexWake(&ts.queues[cpu].word, -1)
	}
	for _, h := range ts.workers {
		h.Join(tc)
	}
	ts.workers = nil
	ts.cpus = nil
}

func (ts *TaskSystem) pop(cpu int) *KTask {
	q := &ts.queues[cpu]
	if len(q.tasks) == 0 {
		return nil
	}
	t := q.tasks[0]
	copy(q.tasks, q.tasks[1:])
	q.tasks[len(q.tasks)-1] = nil
	q.tasks = q.tasks[:len(q.tasks)-1]
	q.word.Add(^uint32(0))
	return t
}

// stealFrom finds the fullest remote queue and steals half its pending
// tasks (at least one), returning one to run immediately.
func (ts *TaskSystem) stealFrom(tc exec.TC, cpu int) *KTask {
	best, bestLen := -1, 1 // need at least 2 pending to be worth stealing
	for _, c := range ts.cpus {
		if c == cpu {
			continue
		}
		if n := len(ts.queues[c].tasks); n > bestLen {
			best, bestLen = c, n
		}
	}
	if best < 0 {
		return nil
	}
	tc.Charge(ts.StealNS)
	ts.Steals++
	victim := &ts.queues[best]
	// The charge above yields the CPU: other workers may have drained
	// the victim in the meantime.
	if len(victim.tasks) == 0 {
		return nil
	}
	n := len(victim.tasks) / 2
	if n < 1 {
		n = 1
	}
	stolen := make([]*KTask, n)
	copy(stolen, victim.tasks[len(victim.tasks)-n:])
	victim.tasks = victim.tasks[:len(victim.tasks)-n]
	victim.word.Store(uint32(len(victim.tasks)))
	mine := &ts.queues[cpu]
	mine.tasks = append(mine.tasks, stolen[1:]...)
	mine.word.Store(uint32(len(mine.tasks)))
	return stolen[0]
}

func (ts *TaskSystem) workerLoop(tc exec.TC, cpu int) {
	q := &ts.queues[cpu]
	for {
		if t := ts.pop(cpu); t != nil {
			tc.Charge(ts.DispatchNS)
			t.Fn(tc)
			ts.Executed++
			continue
		}
		if t := ts.stealFrom(tc, cpu); t != nil {
			tc.Charge(ts.DispatchNS)
			t.Fn(tc)
			ts.Executed++
			continue
		}
		if ts.stop {
			return
		}
		tc.FutexWait(&q.word, 0)
	}
}
