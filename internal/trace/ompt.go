package trace

import (
	"fmt"
	"sync"

	"github.com/interweaving/komp/internal/ompt"
)

// Attach registers the tracer as a consumer on sp: from then on every
// spine event stream — whichever layer or environment emits it — is
// folded into Chrome trace spans. Must be called before the spine is
// handed to running threads, like any consumer registration.
func Attach(t *Tracer, sp *ompt.Spine) {
	c := &consumer{
		t:       t,
		regions: map[ompt.RegionKey]regionOpen{},
		targets: map[uint64]int64{},
		threads: map[ompt.WorkerKey]*laneState{},
	}
	sp.On(c.consume,
		ompt.ThreadBegin, ompt.ThreadEnd,
		ompt.ParallelBegin, ompt.ParallelEnd,
		ompt.WorkBegin, ompt.WorkEnd,
		ompt.SyncAcquire, ompt.SyncAcquired,
		ompt.TaskCreate, ompt.TaskSchedule, ompt.TaskComplete,
		ompt.ShrinkTeam,
		ompt.DeviceInit, ompt.TargetBegin, ompt.TargetEnd, ompt.DataOp)
}

type regionOpen struct {
	at   int64
	args map[string]string // {"threads": n}, built once per region
}

// laneState is one worker's open-interval state. Lanes are keyed by
// ompt.WorkerKey, not by thread number: sibling inner teams each have a
// thread 0..k, and tenants share pool workers, so the thread number
// alone would let their open intervals overwrite each other. Spans are
// still drawn on the thread-number row.
type laneState struct {
	bornAt int64
	born   bool
	syncAt [8]int64 // SyncAcquire time by ompt.Sync; -1 when closed
	work   []int64  // WorkBegin time stack
	task   []int64  // TaskSchedule time stack
}

// consumer rebuilds spans from begin/end event pairs. One mutex guards
// the interval state; on the simulator callbacks are serial anyway, on
// the real layer the tracer was always lock-per-record.
type consumer struct {
	t  *Tracer
	mu sync.Mutex

	regions  map[ompt.RegionKey]regionOpen
	targets  map[uint64]int64 // open target regions: id -> begin time
	threads  map[ompt.WorkerKey]*laneState
	pending  int64 // tasks created and not yet completed
	devBytes int64 // cumulative host<->device transfer bytes
}

func (c *consumer) lane(ev *ompt.Event) *laneState {
	who := ompt.WorkerKey{Gid: ev.Gid, Thread: ev.Thread, Tenant: ev.Tenant}
	l := c.threads[who]
	if l == nil {
		l = &laneState{}
		for i := range l.syncAt {
			l.syncAt[i] = -1
		}
		c.threads[who] = l
	}
	return l
}

// workSpanName keeps the span names the tracer always used for loops.
func workSpanName(w ompt.Work) string {
	switch w {
	case ompt.WorkLoopStatic:
		return "for/static"
	case ompt.WorkLoopDynamic:
		return "for/dynamic"
	case ompt.WorkLoopGuided:
		return "for/guided"
	case ompt.WorkSections:
		return "sections"
	case ompt.WorkSingle:
		return "single"
	}
	return "work"
}

func (c *consumer) consume(ev ompt.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tid := int(ev.Thread)
	switch ev.Kind {
	case ompt.ThreadBegin:
		l := c.lane(&ev)
		l.bornAt, l.born = ev.TimeNS, true
	case ompt.ThreadEnd:
		if l := c.lane(&ev); l.born {
			c.t.Span("thread", "exec", tid, l.bornAt, ev.TimeNS-l.bornAt, nil)
			l.born = false
		}
	case ompt.ParallelBegin:
		c.regions[ompt.RegionKey{Tenant: ev.Tenant, Region: ev.Region}] = regionOpen{
			at:   ev.TimeNS,
			args: map[string]string{"threads": fmt.Sprint(ev.Arg0)},
		}
	case ompt.ParallelEnd:
		rk := ompt.RegionKey{Tenant: ev.Tenant, Region: ev.Region}
		if r, ok := c.regions[rk]; ok {
			delete(c.regions, rk)
			c.t.Span(fmt.Sprintf("parallel#%d", ev.Region), "omp", tid,
				r.at, ev.TimeNS-r.at, r.args)
		}
	case ompt.WorkBegin:
		l := c.lane(&ev)
		l.work = append(l.work, ev.TimeNS)
	case ompt.WorkEnd:
		l := c.lane(&ev)
		if n := len(l.work); n > 0 {
			at := l.work[n-1]
			l.work = l.work[:n-1]
			c.t.Span(workSpanName(ev.Work), "omp", tid, at, ev.TimeNS-at, nil)
		}
	case ompt.SyncAcquire:
		if int(ev.Sync) < 8 {
			c.lane(&ev).syncAt[ev.Sync] = ev.TimeNS
		}
	case ompt.SyncAcquired:
		l := c.lane(&ev)
		if int(ev.Sync) < 8 && l.syncAt[ev.Sync] >= 0 {
			at := l.syncAt[ev.Sync]
			l.syncAt[ev.Sync] = -1
			c.t.Span("wait/"+ev.Sync.String(), "sync", tid, at, ev.TimeNS-at, nil)
		}
	case ompt.TaskCreate:
		c.pending++
		c.t.Counter("tasks-pending", tid, ev.TimeNS, c.pending)
	case ompt.TaskSchedule:
		l := c.lane(&ev)
		l.task = append(l.task, ev.TimeNS)
	case ompt.TaskComplete:
		l := c.lane(&ev)
		if n := len(l.task); n > 0 {
			at := l.task[n-1]
			l.task = l.task[:n-1]
			c.t.Span("task", "omp", tid, at, ev.TimeNS-at, nil)
		}
		c.pending--
		c.t.Counter("tasks-pending", tid, ev.TimeNS, c.pending)
	case ompt.ShrinkTeam:
		c.t.Span("team-shrink", "fault", tid, ev.TimeNS, 0, nil)
	case ompt.DeviceInit:
		c.t.Span(fmt.Sprintf("device-init#%d", ev.Obj), "device", deviceLane(ev.Obj),
			ev.TimeNS, 0, map[string]string{
				"cus": fmt.Sprint(ev.Arg0), "lanes": fmt.Sprint(ev.Arg1)})
	case ompt.TargetBegin:
		c.targets[ev.Region] = ev.TimeNS
	case ompt.TargetEnd:
		if at, ok := c.targets[ev.Region]; ok {
			delete(c.targets, ev.Region)
			c.t.Span(fmt.Sprintf("target#%d", ev.Region), "device", deviceLane(ev.Obj),
				at, ev.TimeNS-at, map[string]string{"blocks": fmt.Sprint(ev.Arg1)})
		}
	case ompt.DataOp:
		// Only the transfers move the counter; alloc/delete are marks.
		if ev.Arg1 == 1 || ev.Arg1 == 2 {
			c.devBytes += ev.Arg0
			c.t.Counter("device-bytes", deviceLane(ev.Obj), ev.TimeNS, c.devBytes)
		}
	}
}

// deviceLane maps a device id onto its own trace row, away from the
// host thread lanes.
func deviceLane(dev uint64) int { return 1_000_000 + int(dev) }
