package omp

import "github.com/interweaving/komp/internal/ompt"

// Emit helpers: every runtime emit site funnels through these, so the
// disabled-spine fast path is one nil check plus one mask test per site
// and the Event literal is only constructed when a consumer listens —
// the zero-alloc property the real-layer benchmark asserts.

// workKind maps a loop schedule to its spine work-construct kind.
func workKind(s Schedule) ompt.Work {
	switch s {
	case Dynamic:
		return ompt.WorkLoopDynamic
	case Guided:
		return ompt.WorkLoopGuided
	case Affinity:
		return ompt.WorkLoopAffinity
	}
	return ompt.WorkLoopStatic
}

// emitPlain emits a kind that needs no sync/work qualifier (implicit
// task begin/end, parallel end, team shrink).
func (w *Worker) emitPlain(k ompt.Kind, a0, a1 int64) {
	sp := w.team.rt.spine
	if !sp.Enabled(k) {
		return
	}
	sp.Emit(ompt.Event{Kind: k, Thread: int32(w.id), Gid: w.gid, CPU: int32(w.tc.CPU()),
		TimeNS: w.tc.Now(), Region: w.region, Level: int32(w.team.level), Tenant: w.team.rt.opts.Tenant, Arg0: a0, Arg1: a1})
}

// emitSync emits a synchronization event against object obj.
func (w *Worker) emitSync(k ompt.Kind, s ompt.Sync, obj uint64) {
	sp := w.team.rt.spine
	if !sp.Enabled(k) {
		return
	}
	sp.Emit(ompt.Event{Kind: k, Sync: s, Thread: int32(w.id), Gid: w.gid, CPU: int32(w.tc.CPU()),
		TimeNS: w.tc.Now(), Region: w.region, Level: int32(w.team.level), Tenant: w.team.rt.opts.Tenant, Obj: obj})
}

// emitWork emits a worksharing event: wk is the construct kind, obj the
// per-thread construct sequence, a0/a1 the bounds (or chunk bounds).
func (w *Worker) emitWork(k ompt.Kind, wk ompt.Work, obj uint64, a0, a1 int64) {
	sp := w.team.rt.spine
	if !sp.Enabled(k) {
		return
	}
	sp.Emit(ompt.Event{Kind: k, Work: wk, Thread: int32(w.id), Gid: w.gid, CPU: int32(w.tc.CPU()),
		TimeNS: w.tc.Now(), Region: w.region, Level: int32(w.team.level), Tenant: w.team.rt.opts.Tenant, Obj: obj, Arg0: a0, Arg1: a1})
}

// emitBind publishes a worker's placement for the region: Obj is the
// assigned CPU, Arg0 the place index (-1 for a proc_bind(false)
// migration, which lands on CPUs, not places), and Arg1 the number of
// lower-numbered teammates bound to the same CPU — nonzero Arg1 is the
// oversubscription signal.
func (w *Worker) emitBind(cpu int) {
	sp := w.team.rt.spine
	if !sp.Enabled(ompt.ThreadBind) {
		return
	}
	place, occ := int64(-1), int64(0)
	if cpus := w.team.cpus; cpus != nil {
		place = int64(w.team.rt.opts.Places.PlaceOf(cpu))
		for j := 0; j < w.id; j++ {
			if cpus[j] == cpu {
				occ++
			}
		}
	}
	sp.Emit(ompt.Event{Kind: ompt.ThreadBind, Thread: int32(w.id), Gid: w.gid, CPU: int32(cpu),
		TimeNS: w.tc.Now(), Region: w.region, Level: int32(w.team.level), Tenant: w.team.rt.opts.Tenant, Obj: uint64(cpu), Arg0: place, Arg1: occ})
}

// emitCancel emits a cancellation event: Arg0 is the CancelKind, obj
// the taskgroup or task id (0 for team-level kinds), a1 distinguishes
// activation from a discarded task body (cancel.go's Arg1 constants).
func (w *Worker) emitCancel(kind CancelKind, obj uint64, a1 int64) {
	sp := w.team.rt.spine
	if !sp.Enabled(ompt.Cancel) {
		return
	}
	sp.Emit(ompt.Event{Kind: ompt.Cancel, Thread: int32(w.id), Gid: w.gid, CPU: int32(w.tc.CPU()),
		TimeNS: w.tc.Now(), Region: w.region, Level: int32(w.team.level), Tenant: w.team.rt.opts.Tenant, Obj: obj,
		Arg0: int64(kind), Arg1: a1})
}

// emitTask emits an explicit-task event against task id obj; a0 is
// kind-specific (victim thread for TaskSteal).
func (w *Worker) emitTask(k ompt.Kind, obj uint64, a0 int64) {
	sp := w.team.rt.spine
	if !sp.Enabled(k) {
		return
	}
	sp.Emit(ompt.Event{Kind: k, Thread: int32(w.id), Gid: w.gid, CPU: int32(w.tc.CPU()),
		TimeNS: w.tc.Now(), Region: w.region, Level: int32(w.team.level), Tenant: w.team.rt.opts.Tenant, Obj: obj, Arg0: a0})
}
