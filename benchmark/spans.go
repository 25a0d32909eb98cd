package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/interweaving/komp/internal/trace"
)

// spanKind names a span. Every span is stamped by the benchmark around
// one of its own calls into the program; none comes from inside it.
type spanKind uint8

const (
	spOp     spanKind = iota
	spRegion          // komp.Parallel/Submit/ParallelFor call -> return
	spBody            // first line -> last line of one worker's body closure
	spBarrier
	spForStatic
	spReduce
	spCritical
	spSingle
	spDynLoop
	spTaskSpawn
	spTaskwait
	spTaskRun // spawn return -> task body start
	spFlood
	spFib
	spTaskloop
	spWavefront
	spKernelEP
	spKernelCG
	spKernelMG
	spKernelIS
	spEnvBuild // core.New
	spLayerRun // Layer.Run
	spEPCCRun  // epcc.Run
	spNASModel // nas.RunModel
	spRTClose  // rt.Close
	spVirgil
	spDevice
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "region", "body", "barrier", "for_static", "reduce", "critical", "single",
	"dynloop", "task_spawn", "taskwait", "task_run_delay", "flood", "fib", "taskloop",
	"wavefront", "nas.EP", "nas.CG", "nas.MG", "nas.IS", "core.New", "Layer.Run",
	"epcc.Run", "nas.RunModel", "rt.Close", "virgil", "device.target",
}

// spanID identifies a recorded span: (slot+1)<<32 | index. Zero is "none".
type spanID int64

type span struct {
	start, end int64 // ns since the tracer's base
	parent     spanID
	op         uint32
	seq        uint16 // which construct call of the op; equal on every worker
	kind       spanKind
	arg        uint8 // kind-specific tag (team size, suite, environment)
}

// spanBuf is one thread's preallocated span buffer. Only that thread
// appends to it; the padding keeps neighbouring buffers' headers on
// separate cache lines.
type spanBuf struct {
	recs []span
	_    [64]byte
}

const spanBufCap = 1 << 18

// tracer holds the spans of one traced run. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	base time.Time
	bufs []spanBuf
}

func newTracer(slots int) *tracer {
	t := &tracer{base: time.Now(), bufs: make([]spanBuf, slots)}
	for i := range t.bufs {
		t.bufs[i].recs = make([]span, 0, spanBufCap)
	}
	return t
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// begin opens a span in slot's buffer. When the buffer is full the span
// is dropped (id 0) and nearFull tells the harness to stop the segment.
func (t *tracer) begin(slot int, kind spanKind, op uint32, seq int, parent spanID) spanID {
	return t.beginArg(slot, kind, op, seq, parent, 0)
}

func (t *tracer) beginArg(slot int, kind spanKind, op uint32, seq int, parent spanID, arg int) spanID {
	if t == nil {
		return 0
	}
	b := &t.bufs[slot]
	if len(b.recs) == cap(b.recs) {
		return 0
	}
	b.recs = append(b.recs, span{start: int64(time.Since(t.base)), parent: parent, op: op, seq: uint16(seq), kind: kind, arg: uint8(arg)})
	return spanID(slot+1)<<32 | spanID(len(b.recs)-1)
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	t.bufs[int(id>>32)-1].recs[int(uint32(id))].end = int64(time.Since(t.base))
}

// add records a span whose two instants were taken elsewhere.
func (t *tracer) add(slot int, kind spanKind, op uint32, seq int, parent spanID, start, end int64) {
	if t == nil {
		return
	}
	b := &t.bufs[slot]
	if len(b.recs) < cap(b.recs) {
		b.recs = append(b.recs, span{start: start, end: end, parent: parent, op: op, seq: uint16(seq), kind: kind})
	}
}

// nearFull reports whether any buffer has less than a tenth of its room
// left; the traced phase ends there so that every traced op is whole.
func (t *tracer) nearFull() bool {
	for i := range t.bufs {
		if len(t.bufs[i].recs) > spanBufCap-spanBufCap/10 {
			return true
		}
	}
	return false
}

// each calls fn for every closed span.
func (t *tracer) each(fn func(slot int, id spanID, s *span)) {
	for slot := range t.bufs {
		recs := t.bufs[slot].recs
		for i := range recs {
			if recs[i].end >= recs[i].start && recs[i].end != 0 {
				fn(slot, spanID(slot+1)<<32|spanID(i), &recs[i])
			}
		}
	}
}

// durs returns the durations (ns) of every span of a kind accepted by keep.
func (t *tracer) durs(kind spanKind, keep func(*span) bool) []float64 {
	var out []float64
	t.each(func(_ int, _ spanID, s *span) {
		if s.kind == kind && (keep == nil || keep(s)) {
			out = append(out, float64(s.end-s.start))
		}
	})
	return out
}

type callKey struct {
	op  uint32
	seq uint16
}

// maxPerCall groups a worker-side construct's spans by the call they
// belong to and returns the longest per call: a construct ends for the
// team when its slowest member leaves it.
func (t *tracer) maxPerCall(kind spanKind) []float64 {
	byCall := map[callKey]float64{}
	t.each(func(_ int, _ spanID, s *span) {
		if s.kind == kind {
			k := callKey{s.op, s.seq}
			if d := float64(s.end - s.start); d > byCall[k] {
				byCall[k] = d
			}
		}
	})
	out := make([]float64, 0, len(byCall))
	for _, d := range byCall {
		out = append(out, d)
	}
	return out
}

// forkJoin is one region seen from both sides: the caller's region span
// and the body spans of its workers.
type forkJoin struct {
	fork, forkLast, join float64 // ns
	team                 int
}

// forkJoins pairs every region span with the body spans that name it as
// parent.
func (t *tracer) forkJoins() []forkJoin {
	type acc struct {
		first0, firstMax, lastMax int64
		n                         int
	}
	bodies := map[spanID]*acc{}
	t.each(func(_ int, _ spanID, s *span) {
		if s.kind != spBody || s.parent == 0 {
			return
		}
		a := bodies[s.parent]
		if a == nil {
			a = &acc{first0: -1}
			bodies[s.parent] = a
		}
		a.n++
		if s.arg == 0 { // thread 0 is the master
			a.first0 = s.start
		}
		if s.start > a.firstMax {
			a.firstMax = s.start
		}
		if s.end > a.lastMax {
			a.lastMax = s.end
		}
	})
	var out []forkJoin
	t.each(func(_ int, id spanID, s *span) {
		a := bodies[id]
		if s.kind != spRegion || a == nil || a.first0 < 0 {
			return
		}
		out = append(out, forkJoin{
			fork:     float64(a.first0 - s.start),
			forkLast: float64(a.firstMax - s.start),
			join:     float64(s.end - a.lastMax),
			team:     a.n,
		})
	})
	return out
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes attributes time to span kinds: a span's self time is its
// duration minus the part of that interval its child spans cover.
func (t *tracer) selfTimes() []selfRow {
	type iv struct{ lo, hi int64 }
	children := map[spanID][]iv{}
	t.each(func(_ int, _ spanID, s *span) {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], iv{s.start, s.end})
		}
	})
	var rows [numSpanKinds]selfRow
	t.each(func(_ int, id spanID, s *span) {
		covered := int64(0)
		if cs := children[id]; len(cs) > 0 {
			sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
			at := s.start
			for _, c := range cs {
				lo, hi := max(c.lo, at), min(c.hi, s.end)
				if hi > lo {
					covered += hi - lo
					at = hi
				}
			}
		}
		r := &rows[s.kind]
		r.Count++
		r.TotalMS += float64(s.end-s.start) / 1e6
		r.SelfMS += float64(s.end-s.start-covered) / 1e6
	})
	var out []selfRow
	for k := range rows {
		if rows[k].Count > 0 {
			rows[k].Name = spanNames[k]
			out = append(out, rows[k])
		}
	}
	return out
}

// writeChrome writes the spans up to the end of the first client's
// maxOps-th op as a Chrome trace (chrome://tracing, Perfetto). The whole
// run would be hundreds of megabytes; the first ops show the shape.
func (t *tracer) writeChrome(path string, slotNames []string, maxOps int) error {
	cutoff := int64(0)
	for _, s := range t.bufs[0].recs {
		if s.parent == 0 { // an op, or the region that is the whole op
			cutoff = s.end
			if maxOps--; maxOps == 0 {
				break
			}
		}
	}
	tr := trace.New()
	t.each(func(slot int, id spanID, s *span) {
		if s.start > cutoff {
			return
		}
		tr.Span(spanNames[s.kind], slotNames[slot], slot, s.start, s.end-s.start, map[string]string{
			"op_id": fmt.Sprint(s.op), "id": fmt.Sprint(int64(id)), "parent": fmt.Sprint(int64(s.parent)),
			"thread": slotNames[slot],
		})
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
