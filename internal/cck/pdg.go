package cck

import "fmt"

// LoopVerdict is the outcome of loop-carried dependence analysis.
type LoopVerdict int

// Verdicts.
const (
	// DOALL: iterations are independent; full task parallelization.
	DOALL LoopVerdict = iota
	// DOALLReduction: independent except for reduction accumulators,
	// handled with per-task partials and a landing-task combine.
	DOALLReduction
	// Pipeline: a loop-carried dependence, but the body's declared
	// stages form an acyclic chain — DSWP applies.
	Pipeline
	// Sequential: a loop-carried dependence (or an unexploitable
	// privatization requirement) forces sequential execution.
	Sequential
)

func (v LoopVerdict) String() string {
	switch v {
	case DOALL:
		return "DOALL"
	case DOALLReduction:
		return "DOALL+reduction"
	case Pipeline:
		return "pipelinable"
	default:
		return "sequential"
	}
}

// LoopAnalysis is the per-loop analysis result.
type LoopAnalysis struct {
	Loop    *Loop
	Verdict LoopVerdict
	// Reason explains a Sequential verdict.
	Reason string
	// Reductions lists the accumulator objects when DOALLReduction.
	Reductions []string
	// UsedPragma reports whether the OpenMP metadata (rather than pure
	// analysis) supplied the independence — the accuracy boost of §5.3.
	UsedPragma bool
}

// AnalyzeLoop performs the loop-carried dependence analysis. The
// exploitPrivatization flag is the capability AutoMP currently lacks
// (§6.2: "AutoMP being currently unable to exploit OpenMP directives
// related to object privatization"); pass true to model a future compiler
// that can.
func AnalyzeLoop(l *Loop, exploitPrivatization bool) LoopAnalysis {
	a := LoopAnalysis{Loop: l, Verdict: DOALL}
	pragmaIndependent := l.Pragma != nil && l.Pragma.Independent
	privatized := map[string]bool{}
	reduced := map[string]bool{}
	if l.Pragma != nil {
		for _, o := range l.Pragma.Private {
			privatized[o] = true
		}
		for o := range l.Pragma.Reductions {
			reduced[o] = true
		}
	}
	for _, e := range l.Effects {
		switch e.Pattern {
		case Disjoint, SharedRO:
			// Never a carried dependence.
		case ReductionAcc:
			a.Verdict = maxVerdict(a.Verdict, DOALLReduction)
			a.Reductions = append(a.Reductions, e.Obj)
		case SharedRW:
			if reduced[e.Obj] {
				a.Verdict = maxVerdict(a.Verdict, DOALLReduction)
				a.Reductions = append(a.Reductions, e.Obj)
				a.UsedPragma = true
			} else if pragmaIndependent {
				// The OpenMP metadata asserts what memory analysis could
				// not prove: the overlapping accesses don't conflict.
				a.UsedPragma = true
			} else if analyzeDSWP(l) {
				a.Verdict = Pipeline
				a.Reason = fmt.Sprintf("carried dependence through %q; %d-stage DSWP pipeline", e.Obj, len(l.Stages))
			} else {
				return LoopAnalysis{Loop: l, Verdict: Sequential,
					Reason: fmt.Sprintf("loop-carried dependence through %q", e.Obj)}
			}
		case PrivateScratch:
			// The object needs per-thread privatization. The OpenMP
			// directive declares it (private clause), but AutoMP cannot
			// exploit that declaration yet — the documented limitation
			// that costs LU/BT/SP/IS their parallelism.
			if exploitPrivatization && (privatized[e.Obj] || pragmaIndependent) {
				continue
			}
			return LoopAnalysis{Loop: l, Verdict: Sequential,
				Reason: fmt.Sprintf("object %q requires privatization (unexploited)", e.Obj)}
		}
	}
	return a
}

func maxVerdict(a, b LoopVerdict) LoopVerdict {
	if b > a {
		return b
	}
	return a
}

// Dep is a node-level dependence edge in the PDG.
type Dep struct {
	From, To int // indices into the function body
	Obj      string
}

// PDG is the program dependence graph over a function's regions.
type PDG struct {
	Fn   *Function
	Deps []Dep
	// preds[i] lists the nodes node i depends on.
	preds [][]int
}

// BuildPDG computes node-level dependences: region B depends on region A
// (A before B) when they touch a common object and at least one writes it.
func BuildPDG(fn *Function) *PDG {
	g := &PDG{Fn: fn, preds: make([][]int, len(fn.Body))}
	for j := 1; j < len(fn.Body); j++ {
		for i := 0; i < j; i++ {
			if obj, dep := conflict(fn.Body[i], fn.Body[j]); dep {
				g.Deps = append(g.Deps, Dep{From: i, To: j, Obj: obj})
				g.preds[j] = append(g.preds[j], i)
			}
		}
	}
	return g
}

func writes(m EffectMode) bool { return m == Write || m == ReadWrite }

func conflict(a, b Node) (string, bool) {
	for _, ea := range a.Reads() {
		for _, eb := range b.Reads() {
			if ea.Obj != eb.Obj {
				continue
			}
			if writes(ea.Mode) || writes(eb.Mode) {
				return ea.Obj, true
			}
		}
	}
	return "", false
}

// Independent reports whether nodes i and j have no path between them
// (directly or transitively), i.e. they may execute concurrently.
func (g *PDG) Independent(i, j int) bool {
	if i == j {
		return false
	}
	if j < i {
		i, j = j, i
	}
	// Reachability i -> j over forward edges.
	reach := map[int]bool{i: true}
	for k := i + 1; k <= j; k++ {
		for _, p := range g.preds[k] {
			if reach[p] {
				reach[k] = true
				break
			}
		}
	}
	return !reach[j]
}
