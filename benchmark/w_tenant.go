package main

import (
	"hash/fnv"
	"math/rand"

	komp "github.com/interweaving/komp"
	"github.com/interweaving/komp/internal/omp"
)

// tenant_submit: `threads` tenant handles on one komp.Service, each
// driven closed-loop by its own goroutine. One op is one Submit of a
// static ForEach over 4096 float64s. Three submissions in four ask for
// the full team, so the median is of full-team submissions; the rest
// draw a smaller team. The seed places the small teams in the sequence.
const (
	tenantElems  = 4096
	tenantSeqLen = 64
	tenantProbe  = 64 // elements checked per op, rotating over the array
	tenantQueue  = 64
)

type tenantClient struct {
	h     *komp.OMP
	data  []float64
	teams []uint8
	done  float64 // ops completed: what every element must equal
	body  func(*omp.Worker)
	// The submission in flight.
	tr     *tracer
	op     uint32
	parent spanID
	_      [64]byte
}

type tenantInst struct {
	threads int
	svc     *komp.Service
	cl      []*tenantClient
	hash    uint64
	spoil   float64
}

func newTenantService(threads int) *komp.Service {
	svc, err := komp.NewService(komp.ServiceConfig{MaxInflight: max(1, threads/2), QueueDepth: tenantQueue})
	if err != nil {
		// Only a malformed KOMP_TENANCY_QUEUE in the environment gets here.
		panic("benchmark: komp.NewService: " + err.Error())
	}
	return svc
}

func setupTenants(seed int64, threads int) instance {
	s := &tenantInst{threads: threads, svc: newTenantService(threads)}
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	for c := 0; c < threads; c++ {
		cl := s.newClient(c, threads)
		for k := range cl.teams {
			cl.teams[k] = uint8(threads)
			if k%4 == 3 && threads > 1 {
				cl.teams[k] = uint8(1 + rng.Intn(threads-1))
			}
		}
		rng.Shuffle(len(cl.teams), func(i, j int) { cl.teams[i], cl.teams[j] = cl.teams[j], cl.teams[i] })
		h.Write(cl.teams)
		s.cl = append(s.cl, cl)
	}
	s.hash = h.Sum64()
	return s
}

func (s *tenantInst) newClient(c, threads int) *tenantClient {
	cl := &tenantClient{
		h:     komp.New(threads, komp.WithTenant(s.svc)),
		data:  make([]float64, tenantElems),
		teams: make([]uint8, tenantSeqLen),
	}
	each := func(j int) { cl.data[j]++ }
	base := s.threads + c*s.threads
	cl.body = func(w *omp.Worker) {
		tn := w.ThreadNum()
		b := cl.tr.beginArg(base+tn, spBody, cl.op, 0, cl.parent, tn)
		w.ForEach(0, tenantElems, omp.ForOpt{Sched: omp.Static}, each)
		cl.tr.end(b)
	}
	return cl
}

func (s *tenantInst) clients() int { return len(s.cl) }

func (s *tenantInst) slots() []string { return slotNames(len(s.cl), s.threads) }

func (s *tenantInst) op(c int, i uint32, tr *tracer) bool {
	cl := s.cl[c]
	team := int(cl.teams[int(i)%tenantSeqLen])
	cl.tr, cl.op = tr, i
	cl.parent = tr.beginArg(c, spRegion, i, 0, 0, team)
	err := cl.h.Submit(team, cl.body)
	tr.end(cl.parent)
	if err != nil {
		return false // ErrRejected: the queue never fills with closed-loop clients
	}
	cl.done++
	want := cl.done + s.spoil
	lo := int(i) % (tenantElems / tenantProbe) * tenantProbe
	for _, v := range cl.data[lo : lo+tenantProbe] {
		if v != want {
			return false
		}
	}
	return true
}

func (s *tenantInst) seqHash() uint64 { return s.hash }
func (s *tenantInst) corrupt()        { s.spoil = 1 }

func (s *tenantInst) close() {
	for _, cl := range s.cl {
		cl.h.Close()
	}
	s.svc.Close()
}

func (s *tenantInst) layers(tr *tracer, traced *phase, out metricSet) {
	var admit []float64
	for _, fj := range tr.forkJoins() {
		if fj.team == s.threads {
			admit = append(admit, fj.fork)
		}
	}
	out.set("tenancy.admit_to_body_us_p50", median(admit)/1e3)
	st := s.svc.Stats()
	submitted := float64(st.Admitted + st.Rejected)
	out.set("tenancy.parked_frac", float64(st.Parked)/submitted)
	out.set("tenancy.rejected", float64(st.Rejected))
	out.set("tenancy.rebalances_per_kop", float64(st.Rebalances)/submitted*1e3)
	out.set("tenancy.admitted", float64(st.Admitted))
	lo, hi := traced.perClient[0], traced.perClient[0]
	for _, n := range traced.perClient {
		lo, hi = min(lo, n), max(hi, n)
	}
	out.set("tenancy.fairness_ratio", float64(lo)/float64(hi))
}
