// Package places is the topology-aware affinity subsystem: the OpenMP
// places / proc_bind machinery (OMP_PLACES, OMP_PROC_BIND) expressed over
// this repository's machine models.
//
// A Partition is an ordered list of places — disjoint CPU sets — parsed
// from an OMP_PLACES-style specification against a Topology (a machine
// model, or a flat single-socket view for the real layer). The runtime
// asks the partition for a team placement (Assign), for the place or
// socket of a CPU, and for the relative NUMA distance between two CPUs
// (Dist, backed by the machine's zone latency matrix). Everything here is
// pure computation over immutable data: the partition is built once, at
// runtime construction, and read concurrently afterwards.
package places

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/interweaving/komp/internal/machine"
)

// Topology is what the affinity subsystem needs to know about the
// hardware beneath a partition.
type Topology interface {
	// NumCPUs is the hardware thread count.
	NumCPUs() int
	// SocketOf returns the socket owning a CPU.
	SocketOf(cpu int) int
	// CoreOf returns the physical core owning a CPU (equal to the CPU
	// when SMT is off).
	CoreOf(cpu int) int
	// Dist is the relative NUMA distance between two CPUs' memory zones
	// (ACPI SLIT convention: 10 = local).
	Dist(a, b int) int
}

// flatTopo is the topology of an unknown machine: one socket, no SMT,
// uniform memory. The real execution layer uses it — locality still
// degenerates gracefully (every CPU is "near" every other).
type flatTopo struct{ n int }

func (f flatTopo) NumCPUs() int       { return f.n }
func (f flatTopo) SocketOf(int) int   { return 0 }
func (f flatTopo) CoreOf(cpu int) int { return cpu }
func (f flatTopo) Dist(a, b int) int  { return 10 }

// Flat returns the flat single-socket topology over n CPUs.
func Flat(n int) Topology {
	if n < 1 {
		n = 1
	}
	return flatTopo{n}
}

// machineTopo adapts a machine model. machine.Machine already has the
// exact method set, but keeping the adapter explicit avoids the machine
// package depending on this one.
type machineTopo struct{ m *machine.Machine }

func (t machineTopo) NumCPUs() int       { return t.m.NumCPUs() }
func (t machineTopo) SocketOf(c int) int { return t.m.SocketOf(c) }
func (t machineTopo) CoreOf(c int) int   { return t.m.CoreOf(c) }
func (t machineTopo) Dist(a, b int) int  { return t.m.Dist(a, b) }

// ForMachine returns the topology view of a machine model.
func ForMachine(m *machine.Machine) Topology { return machineTopo{m} }

// Bind is an OMP_PROC_BIND thread-affinity policy.
type Bind int

// Binding policies.
const (
	// BindDefault defers to the runtime's legacy Bind flag: true maps to
	// BindClose over the default partition (which reproduces the historic
	// worker-i-on-CPU-i placement), false leaves workers unmanaged.
	BindDefault Bind = iota
	// BindFalse disables affinity: workers are not pinned, and on the
	// simulated layer they migrate between parallel regions the way an
	// unbound thread drifts under a general-purpose scheduler.
	BindFalse
	// BindMaster places every worker in the master's place.
	BindMaster
	// BindClose places workers in consecutive places starting from the
	// master's.
	BindClose
	// BindSpread spreads workers evenly across the whole partition.
	BindSpread
)

func (b Bind) String() string {
	switch b {
	case BindFalse:
		return "false"
	case BindMaster:
		return "master"
	case BindClose:
		return "close"
	case BindSpread:
		return "spread"
	default:
		return "default"
	}
}

// ParseBindList parses the full comma-separated OMP_PROC_BIND list, one
// policy per nesting level (list[0] governs top-level teams, list[1]
// teams forked inside them, ...). Teams deeper than the list inherit its
// last entry, per the spec's "remaining levels use the last value" rule.
func ParseBindList(s string) ([]Bind, error) {
	var list []Bind
	for _, part := range strings.Split(s, ",") {
		var b Bind
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "false":
			b = BindFalse
		case "true", "close":
			b = BindClose
		case "master", "primary":
			b = BindMaster
		case "spread":
			b = BindSpread
		default:
			return nil, fmt.Errorf("places: unknown proc_bind policy %q in %q", part, s)
		}
		list = append(list, b)
	}
	return list, nil
}

// Partition is a parsed OMP_PLACES specification: an ordered list of
// disjoint CPU sets over a topology.
type Partition struct {
	topo   Topology
	spec   string  // canonical spec the partition was built from
	places [][]int // place index -> CPUs, each sorted ascending
	// placeOf maps CPU -> place index (-1 for CPUs in no place).
	placeOf []int
}

// Parse builds a partition from an OMP_PLACES-style specification:
//
//	threads | cores | sockets      abstract names, one place per hardware
//	                               thread / core / socket
//	threads(n) | cores(n) | ...    only the first n such places
//	{lo}, {lo:len}, {lo:len:str}   explicit places: interval lists, each
//	{a,b,c}                        braced item one place
//
// An empty spec means "cores" (the subsystem's default granularity). A
// malformed spec fails with an error naming it.
func Parse(spec string, topo Topology) (*Partition, error) {
	p, err := parse(strings.TrimSpace(spec), topo)
	if err != nil {
		return nil, fmt.Errorf("places: %q: %w", spec, err)
	}
	return p, nil
}

// parse and the helpers below return bare reasons; Parse names the spec.
func parse(s string, topo Topology) (*Partition, error) {
	if s == "" {
		s = "cores"
	}
	p := &Partition{topo: topo, spec: s}
	name := s
	count := -1
	if i := strings.IndexByte(name, '('); i >= 0 && strings.HasSuffix(name, ")") {
		n, err := strconv.Atoi(strings.TrimSpace(name[i+1 : len(name)-1]))
		if err != nil || n < 1 {
			return nil, errors.New("bad place count")
		}
		name, count = strings.TrimSpace(name[:i]), n
	}
	switch strings.ToLower(name) {
	case "threads":
		for cpu := 0; cpu < topo.NumCPUs(); cpu++ {
			p.places = append(p.places, []int{cpu})
		}
	case "cores":
		p.groupBy(topo.CoreOf)
	case "sockets":
		p.groupBy(topo.SocketOf)
	default:
		if count >= 0 {
			return nil, fmt.Errorf("unknown abstract place name %q", name)
		}
		if err := p.parseExplicit(s); err != nil {
			return nil, err
		}
	}
	if count > 0 && count < len(p.places) {
		p.places = p.places[:count]
	}
	if len(p.places) == 0 {
		return nil, errors.New("no places")
	}
	p.index()
	return p, nil
}

// Shard returns sub-partition i of n: the partition's places dealt into
// n contiguous groups (remainder places going to the leading shards, the
// block split every other oracle here uses). It is the tenancy service's
// placement tool — tenant i gets shard i%n of a sockets partition, so
// tenants' teams land on disjoint CPU sets by construction instead of
// interleaving across the whole machine. Out-of-range arguments or a
// shard with no places panic: shard counts are configuration, not data.
func (p *Partition) Shard(i, n int) *Partition {
	if n < 1 || i < 0 || i >= n {
		panic(fmt.Sprintf("places: Shard(%d, %d) out of range", i, n))
	}
	if n > len(p.places) {
		panic(fmt.Sprintf("places: Shard(%d, %d): partition %q has only %d places",
			i, n, p.spec, len(p.places)))
	}
	per, rem := len(p.places)/n, len(p.places)%n
	lo := i*per + min(i, rem)
	hi := lo + per
	if i < rem {
		hi++
	}
	sub := &Partition{
		topo:   p.topo,
		spec:   fmt.Sprintf("%s[%d/%d]", p.spec, i, n),
		places: p.places[lo:hi],
	}
	sub.index()
	return sub
}

// groupBy builds one place per distinct key over the CPU range, in key
// order (keys from CoreOf/SocketOf are non-decreasing in CPU order).
func (p *Partition) groupBy(key func(int) int) {
	var cur []int
	last := -1
	for cpu := 0; cpu < p.topo.NumCPUs(); cpu++ {
		k := key(cpu)
		if k != last && cur != nil {
			p.places = append(p.places, cur)
			cur = nil
		}
		last = k
		cur = append(cur, cpu)
	}
	if cur != nil {
		p.places = append(p.places, cur)
	}
}

// parseExplicit parses a comma-separated list of braced items. Splitting
// on commas must respect braces: "{0,1},{2,3}" is two places.
func (p *Partition) parseExplicit(s string) error {
	depth := 0
	start := 0
	var items []string
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth < 0 {
				return errors.New("unbalanced braces")
			}
		case ',':
			if depth == 0 {
				items = append(items, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return errors.New("unbalanced braces")
	}
	items = append(items, s[start:])
	for _, it := range items {
		it = strings.TrimSpace(it)
		if !strings.HasPrefix(it, "{") || !strings.HasSuffix(it, "}") {
			return fmt.Errorf("explicit place %q must be braced", it)
		}
		cpus, err := p.parsePlace(it[1 : len(it)-1])
		if err != nil {
			return err
		}
		p.places = append(p.places, cpus)
	}
	return nil
}

// parsePlace parses the inside of one braced place: either a plain CPU
// list "a,b,c" or an interval "lo:len[:stride]".
func (p *Partition) parsePlace(body string) ([]int, error) {
	n := p.topo.NumCPUs()
	check := func(cpu int) error {
		if cpu < 0 || cpu >= n {
			return fmt.Errorf("CPU %d out of range [0,%d)", cpu, n)
		}
		return nil
	}
	if strings.ContainsRune(body, ':') {
		parts := strings.Split(body, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("bad interval %q", body)
		}
		nums := make([]int, len(parts))
		for i, pt := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(pt))
			if err != nil {
				return nil, fmt.Errorf("bad interval %q: %v", body, err)
			}
			nums[i] = v
		}
		lo, ln, stride := nums[0], 1, 1
		if len(nums) > 1 {
			ln = nums[1]
		}
		if len(nums) > 2 {
			stride = nums[2]
		}
		if ln < 1 || stride < 1 {
			return nil, fmt.Errorf("bad interval %q: length and stride must be positive", body)
		}
		var cpus []int
		for i := 0; i < ln; i++ {
			cpu := lo + i*stride
			if err := check(cpu); err != nil {
				return nil, err
			}
			cpus = append(cpus, cpu)
		}
		return cpus, nil
	}
	var cpus []int
	for _, pt := range strings.Split(body, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(pt))
		if err != nil {
			return nil, fmt.Errorf("bad CPU list %q: %v", body, err)
		}
		if err := check(v); err != nil {
			return nil, err
		}
		cpus = append(cpus, v)
	}
	sort.Ints(cpus)
	return cpus, nil
}

// index builds the CPU -> place reverse map.
func (p *Partition) index() {
	p.placeOf = make([]int, p.topo.NumCPUs())
	for i := range p.placeOf {
		p.placeOf[i] = -1
	}
	for pi, cpus := range p.places {
		for _, c := range cpus {
			p.placeOf[c] = pi
		}
	}
}

// NumPlaces returns the place count.
func (p *Partition) NumPlaces() int { return len(p.places) }

// Place returns the CPUs of place i (callers must not mutate it).
func (p *Partition) Place(i int) []int { return p.places[i] }

// PlaceOf returns the place index owning a CPU, or -1 when the CPU is in
// no place (or out of range).
func (p *Partition) PlaceOf(cpu int) int {
	if cpu < 0 || cpu >= len(p.placeOf) {
		return -1
	}
	return p.placeOf[cpu]
}

// SocketOf exposes the topology's socket lookup (-1 for unbound CPUs).
func (p *Partition) SocketOf(cpu int) int {
	if cpu < 0 || cpu >= p.topo.NumCPUs() {
		return -1
	}
	return p.topo.SocketOf(cpu)
}

// NumCPUs returns the topology's hardware thread count.
func (p *Partition) NumCPUs() int { return p.topo.NumCPUs() }

// Spec returns the canonical specification the partition was parsed from.
func (p *Partition) Spec() string { return p.spec }

// Dist is the distance oracle: the relative NUMA distance between two
// CPUs' memory zones (10 = same zone), straight from the machine's zone
// latency matrix. Either CPU being unbound (-1) reports the worst
// distance in the partition's topology, the pessimistic assumption the
// steal-order and placement heuristics want for unmanaged threads.
func (p *Partition) Dist(a, b int) int {
	n := p.topo.NumCPUs()
	if a < 0 || b < 0 || a >= n || b >= n {
		return 255
	}
	return p.topo.Dist(a, b)
}

// Assign computes the CPU for each of teamSize workers under a binding
// policy. Slot 0 is the master: it keeps masterCPU (the master is the
// calling thread; the runtime cannot re-pin it), and the pool workers in
// slots 1..teamSize-1 receive place-derived CPUs. Within a place, workers
// round-robin over the place's CPUs; a place hosting more workers than
// CPUs stacks them (oversubscription — the runtime surfaces it).
// BindFalse and BindDefault return nil: no managed placement.
func (p *Partition) Assign(teamSize int, policy Bind, masterCPU int) []int {
	if teamSize < 1 || policy == BindDefault || policy == BindFalse {
		return nil
	}
	master := p.PlaceOf(masterCPU)
	if master < 0 {
		master = 0
	}
	return assignOver(p.places, master, teamSize, policy, masterCPU)
}

// AssignNested computes CPUs for an inner team by subpartitioning the
// forking worker's place: each CPU of that place becomes a single-CPU
// sub-place, and the same assignment walk Assign uses runs over those —
// the recursive step of the bubble hierarchy (spread the outer team
// across places, keep each inner team inside its worker's place). An
// inner team larger than its place oversubscribes (stacks workers per
// CPU), exactly like an overfull place at the top level. A master CPU in
// no place falls back to the whole partition.
func (p *Partition) AssignNested(teamSize int, policy Bind, masterCPU int) []int {
	if teamSize < 1 || policy == BindDefault || policy == BindFalse {
		return nil
	}
	pi := p.PlaceOf(masterCPU)
	if pi < 0 {
		return p.Assign(teamSize, policy, masterCPU)
	}
	pl := p.places[pi]
	sub := make([][]int, len(pl))
	master := 0
	for i, cpu := range pl {
		sub[i] = pl[i : i+1]
		if cpu == masterCPU {
			master = i
		}
	}
	return assignOver(sub, master, teamSize, policy, masterCPU)
}

// assignOver is the policy walk shared by Assign (over the partition's
// places) and AssignNested (over one place's CPUs as sub-places): slot 0
// keeps masterCPU, slots 1..teamSize-1 receive place-derived CPUs with a
// per-place round-robin fill cursor.
func assignOver(places [][]int, master, teamSize int, policy Bind, masterCPU int) []int {
	P := len(places)
	cpus := make([]int, teamSize)
	cpus[0] = masterCPU
	fill := make([]int, P) // per-place next-CPU cursor
	// The master occupies a slot of its place, so slot i's place offset
	// counts from the master's.
	fill[master] = 1
	for i := 1; i < teamSize; i++ {
		var pi int
		switch policy {
		case BindMaster:
			pi = master
		case BindClose:
			if teamSize <= P {
				pi = (master + i) % P
			} else {
				// More threads than places: pack consecutive threads into
				// consecutive places, ceil(T/P) per place.
				per := (teamSize + P - 1) / P
				pi = (master + i/per) % P
			}
		case BindSpread:
			// Thread i owns the i-th of teamSize equal subpartitions and
			// sits at its first place.
			pi = (master + i*P/teamSize) % P
		}
		pl := places[pi]
		cpus[i] = pl[fill[pi]%len(pl)]
		fill[pi]++
	}
	return cpus
}

// StealOrder computes the locality-aware victim sweep for the worker in
// team slot self: teammate slots ordered same place first, then same
// socket, then remote by increasing distance (ties by slot), with the
// ring boundaries returned alongside so the scheduler can rotate within
// each ring independently. cpus[i] is team slot i's CPU (-1 unbound).
func (p *Partition) StealOrder(self int, cpus []int) (order []int, rings []int) {
	my := cpus[self]
	myPlace := p.PlaceOf(my)
	mySock := p.SocketOf(my)
	type cand struct {
		slot, ring, dist int
	}
	cands := make([]cand, 0, len(cpus)-1)
	for s, c := range cpus {
		if s == self {
			continue
		}
		ring, dist := 2, p.Dist(my, c)
		switch {
		case myPlace >= 0 && p.PlaceOf(c) == myPlace:
			ring = 0
		case mySock >= 0 && p.SocketOf(c) == mySock:
			ring = 1
		}
		cands = append(cands, cand{s, ring, dist})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ring != cands[j].ring {
			return cands[i].ring < cands[j].ring
		}
		if cands[i].ring == 2 && cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].slot < cands[j].slot
	})
	order = make([]int, len(cands))
	prev := 0
	for i, c := range cands {
		order[i] = c.slot
		for prev < c.ring {
			rings = append(rings, i)
			prev++
		}
	}
	for len(rings) < 2 {
		rings = append(rings, len(order))
	}
	return order, rings
}
