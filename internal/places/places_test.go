package places

import (
	"reflect"
	"testing"

	"github.com/interweaving/komp/internal/machine"
)

func TestParseAbstract(t *testing.T) {
	topo := ForMachine(machine.XEON8())
	for _, tc := range []struct {
		spec   string
		places int
		first  []int
	}{
		{"threads", 192, []int{0}},
		{"cores", 192, []int{0}},
		{"sockets", 8, cpuSeq(0, 24)},
		{"sockets(4)", 4, cpuSeq(0, 24)},
		{"", 192, []int{0}}, // default = cores
	} {
		p, err := Parse(tc.spec, topo)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		if p.NumPlaces() != tc.places {
			t.Errorf("Parse(%q): %d places, want %d", tc.spec, p.NumPlaces(), tc.places)
		}
		if !reflect.DeepEqual(p.Place(0), tc.first) {
			t.Errorf("Parse(%q): place 0 = %v, want %v", tc.spec, p.Place(0), tc.first)
		}
	}
}

func TestParseAbstractSMT(t *testing.T) {
	m := machine.XEON8()
	m.ThreadsPerCore = 2 // hypothetical HT-on config
	topo := ForMachine(m)
	p, err := Parse("cores", topo)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPlaces() != 192 {
		t.Fatalf("cores with SMT=2: %d places, want 192", p.NumPlaces())
	}
	if want := []int{0, 1}; !reflect.DeepEqual(p.Place(0), want) {
		t.Fatalf("core place 0 = %v, want %v", p.Place(0), want)
	}
	pt, err := Parse("threads", topo)
	if err != nil {
		t.Fatal(err)
	}
	if pt.NumPlaces() != 384 {
		t.Fatalf("threads with SMT=2: %d places, want 384", pt.NumPlaces())
	}
}

func TestParseExplicit(t *testing.T) {
	topo := Flat(16)
	for _, tc := range []struct {
		spec string
		want [][]int
	}{
		{"{0},{4},{8}", [][]int{{0}, {4}, {8}}},
		{"{0:4}", [][]int{{0, 1, 2, 3}}},
		{"{0:4},{4:4}", [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}},
		{"{0:4:2}", [][]int{{0, 2, 4, 6}}},
		{"{0,2,1}", [][]int{{0, 1, 2}}},
	} {
		p, err := Parse(tc.spec, topo)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		got := make([][]int, p.NumPlaces())
		for i := range got {
			got[i] = p.Place(i)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	topo := Flat(8)
	for _, spec := range []string{
		"nodes",     // unknown abstract name
		"cores(0)",  // bad count
		"cores(x)",  // bad count
		"{0:2",      // unbalanced
		"0,1",       // unbraced
		"{9}",       // out of range
		"{0:16}",    // runs out of range
		"{0:2:0}",   // zero stride
		"{a}",       // not a number
		"{0:1:1:1}", // too many fields
		"nodes(2)",  // unknown with count
	} {
		if _, err := Parse(spec, topo); err == nil {
			t.Errorf("Parse(%q): want error, got none", spec)
		}
	}
}

func TestParseBind(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want Bind
	}{
		{"false", BindFalse},
		{"true", BindClose},
		{"close", BindClose},
		{"master", BindMaster},
		{"primary", BindMaster},
		{"spread", BindSpread},
		{"SPREAD", BindSpread},
		{"spread,close", BindSpread}, // nesting list: first level wins
	} {
		list, err := ParseBindList(tc.s)
		if err != nil {
			t.Fatalf("ParseBindList(%q): %v", tc.s, err)
		}
		if list[0] != tc.want {
			t.Errorf("ParseBindList(%q)[0] = %v, want %v", tc.s, list[0], tc.want)
		}
	}
	if _, err := ParseBindList("sideways"); err == nil {
		t.Error("ParseBindList(sideways): want error")
	}
	if _, err := ParseBindList("close,sideways"); err == nil {
		t.Error("ParseBindList(close,sideways): want error in later level")
	}
}

// TestAssignCloseMatchesLegacy pins the compatibility contract: close
// binding over the default cores partition with master on CPU 0
// reproduces the historic worker-i-on-CPU-i modulo placement.
func TestParseBindList(t *testing.T) {
	got, err := ParseBindList("spread, close,master")
	if err != nil {
		t.Fatal(err)
	}
	if want := []Bind{BindSpread, BindClose, BindMaster}; !reflect.DeepEqual(got, want) {
		t.Errorf("ParseBindList(spread, close,master) = %v, want %v", got, want)
	}
	got, err = ParseBindList("false")
	if err != nil {
		t.Fatal(err)
	}
	if want := []Bind{BindFalse}; !reflect.DeepEqual(got, want) {
		t.Errorf("ParseBindList(false) = %v, want %v", got, want)
	}
	if _, err := ParseBindList("spread,,close"); err == nil {
		t.Error("ParseBindList(spread,,close): want error for empty level")
	}
}

// TestAssignNested pins the recursive bubble step: an inner team stays
// inside its forking worker's place, subpartitioned per-CPU.
func TestAssignNested(t *testing.T) {
	topo := ForMachine(machine.XEON8())
	p, err := Parse("sockets", topo)
	if err != nil {
		t.Fatal(err)
	}
	masterCPU := 30 // socket 1
	for _, policy := range []Bind{BindClose, BindSpread, BindMaster} {
		cpus := p.AssignNested(4, policy, masterCPU)
		if cpus[0] != masterCPU {
			t.Fatalf("%v: slot 0 = %d, want master CPU %d", policy, cpus[0], masterCPU)
		}
		for i, c := range cpus {
			if p.SocketOf(c) != 1 {
				t.Fatalf("%v: nested slot %d escaped to socket %d (cpu %d)", policy, i, p.SocketOf(c), c)
			}
		}
		if policy == BindMaster {
			// The master's sub-place is a single CPU: everyone packs on it.
			for i, c := range cpus {
				if c != masterCPU {
					t.Fatalf("master: nested slot %d on cpu %d, want %d", i, c, masterCPU)
				}
			}
			continue
		}
		// close/spread: sub-places are single CPUs, so workers land on
		// distinct CPUs of the place while any remain.
		seen := map[int]bool{}
		for _, c := range cpus {
			if seen[c] {
				t.Fatalf("%v: nested team stacked CPUs early: %v", policy, cpus)
			}
			seen[c] = true
		}
	}
	// Oversubscribed inner team: a flat-8 default partition has
	// one-CPU places, so every inner worker stacks on the master CPU.
	flat := cores(t, Flat(8))
	if got, want := flat.AssignNested(3, BindClose, 5), []int{5, 5, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("nested close over one-CPU place = %v, want %v", got, want)
	}
	// Unbound policies stay unbound.
	if got := flat.AssignNested(3, BindFalse, 0); got != nil {
		t.Fatalf("nested BindFalse: got %v, want nil", got)
	}
}

func TestAssignCloseMatchesLegacy(t *testing.T) {
	topo := Flat(8)
	p := cores(t, topo)
	got := p.Assign(8, BindClose, 0)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("close/8 over flat 8 = %v, want %v", got, want)
	}
	// Oversubscribed: 12 threads on 8 CPUs pack ceil(12/8)=2 per place.
	got = p.Assign(12, BindClose, 0)
	want = []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("close/12 over flat 8 = %v, want %v", got, want)
	}
}

func TestAssignSpread(t *testing.T) {
	topo := ForMachine(machine.XEON8())
	p, err := Parse("sockets", topo)
	if err != nil {
		t.Fatal(err)
	}
	// 8 threads over 8 socket-places: one per socket.
	cpus := p.Assign(8, BindSpread, 0)
	socks := make([]int, len(cpus))
	for i, c := range cpus {
		socks[i] = p.SocketOf(c)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(socks, want) {
		t.Fatalf("spread/8 sockets = %v (cpus %v), want %v", socks, cpus, want)
	}
	// 4 threads over 8 places: every other socket.
	cpus = p.Assign(4, BindSpread, 0)
	socks = socks[:0]
	for _, c := range cpus {
		socks = append(socks, p.SocketOf(c))
	}
	if want := []int{0, 2, 4, 6}; !reflect.DeepEqual(socks, want) {
		t.Fatalf("spread/4 sockets = %v, want %v", socks, want)
	}
	// 16 threads over 8 places: two per socket, distinct CPUs.
	cpus = p.Assign(16, BindSpread, 0)
	perSock := map[int]map[int]bool{}
	for _, c := range cpus {
		s := p.SocketOf(c)
		if perSock[s] == nil {
			perSock[s] = map[int]bool{}
		}
		perSock[s][c] = true
	}
	for s, set := range perSock {
		if len(set) != 2 {
			t.Fatalf("spread/16: socket %d hosts %d distinct CPUs, want 2 (cpus %v)", s, len(set), cpus)
		}
	}
}

func TestAssignMaster(t *testing.T) {
	topo := ForMachine(machine.XEON8())
	p, _ := Parse("sockets", topo)
	masterCPU := 30 // socket 1
	cpus := p.Assign(4, BindMaster, masterCPU)
	if cpus[0] != masterCPU {
		t.Fatalf("slot 0 = %d, want master CPU %d", cpus[0], masterCPU)
	}
	for i, c := range cpus {
		if p.SocketOf(c) != 1 {
			t.Fatalf("master-bound slot %d on socket %d (cpu %d), want socket 1", i, p.SocketOf(c), c)
		}
	}
	// Workers use distinct CPUs of the master place while any remain.
	seen := map[int]bool{}
	for _, c := range cpus {
		if seen[c] {
			t.Fatalf("master binding stacked CPUs early: %v", cpus)
		}
		seen[c] = true
	}
}

func TestAssignUnbound(t *testing.T) {
	p := cores(t, Flat(4))
	if got := p.Assign(4, BindFalse, 0); got != nil {
		t.Fatalf("BindFalse: got %v, want nil", got)
	}
	if got := p.Assign(4, BindDefault, 0); got != nil {
		t.Fatalf("BindDefault: got %v, want nil", got)
	}
}

func TestDist(t *testing.T) {
	p := cores(t, ForMachine(machine.XEON8()))
	if d := p.Dist(0, 1); d != 10 {
		t.Errorf("Dist same socket = %d, want 10", d)
	}
	if d := p.Dist(0, 24); d != 21 {
		t.Errorf("Dist cross socket = %d, want 21", d)
	}
	if d := p.Dist(-1, 0); d != 255 {
		t.Errorf("Dist unbound = %d, want 255", d)
	}
}

func TestStealOrderRings(t *testing.T) {
	topo := ForMachine(machine.XEON8())
	p, _ := Parse("sockets", topo)
	// 8 workers spread one per socket, except slots 0/1 share socket 0's
	// place and slots 2/3 share socket 1's.
	cpus := []int{0, 1, 24, 25, 48, 72, 96, 120}
	order, rings := p.StealOrder(0, cpus)
	if len(order) != 7 {
		t.Fatalf("order %v: want 7 victims", order)
	}
	// Ring 0 (same place): slot 1 only. Ring 1 (same socket, different
	// place): none under the sockets partition (place == socket). Remote:
	// everyone else by slot order (all at distance 21).
	if order[0] != 1 {
		t.Fatalf("order %v: first victim should be same-place slot 1", order)
	}
	if rings[0] != 1 || rings[1] != 1 {
		t.Fatalf("rings = %v, want [1 1]", rings)
	}
	if want := []int{1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestStealOrderSameSocketRing(t *testing.T) {
	topo := ForMachine(machine.XEON8())
	p := cores(t, topo) // cores partition: place != socket
	// Worker 0 on CPU 0; slot 1 shares its core place? No — cores are
	// singletons, so ring 0 is empty; slots 1,2 are same-socket, slot 3
	// remote.
	cpus := []int{0, 1, 2, 24}
	order, rings := p.StealOrder(0, cpus)
	if want := []int{1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if rings[0] != 0 || rings[1] != 2 {
		t.Fatalf("rings = %v, want [0 2] (no same-place, two same-socket)", rings)
	}
}

func TestStealOrderUnbound(t *testing.T) {
	p := cores(t, Flat(4))
	cpus := []int{-1, -1, -1, -1}
	order, rings := p.StealOrder(1, cpus)
	if want := []int{0, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("unbound order = %v, want slot order %v", order, want)
	}
	if rings[0] != 0 || rings[1] != 0 {
		t.Fatalf("unbound rings = %v, want [0 0] (all remote)", rings)
	}
}

func TestPHIPartition(t *testing.T) {
	topo := ForMachine(machine.PHI())
	p, err := Parse("sockets", topo)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPlaces() != 1 {
		t.Fatalf("PHI sockets: %d places, want 1", p.NumPlaces())
	}
	if len(p.Place(0)) != 64 {
		t.Fatalf("PHI socket place has %d CPUs, want 64", len(p.Place(0)))
	}
	// Spread and close collapse to the same thing on one socket.
	spread := p.Assign(8, BindSpread, 0)
	for _, c := range spread {
		if p.SocketOf(c) != 0 {
			t.Fatalf("PHI spread left socket 0: %v", spread)
		}
	}
}

func cpuSeq(lo, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = lo + i
	}
	return s
}

// TestShard: tenants are dealt contiguous, disjoint, covering blocks of
// the place list — the tenancy service's socket sharding.
func TestShard(t *testing.T) {
	topo := ForMachine(machine.XEON8())
	p, err := Parse("sockets", topo)
	if err != nil {
		t.Fatal(err)
	}
	// Even split: 8 sockets over 4 shards = 2 places each, in order.
	seen := map[int]bool{}
	next := 0
	for i := 0; i < 4; i++ {
		sh := p.Shard(i, 4)
		if sh.NumPlaces() != 2 {
			t.Fatalf("Shard(%d, 4): %d places, want 2", i, sh.NumPlaces())
		}
		for j := 0; j < sh.NumPlaces(); j++ {
			first := sh.Place(j)[0]
			if want := next * 24; first != want {
				t.Errorf("Shard(%d, 4) place %d starts at CPU %d, want %d", i, j, first, want)
			}
			if seen[first] {
				t.Errorf("Shard(%d, 4): place starting at %d dealt twice", i, first)
			}
			seen[first] = true
			next++
		}
	}
	if next != 8 {
		t.Fatalf("4 shards covered %d places, want all 8", next)
	}
	// Uneven split: 8 places over 3 shards = 3, 3, 2.
	for i, want := range []int{3, 3, 2} {
		if got := p.Shard(i, 3).NumPlaces(); got != want {
			t.Errorf("Shard(%d, 3): %d places, want %d", i, got, want)
		}
	}
	// A shard is a real partition: placement APIs work on it.
	sh := p.Shard(1, 4)
	if cpu := sh.Place(0)[0]; cpu != 48 {
		t.Errorf("Shard(1, 4) starts at CPU %d, want 48", cpu)
	}
	if got := sh.Assign(2, BindSpread, sh.Place(0)[0]); len(got) != 2 {
		t.Errorf("Assign on a shard returned %d CPUs, want 2", len(got))
	}
	// Out-of-range shards panic (configuration bugs, not runtime states).
	for _, bad := range [][2]int{{-1, 4}, {4, 4}, {0, 0}, {0, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shard(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			p.Shard(bad[0], bad[1])
		}()
	}
}

// cores is the partition binding falls back to without OMP_PLACES: one
// place per core.
func cores(t *testing.T, topo Topology) *Partition {
	t.Helper()
	p, err := Parse("cores", topo)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
