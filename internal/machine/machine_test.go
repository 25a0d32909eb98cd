package machine

import "testing"

func TestPHITopology(t *testing.T) {
	m := PHI()
	if m.NumCPUs() != 64 {
		t.Fatalf("PHI CPUs = %d, want 64", m.NumCPUs())
	}
	if len(m.Zones) != 2 {
		t.Fatalf("PHI zones = %d, want 2 (DRAM + flat MCDRAM)", len(m.Zones))
	}
	if m.Zones[1].Kind != MCDRAM || len(m.Zones[1].CPUs) != 0 {
		t.Fatal("PHI MCDRAM zone must be CPU-less in flat mode")
	}
	if got := m.ZoneOf(63); got != 0 {
		t.Fatalf("ZoneOf(63) = %d, want 0", got)
	}
	if len(m.DRAMZones()) != 1 {
		t.Fatal("PHI must have exactly one CPU-attached DRAM zone")
	}
	// Flat mode: MCDRAM has high distance, so any NUMA-aware OS prefers
	// DRAM (§2.2).
	if m.Distance[0][1] <= m.Distance[0][0] {
		t.Fatal("MCDRAM distance must exceed local DRAM distance")
	}
	if m.Scales[len(m.Scales)-1] != 64 {
		t.Fatal("PHI sweep must end at 64 CPUs")
	}
}

func Test8XEONTopology(t *testing.T) {
	m := XEON8()
	if m.NumCPUs() != 192 {
		t.Fatalf("8XEON CPUs = %d, want 192", m.NumCPUs())
	}
	if m.Sockets != 8 || m.CoresPerSocket != 24 {
		t.Fatalf("8XEON sockets=%d cores=%d, want 8/24", m.Sockets, m.CoresPerSocket)
	}
	if len(m.DRAMZones()) != 8 {
		t.Fatalf("8XEON DRAM zones = %d, want 8", len(m.DRAMZones()))
	}
	if got := m.SocketOf(47); got != 1 {
		t.Fatalf("SocketOf(47) = %d, want 1", got)
	}
	if got := m.ZoneOf(191); got != 7 {
		t.Fatalf("ZoneOf(191) = %d, want 7", got)
	}
	if m.Scales[len(m.Scales)-1] != 192 {
		t.Fatal("8XEON sweep must end at 192 CPUs")
	}
}

func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string // "" when the name must be rejected
	}{
		{"PHI", "PHI"},
		{"8XEON", "8XEON"},
		{"phi", ""},
		{"8xeon", ""},
		{"8XEONS", ""},
		{"XEON8", ""},
		{"BIGIRON64", ""},
		{"", ""},
	} {
		m, err := ByName(tc.name)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("ByName(%q) = %s, want an error", tc.name, m.Name)
		case tc.want != "" && err != nil:
			t.Errorf("ByName(%q): %v", tc.name, err)
		case tc.want != "" && m.Name != tc.want:
			t.Errorf("ByName(%q) = %s, want %s", tc.name, m.Name, tc.want)
		}
	}
}

func TestLatency(t *testing.T) {
	m := XEON8()
	local := m.LatencyNS(0, 0)
	remote := m.LatencyNS(0, 7)
	if !(local < remote) {
		t.Fatalf("local %v must be < remote %v", local, remote)
	}
	if got := m.LatencyNS(25, 1); got != m.LocalLatencyNS {
		t.Fatalf("cpu25->zone1 = %v, want local %v", got, m.LocalLatencyNS)
	}
}

func TestTLBReach(t *testing.T) {
	m := PHI()
	tlb, ok := m.TLBFor(4 << 10)
	if !ok {
		t.Fatal("PHI must have 4K TLB")
	}
	if tlb.Reach() != int64(tlb.Entries)*4096 {
		t.Fatal("reach arithmetic wrong")
	}
	if _, ok := m.TLBFor(12345); ok {
		t.Fatal("bogus page size must not resolve")
	}
}

// TestSMTTopology exercises the hardware-thread helpers on an asymmetric
// hyperthreaded variant: the paper machines run with HT off, but the
// topology math must survive threads-per-core > 1 (places "threads" vs
// "cores" depend on it).
func TestSMTTopology(t *testing.T) {
	m := XEON8()
	m.ThreadsPerCore = 2
	if m.SMT() != 2 {
		t.Fatalf("SMT() = %d, want 2", m.SMT())
	}
	if m.NumCPUs() != 384 {
		t.Fatalf("NumCPUs with SMT=2 = %d, want 384", m.NumCPUs())
	}
	// Threads of one core are consecutive: CPUs 0,1 share core 0; cores
	// of one socket are consecutive: CPUs 0..47 are socket 0.
	if m.CoreOf(0) != 0 || m.CoreOf(1) != 0 || m.CoreOf(2) != 1 {
		t.Fatalf("CoreOf(0,1,2) = %d,%d,%d, want 0,0,1",
			m.CoreOf(0), m.CoreOf(1), m.CoreOf(2))
	}
	if m.SocketOf(47) != 0 || m.SocketOf(48) != 1 {
		t.Fatalf("SocketOf(47,48) = %d,%d, want 0,1",
			m.SocketOf(47), m.SocketOf(48))
	}
	// Default (HT off): SMT() floors at 1 and CoreOf is the identity.
	m2 := PHI()
	if m2.SMT() != 1 {
		t.Fatalf("PHI SMT() = %d, want 1", m2.SMT())
	}
	if m2.CoreOf(63) != 63 {
		t.Fatalf("PHI CoreOf(63) = %d, want 63", m2.CoreOf(63))
	}
}

// TestDist pins the distance oracle on both paper machines: the single
// socket of PHI is uniformly local (MCDRAM is CPU-less, so no CPU pair
// is far apart), while 8XEON splits 10/21 on the socket boundary.
func TestDist(t *testing.T) {
	phi := PHI()
	if d := phi.Dist(0, 63); d != 10 {
		t.Fatalf("PHI Dist(0,63) = %d, want 10 (one socket, one zone)", d)
	}
	x := XEON8()
	if d := x.Dist(0, 23); d != 10 {
		t.Fatalf("8XEON Dist(0,23) = %d, want 10 (same socket)", d)
	}
	if d := x.Dist(0, 24); d != 21 {
		t.Fatalf("8XEON Dist(0,24) = %d, want 21 (one hop)", d)
	}
	if d := x.Dist(24, 0); d != 21 {
		t.Fatalf("8XEON Dist must be symmetric; Dist(24,0) = %d", d)
	}
}

// TestLatencyMatrix walks the full CPU x zone latency matrix on both
// machines: every entry must be one of the three configured latencies,
// local exactly when CPU and zone share a NUMA node, and the far tier
// reached only where the distance matrix says so (MCDRAM on PHI; no
// pair on 8XEON, whose worst hop is 21).
func TestLatencyMatrix(t *testing.T) {
	for _, m := range []*Machine{PHI(), XEON8()} {
		sawFar := false
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			for _, z := range m.Zones {
				got := m.LatencyNS(cpu, z.ID)
				switch {
				case m.ZoneOf(cpu) == z.ID:
					if got != m.LocalLatencyNS {
						t.Fatalf("%s cpu%d->zone%d = %v, want local %v",
							m.Name, cpu, z.ID, got, m.LocalLatencyNS)
					}
				case m.Distance[m.ZoneOf(cpu)][z.ID] > 21:
					sawFar = true
					if got != m.FarLatencyNS {
						t.Fatalf("%s cpu%d->zone%d = %v, want far %v",
							m.Name, cpu, z.ID, got, m.FarLatencyNS)
					}
				default:
					if got != m.RemoteLatencyNS {
						t.Fatalf("%s cpu%d->zone%d = %v, want remote %v",
							m.Name, cpu, z.ID, got, m.RemoteLatencyNS)
					}
				}
			}
		}
		if (m.Name == "PHI") != sawFar {
			t.Fatalf("%s: far tier seen=%v (PHI's MCDRAM is the only far zone)",
				m.Name, sawFar)
		}
	}
}

// TestZoneOfUnknownCPUPanics documents the contract: asking for the zone
// of a CPU the machine does not have is a modeling bug, not a runtime
// condition, so it panics.
func TestZoneOfUnknownCPUPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ZoneOf(9999) must panic")
		}
	}()
	PHI().ZoneOf(9999)
}
