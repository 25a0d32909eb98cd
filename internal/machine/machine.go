// Package machine models the node hardware the paper evaluates on: PHI, a
// 64-core Intel Xeon Phi 7210 with MCDRAM in flat mode, and 8XEON, an
// 8-socket, 192-core Xeon Platinum 8160 server. The models carry exactly
// the properties the experiments depend on: core/socket/NUMA topology,
// clock rate, TLB reach per page size, and memory latency by NUMA
// distance.
package machine

import "fmt"

// ZoneKind distinguishes memory technologies.
type ZoneKind int

// Zone kinds.
const (
	DRAM ZoneKind = iota
	MCDRAM
)

func (k ZoneKind) String() string {
	if k == MCDRAM {
		return "MCDRAM"
	}
	return "DRAM"
}

// Zone is a NUMA memory zone.
type Zone struct {
	ID    int
	Kind  ZoneKind
	Bytes int64
	// CPUs local to the zone (empty for CPU-less zones such as the
	// flat-mode MCDRAM zone on PHI).
	CPUs []int
}

// TLB describes one level of translation caching for a page size.
type TLB struct {
	PageSize int64 // bytes
	Entries  int
}

// Reach returns the address range covered by the TLB.
func (t TLB) Reach() int64 { return t.PageSize * int64(t.Entries) }

// Machine is a node hardware model.
type Machine struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	// ThreadsPerCore is the SMT width (hardware threads per core).
	// 0 means 1 — hyperthreading off, as both paper machines are
	// configured. CPU ids enumerate hardware threads: the threads of one
	// core are consecutive, cores of one socket are consecutive.
	ThreadsPerCore int
	GHz            float64

	Zones []Zone
	// Distance[i][j] is the relative access cost from zone i's CPUs to
	// zone j's memory (10 = local, following the ACPI SLIT convention).
	Distance [][]int

	TLBs []TLB // available page sizes, ascending

	// Memory latencies in nanoseconds.
	LocalLatencyNS  float64
	RemoteLatencyNS float64 // one NUMA hop
	FarLatencyNS    float64 // worst-case hop (e.g. MCDRAM in flat mode, or cross-chassis)

	// Scales is the CPU-count sweep the paper uses on this machine.
	Scales []int

	// Dev is an attached accelerator, or nil for a host-only node. See
	// WithDevice.
	Dev *Device
}

// SMT returns the effective SMT width (ThreadsPerCore, never below 1).
func (m *Machine) SMT() int {
	if m.ThreadsPerCore > 1 {
		return m.ThreadsPerCore
	}
	return 1
}

// NumCPUs returns the total hardware thread count (both paper machines
// run with hyperthreading off, so it equals the core count there).
func (m *Machine) NumCPUs() int { return m.Sockets * m.CoresPerSocket * m.SMT() }

// SocketOf returns the socket that owns the given CPU.
func (m *Machine) SocketOf(cpu int) int { return cpu / (m.CoresPerSocket * m.SMT()) }

// CoreOf returns the physical core that owns the given CPU (equal to the
// CPU id when hyperthreading is off).
func (m *Machine) CoreOf(cpu int) int { return cpu / m.SMT() }

// Dist returns the relative NUMA distance between the zones of two CPUs,
// in the ACPI SLIT convention the Distance matrix uses (10 = local).
func (m *Machine) Dist(a, b int) int {
	za, zb := m.ZoneOf(a), m.ZoneOf(b)
	if za == zb {
		return 10
	}
	return m.Distance[za][zb]
}

// ZoneOf returns the id of the DRAM zone local to the given CPU.
func (m *Machine) ZoneOf(cpu int) int {
	for _, z := range m.Zones {
		for _, c := range z.CPUs {
			if c == cpu {
				return z.ID
			}
		}
	}
	panic(fmt.Sprintf("machine %s: CPU %d not in any zone", m.Name, cpu))
}

// DRAMZones returns the ids of all CPU-attached DRAM zones.
func (m *Machine) DRAMZones() []int {
	var ids []int
	for _, z := range m.Zones {
		if z.Kind == DRAM && len(z.CPUs) > 0 {
			ids = append(ids, z.ID)
		}
	}
	return ids
}

// LatencyNS returns the memory access latency from a CPU to a zone.
func (m *Machine) LatencyNS(cpu, zone int) float64 {
	from := m.ZoneOf(cpu)
	if from == zone {
		return m.LocalLatencyNS
	}
	d := m.Distance[from][zone]
	switch {
	case d <= 10:
		return m.LocalLatencyNS
	case d <= 21:
		return m.RemoteLatencyNS
	default:
		return m.FarLatencyNS
	}
}

// TLBFor returns the TLB level for a page size, or false if the machine
// has no such page size.
func (m *Machine) TLBFor(pageSize int64) (TLB, bool) {
	for _, t := range m.TLBs {
		if t.PageSize == pageSize {
			return t, true
		}
	}
	return TLB{}, false
}

func cpuRange(lo, n int) []int {
	cs := make([]int, n)
	for i := range cs {
		cs[i] = lo + i
	}
	return cs
}

// PHI returns the Colfax Ninja Xeon Phi 7210 model: 64 cores at 1.3 GHz,
// 96 GB DRAM (6-way interleaved, one zone) plus 16 GB MCDRAM exposed as a
// distant CPU-less NUMA zone (flat mode), hyperthreading off.
func PHI() *Machine {
	m := &Machine{
		Name:           "PHI",
		Sockets:        1,
		CoresPerSocket: 64,
		GHz:            1.3,
		Zones: []Zone{
			{ID: 0, Kind: DRAM, Bytes: 96 << 30, CPUs: cpuRange(0, 64)},
			{ID: 1, Kind: MCDRAM, Bytes: 16 << 30},
		},
		Distance: [][]int{
			{10, 31},
			{31, 10},
		},
		TLBs: []TLB{
			{PageSize: 4 << 10, Entries: 256},
			{PageSize: 2 << 20, Entries: 128},
			{PageSize: 1 << 30, Entries: 16},
		},
		LocalLatencyNS:  130,
		RemoteLatencyNS: 180,
		FarLatencyNS:    180,
		Scales:          []int{1, 2, 4, 8, 16, 32, 64},
	}
	return m
}

// XEON8 returns the SuperMicro 7089P-TR4T model: eight 2.1 GHz Xeon
// Platinum 8160 sockets (24 cores each, 192 total), 768 GB DRAM spread
// evenly across eight NUMA zones, hyperthreading off.
func XEON8() *Machine {
	m := &Machine{
		Name:            "8XEON",
		Sockets:         8,
		CoresPerSocket:  24,
		GHz:             2.1,
		LocalLatencyNS:  80,
		RemoteLatencyNS: 135,
		FarLatencyNS:    200,
		TLBs: []TLB{
			{PageSize: 4 << 10, Entries: 1536},
			{PageSize: 2 << 20, Entries: 1536},
			{PageSize: 1 << 30, Entries: 16},
		},
		Scales: []int{1, 2, 4, 8, 16, 24, 48, 96, 192},
	}
	for s := 0; s < 8; s++ {
		m.Zones = append(m.Zones, Zone{
			ID:    s,
			Kind:  DRAM,
			Bytes: 96 << 30,
			CPUs:  cpuRange(s*24, 24),
		})
	}
	m.Distance = make([][]int, 8)
	for i := range m.Distance {
		m.Distance[i] = make([]int, 8)
		for j := range m.Distance[i] {
			if i == j {
				m.Distance[i][j] = 10
			} else {
				m.Distance[i][j] = 21
			}
		}
	}
	return m
}

// ByName returns a new model of the paper machine whose Name is exactly
// name: "PHI" or "8XEON".
func ByName(name string) (*Machine, error) {
	for _, mk := range []func() *Machine{PHI, XEON8} {
		if m := mk(); m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown machine %q (want PHI or 8XEON)", name)
}
