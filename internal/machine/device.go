package machine

import "fmt"

// Device models a GPU-like accelerator attached to a host node: a grid
// of compute units (CUs), each executing W SIMT lanes in lockstep, with
// its own memory behind its own latency/bandwidth model and a single
// host↔device transfer engine (DMA) over a PCIe-class link. The numbers
// are a deliberately round mid-range datacenter accelerator — what
// matters for the experiments is the *shape* (wide, high-bandwidth,
// high-launch-latency) relative to the host models, not any one part
// number.
type Device struct {
	Name       string
	CUs        int // compute units (independent team slots)
	LanesPerCU int // SIMT width: lanes that advance in lockstep
	GHz        float64

	// MemBytes sizes the separate device memory; mapping more than this
	// fails loudly (device allocators do not overcommit).
	MemBytes int64
	// MemLatencyNS is the device-memory access latency seen by a CU and
	// MemBWperCU the per-CU streaming bandwidth in bytes per nanosecond
	// (GB/s ≈ bytes/ns). Device memory is banked: CUs stream
	// independently up to their per-CU share.
	MemLatencyNS int64
	MemBWperCU   float64

	// The host↔device link: one DMA engine, serially owned. A transfer
	// of b bytes occupies the engine for LinkLatencyNS + b/LinkBW
	// nanoseconds.
	LinkLatencyNS int64
	LinkBW        float64 // bytes per nanosecond

	// KernelLaunchNS is the fixed host-side cost of launching one kernel
	// (driver submit + device dispatch), and BlockSchedNS the device-side
	// cost of dealing one distribute block to a team.
	KernelLaunchNS int64
	BlockSchedNS   int64
}

// TransferNS returns the DMA engine occupancy for moving b bytes across
// the link in either direction.
func (d *Device) TransferNS(b int64) int64 {
	if b <= 0 {
		return d.LinkLatencyNS
	}
	return d.LinkLatencyNS + int64(float64(b)/d.LinkBW)
}

// DefaultDevice builds the reference accelerator model at a given
// geometry: 1.4 GHz CUs, 16 GB of device memory at 350 ns / 32 B/ns per
// CU, a 64 GB/s link with 1.5 µs transfer setup, and a 4 µs kernel
// launch. Geometry scales capability; the per-unit characteristics stay
// fixed so sweeps over CUs isolate parallelism.
func DefaultDevice(cus, lanes int) *Device {
	if cus <= 0 || lanes <= 0 {
		panic(fmt.Sprintf("machine: invalid device geometry %d CUs × %d lanes", cus, lanes))
	}
	return &Device{
		Name:           fmt.Sprintf("ACC%dx%d", cus, lanes),
		CUs:            cus,
		LanesPerCU:     lanes,
		GHz:            1.4,
		MemBytes:       16 << 30,
		MemLatencyNS:   350,
		MemBWperCU:     32,
		LinkLatencyNS:  1500,
		LinkBW:         64,
		KernelLaunchNS: 4000,
		BlockSchedNS:   200,
	}
}

// WithDevice attaches the reference accelerator at the given geometry to
// a host machine model, composing with any host constructor
// (PHI/XEON8). It returns the same machine for chaining.
func WithDevice(m *Machine, cus, lanes int) *Machine {
	m.Dev = DefaultDevice(cus, lanes)
	return m
}
