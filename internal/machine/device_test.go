package machine

import "testing"

func TestDefaultDeviceGeometry(t *testing.T) {
	d := DefaultDevice(16, 64)
	if d.CUs != 16 || d.LanesPerCU != 64 {
		t.Fatalf("geometry %+v, want 16x64", d)
	}
	if d.Name != "ACC16x64" {
		t.Errorf("Name = %q, want ACC16x64", d.Name)
	}
	// Geometry scales capability; the per-unit characteristics stay
	// fixed so CU sweeps isolate parallelism.
	small := DefaultDevice(2, 8)
	if small.MemLatencyNS != d.MemLatencyNS || small.MemBWperCU != d.MemBWperCU ||
		small.LinkBW != d.LinkBW || small.KernelLaunchNS != d.KernelLaunchNS {
		t.Errorf("per-unit characteristics vary with geometry: %+v vs %+v", small, d)
	}
}

// TestDefaultDeviceInvalidGeometryPanics documents the contract: a
// non-positive geometry is a modeling bug, not a runtime condition.
func TestDefaultDeviceInvalidGeometryPanics(t *testing.T) {
	for _, g := range []struct{ cus, lanes int }{{0, 32}, {8, 0}, {-1, 32}, {8, -4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DefaultDevice(%d, %d) must panic", g.cus, g.lanes)
				}
			}()
			DefaultDevice(g.cus, g.lanes)
		}()
	}
}

// TestTransferNS: a transfer occupies the DMA engine for link latency
// plus bytes over bandwidth; a zero-byte op still pays the setup.
func TestTransferNS(t *testing.T) {
	d := DefaultDevice(8, 32)
	if got := d.TransferNS(0); got != d.LinkLatencyNS {
		t.Errorf("TransferNS(0) = %d, want the bare link latency %d", got, d.LinkLatencyNS)
	}
	bytes := int64(1 << 20)
	want := d.LinkLatencyNS + int64(float64(bytes)/d.LinkBW)
	if got := d.TransferNS(bytes); got != want {
		t.Errorf("TransferNS(%d) = %d, want %d", bytes, got, want)
	}
	if d.TransferNS(2*bytes) <= d.TransferNS(bytes) {
		t.Error("TransferNS must grow with the byte count")
	}
}

// TestWithDeviceComposes: WithDevice attaches the accelerator to any
// host model and returns the same machine for chaining.
func TestWithDeviceComposes(t *testing.T) {
	m := PHI()
	if m.Dev != nil {
		t.Fatal("PHI ships with a device attached; the test premise is wrong")
	}
	if got := WithDevice(m, 8, 32); got != m {
		t.Error("WithDevice must return its argument for chaining")
	}
	if m.Dev == nil || m.Dev.CUs != 8 || m.Dev.LanesPerCU != 32 {
		t.Errorf("attached device %+v, want 8x32", m.Dev)
	}
}
