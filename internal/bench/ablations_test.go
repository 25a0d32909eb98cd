package bench

import (
	"io"
	"strings"
	"testing"
)

func TestAblationRegistry(t *testing.T) {
	abs := Ablations()
	if len(abs) != 12 {
		t.Fatalf("ablations = %d", len(abs))
	}
	for _, id := range []string{"ab-firsttouch", "ab-pthread", "ab-chunk", "ab-privatization", "barrier", "tasking", "affinity", "faults", "cancel", "nested", "tenancy", "offload"} {
		if _, ok := AblationByID(id); !ok {
			t.Fatalf("missing %s", id)
		}
	}
	if _, ok := AblationByID("ab-nope"); ok {
		t.Fatal("bogus ablation resolved")
	}
}

func TestAblationFirstTouchShowsGap(t *testing.T) {
	var b strings.Builder
	if err := AblationFirstTouch(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "first-touch") || !strings.Contains(out, "immediate") {
		t.Fatalf("ablation output malformed:\n%s", out)
	}
}

func TestAblationPthreadCustomWins(t *testing.T) {
	var b strings.Builder
	if err := AblationPthread(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "barrier round") {
		t.Fatalf("malformed:\n%s", out)
	}
}

func TestAblationChunkRuns(t *testing.T) {
	var b strings.Builder
	if err := AblationChunk(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "single task") {
		t.Fatalf("malformed:\n%s", b.String())
	}
}

// TestAblationBarrierShape checks the topology study's output: all three
// algorithms appear, and the fused-reduction comparison line is present.
// (The quantitative ≥2× hier-vs-flat claim is asserted by the omp
// package's TestHierBeatsFlatAtScale at the same 192-core scale.)
func TestAblationBarrierShape(t *testing.T) {
	var b strings.Builder
	if err := AblationBarrier(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"flat", "tree", "hier", "fused Reduce", "2 flat barriers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationTaskingShape(t *testing.T) {
	// AblationTasking itself errors when Chase–Lev fails to beat the
	// mutex deque at the top scale or the steal distribution collapses,
	// so a clean return is most of the assertion.
	var b strings.Builder
	if err := AblationTasking(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"chase-lev", "mutex", "spread OK", "nk-automp"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationAffinityShape(t *testing.T) {
	// AblationAffinity itself errors when a close-bound team on the
	// affinity schedule fails to measurably beat the unbound baseline
	// under a roving master, so a clean return is most of the assertion.
	var b strings.Builder
	if err := AblationAffinity(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"close", "spread", "affinity", "faster", "locality immaterial", "near", "rr"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationCancelShape(t *testing.T) {
	// AblationCancel itself errors when tree propagation fails to beat
	// flat polling at the top scale or a fault-composed run double-counts
	// a chunk, so a clean return is most of the assertion.
	var b strings.Builder
	if err := AblationCancel(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"cancel-flat", "cancel-tree", "deadline+off", "deadline+storm", "yes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NO (chunk ran twice)") {
		t.Fatalf("fault-composed abort double-counted a chunk:\n%s", out)
	}
}

// TestAblationOffloadShape: AblationOffload itself errors when a league
// reduction is wrong, the largest device fails to beat host-serial, or
// target-data hoisting fails to cut map traffic, so a clean return is
// most of the assertion; the records must carry the device geometry and
// both map-traffic strategies.
func TestAblationOffloadShape(t *testing.T) {
	rec := &Recorder{}
	if err := AblationOffload(io.Discard, Options{Quick: true, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	var device, tofrom, hoist int
	for _, r := range rec.Records {
		if r.Figure != "offload" || r.Seconds <= 0 {
			t.Fatalf("bad record %+v", r)
		}
		if r.Env == "device" {
			device++
			if r.DeviceCUs <= 0 || r.DeviceLanes <= 0 || r.BytesH2D <= 0 || r.BytesD2H <= 0 {
				t.Fatalf("device record incomplete: %+v", r)
			}
		}
		switch r.Construct {
		case "MAP-TRAFFIC-TOFROM":
			tofrom++
		case "MAP-TRAFFIC-HOIST":
			hoist++
		}
	}
	if device == 0 || tofrom != 1 || hoist != 1 {
		t.Fatalf("records: %d device, %d tofrom, %d hoist; want >0, 1, 1", device, tofrom, hoist)
	}
}

func TestAblationNestedShape(t *testing.T) {
	// AblationNested itself errors when the nested plane sweep fails to
	// beat the serialized baseline at the top scale, so a clean return
	// is most of the assertion.
	var b strings.Builder
	if err := AblationNested(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"hold", "return", "serialized", "nested", "plane sweep"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}

// TestAblationTenancyShape: AblationTenancy itself errors when any of
// its acceptance gates fail — sharded p99 not beating interleaved,
// shallow queues shedding nothing (or the roomy one shedding), no
// rebalance after the transient departs, or the post-rebalance region
// time drifting more than 5% off the single-tenant baseline — so a
// clean return is most of the assertion.
func TestAblationTenancyShape(t *testing.T) {
	rec := &Recorder{}
	var b strings.Builder
	if err := AblationTenancy(&b, Options{Quick: true, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"interleaved", "sharded", "2,reject", "rebalance", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
	// The JSON rows must carry the tenancy schema fields.
	var openLoop, admission int
	for _, r := range rec.Records {
		if r.Figure != "tenancy" {
			t.Fatalf("record figure = %q", r.Figure)
		}
		switch {
		case r.Construct == "OPEN-LOOP":
			openLoop++
			if r.Tenants != 8 || r.P50NS <= 0 || r.P99NS <= 0 {
				t.Fatalf("open-loop record incomplete: %+v", r)
			}
		case strings.HasPrefix(r.Construct, "ADMISSION-"):
			admission++
			if r.QDepth < 0 || r.P99NS <= 0 {
				t.Fatalf("admission record incomplete: %+v", r)
			}
		}
	}
	if openLoop != 2 || admission != 3 {
		t.Fatalf("records = %d open-loop, %d admission; want 2 and 3", openLoop, admission)
	}
}

func TestAblationPrivatizationRecovers(t *testing.T) {
	var b strings.Builder
	if err := AblationPrivatization(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "with privatization") {
		t.Fatalf("malformed:\n%s", out)
	}
}
