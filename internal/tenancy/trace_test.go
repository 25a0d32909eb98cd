package tenancy

import (
	"strings"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/sim"
	"github.com/interweaving/komp/internal/trace"
)

// TestTracerTenantSpans: two tenants of one service share pool workers,
// and each numbers its regions and threads from its own origin, so a
// tracer keying open intervals by region or thread number alone lets
// the tenants overwrite each other's. Every ParallelEnd must close one
// parallel span and every SyncAcquired one wait/* span.
func TestTracerTenantSpans(t *testing.T) {
	tr := trace.New()
	sp := ompt.NewSpine()
	trace.Attach(tr, sp)
	rec := ompt.NewRecorder(sp, ompt.SyncAcquired, ompt.ParallelEnd)
	layer := exec.NewSimLayer(sim.New(8, 3), costs())
	if _, err := layer.Run(func(tc exec.TC) {
		svc := New(tc, layer, Config{Workers: 6, Base: omp.Options{Bind: true, Spine: sp}})
		var hs []exec.Handle
		for i := 0; i < 2; i++ {
			ten := svc.Tenant(3)
			hs = append(hs, tc.Spawn("tenant", 4*i, func(ttc exec.TC) {
				for r := 0; r < 3; r++ {
					if err := ten.Parallel(ttc, 3, func(w *omp.Worker) {
						w.TC().Charge(int64(700 * (w.ThreadNum() + i + 1)))
						w.Barrier()
					}); err != nil {
						t.Errorf("tenant %d region %d: %v", i, r, err)
					}
				}
			}))
		}
		for _, h := range hs {
			h.Join(tc)
		}
		svc.Shutdown(tc)
	}); err != nil {
		t.Fatal(err)
	}
	var acquired, ends int
	for _, ev := range rec.Events() {
		if ev.Kind == ompt.SyncAcquired {
			acquired++
		} else {
			ends++
		}
	}
	var waits, regions int
	for _, e := range tr.Events() {
		switch {
		case strings.HasPrefix(e.Name, "wait/"):
			waits++
		case strings.HasPrefix(e.Name, "parallel#"):
			regions++
		}
	}
	if acquired == 0 || waits != acquired {
		t.Errorf("wait spans = %d, want one per SyncAcquired (%d)", waits, acquired)
	}
	if ends != 6 || regions != ends {
		t.Errorf("parallel spans = %d, ParallelEnd events = %d, want 6 each", regions, ends)
	}
}
