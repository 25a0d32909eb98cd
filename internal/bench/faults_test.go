package bench

import (
	"strings"
	"testing"
)

// TestAblationFaultsRecovers pins the acceptance behavior of the
// resilience study: the shrunken OpenMP team covers every iteration
// exactly once.
func TestAblationFaultsRecovers(t *testing.T) {
	var b strings.Builder
	if err := AblationFaults(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "6/8") { // two CPUs gone, six survivors finished
		t.Errorf("output lacks %q:\n%s", "6/8", out)
	}
	if strings.Contains(out, "BAD") {
		t.Errorf("a shrunken loop lost or repeated iterations:\n%s", out)
	}
}

// TestAblationFaultsDeterministic: two runs with the same seed must be
// byte-identical — the whole point of a seeded fault plan.
func TestAblationFaultsDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := AblationFaults(&a, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if err := AblationFaults(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same-seed runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.String(), b.String())
	}
}
