package tenancy

import "testing"

// FuzzParseQueue: a KOMP_TENANCY_QUEUE value must never panic ParseQueue,
// and an accepted one has a non-negative depth and a known policy.
func FuzzParseQueue(f *testing.F) {
	for _, s := range []string{
		"8", "0", "16,park", "4,reject", " 4 , reject ",
		"", "-1", "x", "4,drop", "4,park,extra",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		depth, pol, err := ParseQueue(s)
		if err != nil {
			return
		}
		if depth < 0 {
			t.Fatalf("ParseQueue(%q) accepted depth %d", s, depth)
		}
		if pol != PolicyPark && pol != PolicyReject {
			t.Fatalf("ParseQueue(%q) yields policy %v", s, pol)
		}
	})
}
