package places

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzPlacesParse: an OMP_PLACES value must never panic Parse over a flat
// machine of 1..64 CPUs; an error names the value, and an accepted one
// yields non-empty places of in-range CPUs.
func FuzzPlacesParse(f *testing.F) {
	for _, s := range []string{
		"threads", "cores", "sockets", "sockets(4)", "",
		"{0},{4},{8}", "{0:4}", "{0:4},{4:4}", "{0:4:2}", "{0,2,1}", "{0:2},{2:2},{4:2},{6:2}",
		"nodes", "cores(0)", "cores(x)", "{0:2", "0,1", "{9}", "{0:16}", "{0:2:0}", "{a}", "{0:1:1:1}", "nodes(2)",
	} {
		f.Add(s, uint8(16))
	}
	f.Fuzz(func(t *testing.T, spec string, ncpu uint8) {
		n := int(ncpu)%64 + 1
		p, err := Parse(spec, Flat(n))
		if err != nil {
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", spec)) {
				t.Fatalf("Parse(%q) error %q does not name the value", spec, err)
			}
			return
		}
		for i := 0; i < p.NumPlaces(); i++ {
			if len(p.Place(i)) == 0 {
				t.Fatalf("Parse(%q): place %d is empty", spec, i)
			}
			for _, cpu := range p.Place(i) {
				if cpu < 0 || cpu >= n {
					t.Fatalf("Parse(%q): place %d holds CPU %d of %d", spec, i, cpu, n)
				}
			}
		}
	})
}

// FuzzParseBindList: an OMP_PROC_BIND value must never panic; an error
// names the value, and an accepted one is a non-empty list of concrete
// policies.
func FuzzParseBindList(f *testing.F) {
	for _, s := range []string{
		"false", "true", "close", "master", "primary", "spread", "SPREAD", "spread,close",
		"sideways", "close,sideways", "spread, close,master", "spread,,close",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		list, err := ParseBindList(s)
		if err != nil {
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", s)) {
				t.Fatalf("ParseBindList(%q) error %q does not name the value", s, err)
			}
			return
		}
		if len(list) == 0 {
			t.Fatalf("ParseBindList(%q) accepted an empty list", s)
		}
		for _, b := range list {
			if b != BindFalse && b != BindMaster && b != BindClose && b != BindSpread {
				t.Fatalf("ParseBindList(%q) yields %v", s, b)
			}
		}
	})
}
