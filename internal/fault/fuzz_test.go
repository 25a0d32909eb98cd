package fault

import (
	"reflect"
	"testing"
)

// FuzzFaultParse: a plan Parse accepts renders, through String, to text
// Parse accepts again, and that text is the same plan.
func FuzzFaultParse(f *testing.F) {
	for _, s := range []string{
		"", "none", "  ",
		"seed=42;lostwake=0.01;cpu-offline@2ms:3;cu-offline@1ms:1;irq-storm@500us:0+2ms",
		"lostwake=1.5", "bogus=0.1", "cpu-offline@2ms", "frob@1ms:0", "lostwake=x", "cpu-offline@2ms:zz",
		"lostwake=0.1;bogus=0.2", "lostwake=0.1; cpu-offline@2ms", "cpu-offline@2xs:3",
		"seed=abc", "irq-storm@1ms:0+9qs", "cu-offline@100us:0;cu-offline@150us:1",
		"lostwake=1;irq-storm@3s:2", "cu-offline@0ns:-1;seed=-7",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", s, p.String(), err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("Parse(%q) = %+v, but its rendering %q parses as %+v", s, p, p.String(), again)
		}
	})
}
