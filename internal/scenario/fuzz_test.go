package scenario

import (
	"strings"
	"testing"
)

// FuzzParse: the scenario spec string arrives from the CLI untrusted;
// whatever the input, Parse must either return a buildable scenario
// whose every epoch has a non-negative truth on every route, or an
// error — never panic (a panic fails the fuzzer automatically).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"steady", "lrd", "flash", "migrate", "twin", "lossy", "reorder",
		"lossy:load=0.7,loss=0.1", "reorder:delay=10ms", "twin:load=0.9",
		"flash:load=0.8",
		"", ":", "steady:", "steady:load=2", "steady:delay=-1ns",
		"steady:load=1e309", "steady:load=NaN", "steady:load=0.5,load=0.6",
		"x:y=z", "steady:frobnicate=1", "steady:load=0.5,,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		// Accepted specs must name a registry scenario and build.
		if !strings.Contains(strings.Join(Names(), " "), s.Name) {
			t.Fatalf("Parse(%q) returned unregistered scenario %q", in, s.Name)
		}
		if _, err := s.Build(1); err != nil {
			t.Fatalf("Parse(%q) accepted an unbuildable scenario: %v", in, err)
		}
		for e := range s.Epochs {
			for r := range s.Spec.Routes {
				if a, _ := s.RouteTruth(e, r); a < 0 {
					t.Fatalf("Parse(%q): epoch %d route %d truth %v < 0", in, e, r, a)
				}
			}
		}
	})
}
