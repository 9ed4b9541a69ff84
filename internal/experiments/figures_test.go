package experiments

import "testing"

// figure returns the row of Figures that key selects.
func figure(t *testing.T, key string) Figure {
	t.Helper()
	f, ok := FigureByKey(key)
	if !ok {
		t.Fatalf("no figure %q", key)
	}
	return f
}

// TestFiguresComplete: every row has keys, a label and a run, and no
// selector or label names two rows.
func TestFiguresComplete(t *testing.T) {
	keys, labels := map[string]bool{}, map[string]bool{}
	for _, f := range Figures {
		if f.Label == "" || f.Run == nil || len(f.Keys) == 0 {
			t.Fatalf("incomplete row %q", f.Keys)
		}
		if labels[f.Label] {
			t.Errorf("label %q appears twice", f.Label)
		}
		labels[f.Label] = true
		for _, k := range f.Keys {
			if k == "" || keys[k] {
				t.Errorf("selector %q is empty or appears twice", k)
			}
			keys[k] = true
		}
	}
}
