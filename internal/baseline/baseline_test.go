package baseline

import "testing"

func TestPolicyValues(t *testing.T) {
	cases := []struct {
		p    Policy
		want float64
	}{
		{ComplaintsBased{}, 1.0},
		{PositiveOnly{}, 0.0},
		{MidSpectrum{}, 0.5},
		{FixedCredit{}, 0.1},
	}
	for _, c := range cases {
		if got := c.p.InitialReputation(); got != c.want {
			t.Errorf("%s: InitialReputation = %v, want %v", c.p.Name(), got, c.want)
		}
		if c.p.Name() == "" {
			t.Errorf("%T: empty name", c.p)
		}
	}
}

func TestAllCoversDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range All() {
		if seen[p.Name()] {
			t.Fatalf("duplicate policy name %q", p.Name())
		}
		seen[p.Name()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("All returned %d policies, want 4", len(seen))
	}
}

// TestByName resolves every policy by its report name and the CLI's
// -policy spellings, including the bare fixed-credit alias.
func TestByName(t *testing.T) {
	for _, name := range []string{"complaints-based", "positive-only", "mid-spectrum", "fixed-credit", "fixed-credit(0.1)"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("policy %q: %v", name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
