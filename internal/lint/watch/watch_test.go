package watch

import "testing"

func TestSimPackage(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/world", true},
		{"internal/world", true},
		{"sim.example/internal/sim", true},
		{"repro/internal/lending", true},
		{"repro/internal/checkpoint", true}, // defines checkpoint bytes, reads untrusted files
		{"repro/internal/fleet", false},     // orchestration edge
		{"repro/internal/rng", false},       // the sanctioned wrapper
		{"repro/cmd/replend-sim", false},    // CLI edge
		{"repro/internal/worldview", false}, // suffix must be a full path element
		{"repro/internal/lint/watch", false},
	}
	for _, c := range cases {
		if got := SimPackage(c.path); got != c.want {
			t.Errorf("SimPackage(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
