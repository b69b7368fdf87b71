package config

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/topology"
)

// TestTable1Defaults pins the paper's Table 1 values (experiment T1).
func TestTable1Defaults(t *testing.T) {
	c := Default()
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"numInit", c.NumInit, 500},
		{"numTrans", c.NumTrans, int64(500000)},
		{"numSM", c.NumSM, 6},
		{"lambda", c.Lambda, 0.01},
		{"fracUncoop", c.FracUncoop, 0.25},
		{"fracNaive", c.FracNaive, 0.3},
		{"errSel", c.ErrSel, 0.10},
		{"topology", c.Topology, topology.PowerLaw},
		{"waitPeriod", c.WaitPeriod, int64(1000)},
		{"auditTrans", c.AuditTrans, 20},
		{"introAmt", c.IntroAmt, 0.1},
		{"reward", c.Reward, 0.02},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %v, want %v", ch.name, ch.got, ch.want)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	// Reward must be 20% of IntroAmt (§4.3 coupling).
	if diff := c.Reward - 0.2*c.IntroAmt; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("reward %v is not 20%% of introAmt %v", c.Reward, c.IntroAmt)
	}
	// MinIntroRep must exceed IntroAmt (§3).
	if c.MinIntroRep <= c.IntroAmt {
		t.Errorf("minIntroRep %v does not exceed introAmt %v", c.MinIntroRep, c.IntroAmt)
	}
}

func TestWithIntroAmt(t *testing.T) {
	c := Default().WithIntroAmt(0.45)
	if c.IntroAmt != 0.45 {
		t.Fatalf("IntroAmt = %v", c.IntroAmt)
	}
	if diff := c.Reward - 0.2*0.45; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("Reward = %v, want 20%% of lent", c.Reward)
	}
	if c.MinIntroRep <= c.IntroAmt {
		t.Fatalf("MinIntroRep %v must be raised above IntroAmt %v", c.MinIntroRep, c.IntroAmt)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("swept config invalid: %v", err)
	}
	// Small amounts keep the default floor.
	c2 := Default().WithIntroAmt(0.05)
	if c2.MinIntroRep != 0.5 {
		t.Fatalf("MinIntroRep changed unnecessarily: %v", c2.MinIntroRep)
	}
}

// TestNumSMBound accepts MaxNumSM and refuses anything above it with an
// error that names the bound.
func TestNumSMBound(t *testing.T) {
	c := Default()
	c.NumSM = MaxNumSM
	if err := c.Validate(); err != nil {
		t.Fatalf("NumSM = MaxNumSM refused: %v", err)
	}
	for _, n := range []int{MaxNumSM + 1, 1 << 20, 1 << 40} {
		c.NumSM = n
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), "MaxNumSM") {
			t.Errorf("NumSM %d: Validate = %v, want an error naming MaxNumSM", n, err)
		}
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative NumInit", func(c *Config) { c.NumInit = -1 }},
		{"zero NumTrans", func(c *Config) { c.NumTrans = 0 }},
		{"zero NumSM", func(c *Config) { c.NumSM = 0 }},
		{"NumSM above MaxNumSM", func(c *Config) { c.NumSM = MaxNumSM + 1 }},
		{"NumSM 2^40", func(c *Config) { c.NumSM = 1 << 40 }},
		{"negative Lambda", func(c *Config) { c.Lambda = -0.1 }},
		{"FracUncoop > 1", func(c *Config) { c.FracUncoop = 1.1 }},
		{"FracNaive < 0", func(c *Config) { c.FracNaive = -0.1 }},
		{"ErrSel > 1", func(c *Config) { c.ErrSel = 2 }},
		{"bad topology", func(c *Config) { c.Topology = "ring" }},
		{"negative WaitPeriod", func(c *Config) { c.WaitPeriod = -5 }},
		{"zero AuditTrans", func(c *Config) { c.AuditTrans = 0 }},
		{"zero IntroAmt", func(c *Config) { c.IntroAmt = 0 }},
		{"MinIntroRep <= IntroAmt", func(c *Config) { c.MinIntroRep = 0.1 }},
		{"AuditThreshold > 1", func(c *Config) { c.AuditThreshold = 1.5 }},
		{"zero FounderRep", func(c *Config) { c.FounderRep = 0 }},
		{"zero SampleEvery", func(c *Config) { c.SampleEvery = 0 }},
	}
	for _, tc := range cases {
		c := Default()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Default()
	orig.Lambda = 0.1
	orig.Seed = 99
	data, err := json.MarshalIndent(orig, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, orig)
	}
}

func TestLoadAppliesDefaults(t *testing.T) {
	got, err := Load([]byte(`{"lambda": 0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Lambda != 0.1 {
		t.Fatalf("lambda = %v", got.Lambda)
	}
	if got.NumInit != 500 || got.NumSM != 6 {
		t.Fatalf("defaults not applied: %+v", got)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	if _, err := Load([]byte(`{"numSM": 0}`)); err == nil {
		t.Fatal("invalid config loaded")
	}
	for _, c := range []struct{ name, in, wantErr string }{
		{"syntax", `{not json`, "parsing"},
		{"unknown field", `{"lamda": 0.3, "seed": 3}`, `"lamda"`},
		{"scenario spec", `{"name": "quickstart", "base": {"numInit": 20}}`, `"name"`},
		{"trailing data", `{"seed": 3} {"seed": 4}`, "trailing data"},
	} {
		if _, err := Load([]byte(c.in)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}
