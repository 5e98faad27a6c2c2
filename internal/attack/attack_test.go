package attack

import (
	"reflect"
	"strings"
	"testing"
)

// ciConfig selects a scenario on the default (already CI-sized) config.
func ciConfig(scenario string) Config {
	cfg := DefaultConfig()
	cfg.Scenario = scenario
	return cfg
}

// TestFloodDefenseRecovers: under a botnet flood, the defended world's
// legitimate delivery ratio must beat the undefended one, and the
// defense drop counters must show the defenses actually firing.
func TestFloodDefenseRecovers(t *testing.T) {
	r, err := Run(ciConfig(ScenarioFlood))
	if err != nil {
		t.Fatal(err)
	}
	u, d := r.Undefended, r.Defended
	t.Logf("legit delivery: baseline %.3f, undefended %.3f, defended %.3f",
		u.LegitBaseline, u.LegitAttack, d.LegitAttack)
	if u.LegitAttack >= u.LegitBaseline {
		t.Errorf("flood did no damage: attack ratio %.3f >= baseline %.3f", u.LegitAttack, u.LegitBaseline)
	}
	if d.LegitAttack <= u.LegitAttack {
		t.Errorf("defense did not recover delivery: defended %.3f <= undefended %.3f", d.LegitAttack, u.LegitAttack)
	}
	if u.DropsAdmission != 0 || u.DropsRateLimit != 0 {
		t.Errorf("undefended world recorded defense drops: admission %d, ratelimit %d", u.DropsAdmission, u.DropsRateLimit)
	}
	if d.DropsAdmission+d.DropsRateLimit == 0 {
		t.Error("defended world recorded no defense drops — defenses never fired")
	}
}

// TestByzantineCaptureAndEviction: density inflation must capture
// headship in the undefended world; the plausibility sweep must detect
// and evict the liars and end with less captured headship.
func TestByzantineCaptureAndEviction(t *testing.T) {
	r, err := Run(ciConfig(ScenarioByzantine))
	if err != nil {
		t.Fatal(err)
	}
	u, d := r.Undefended, r.Defended
	t.Logf("capture: undefended %.2f, defended %.2f (%d evictions, restab %d steps)",
		u.CaptureRate, d.CaptureRate, d.Evictions, d.StepsToRestabilize)
	if u.CaptureRate == 0 {
		t.Error("inflated densities captured no headship — the attack is a no-op")
	}
	if d.Evictions == 0 {
		t.Error("plausibility sweep evicted nobody")
	}
	if d.CaptureRate >= u.CaptureRate {
		t.Errorf("eviction did not reduce capture: defended %.2f >= undefended %.2f", d.CaptureRate, u.CaptureRate)
	}
	if d.StepsToRestabilize == 0 {
		t.Error("no attack-kind episode in the defended convergence ledger")
	}
}

// TestSybilBurst: the sybil join must disrupt the clustering (an
// episode in the ledger), and the operator removal must restabilize.
func TestSybilBurst(t *testing.T) {
	cfg := ciConfig(ScenarioSybil)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Defended.Evictions != cfg.Sybils {
		t.Errorf("removed %d sybils, joined %d", r.Defended.Evictions, cfg.Sybils)
	}
}

// TestHarnessDeterminism: the same config produces the same report,
// bit for bit — the twin-world comparison is free of sampling noise.
func TestHarnessDeterminism(t *testing.T) {
	cfg := ciConfig(ScenarioFlood)
	cfg.AttackSteps = 40
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reports differ across identical runs:\n%+v\n%+v", a, b)
	}
}

// TestRenderMentionsScenario: the rendered report names the scenario
// and both columns.
func TestRenderMentionsScenario(t *testing.T) {
	cfg := ciConfig(ScenarioFlood)
	cfg.AttackSteps = 40
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	r.Render(&b)
	s := b.String()
	for _, want := range []string{"flood", "undefended", "defended", "legit delivery"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered report missing %q:\n%s", want, s)
		}
	}
}

// TestConfigValidation: bad configs fail fast with clear errors.
func TestConfigValidation(t *testing.T) {
	for _, tt := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"bad scenario", func(c *Config) { c.Scenario = "zerg" }, "unknown scenario"},
		{"tiny network", func(c *Config) { c.Nodes = 3 }, "too small"},
		{"no warmup", func(c *Config) { c.Warmup = 0 }, "must be positive"},
		{"no flows", func(c *Config) { c.Flows = 0 }, "legitimate flow"},
		{"negative workers", func(c *Config) { c.Workers = -3 }, "worker count -3 is negative"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			_, err := Run(cfg)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %v does not mention %q", err, tt.want)
			}
		})
	}
}
