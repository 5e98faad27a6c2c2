// Package attack is the adversarial evaluation harness: it runs the
// same attack scenario against two bit-identically constructed worlds —
// one undefended, one with the defenses on — and reports the deltas
// that make the defenses measurable. Everything is scored by the
// simulator's existing ledgers: floods by the traffic ledger (legit-flow
// delivery ratio, defense drop counters), byzantine headship capture by
// the hierarchy itself (fraction of liars holding headship) and the
// convergence ledger (steps to restabilize after eviction), and every
// scenario by the energy ledger's drain during the attack window.
//
// Both worlds share one seed, so before the attack diverges them they
// are the same world; every reported difference is attributable to the
// attack and the defense, not to sampling noise. Runs are deterministic
// at any worker count — the determinism tests pin the harness itself.
package attack

import (
	"fmt"
	"io"
	"text/tabwriter"

	"selfstab"
)

// Scenario names accepted by Config.Scenario.
const (
	// ScenarioFlood: Bots compromised nodes each aim a CBR flood of
	// FloodRate packets per step at a current cluster-head. Defense:
	// per-head token-bucket admission plus per-source rate limiting.
	ScenarioFlood = "flood"
	// ScenarioByzantine: Byzantine nodes advertise densities inflated by
	// Scale, capturing headship of their neighborhoods. Defense:
	// periodic density-plausibility detection and eviction.
	ScenarioByzantine = "byzantine"
	// ScenarioSybil: Sybils fake identities join on a ring around a
	// current cluster-head, distorting local densities. Defense: the
	// operator response — removing the sybil identities after detection.
	ScenarioSybil = "sybil"
)

// Config parameterizes one twin-world attack evaluation. The zero value
// is not runnable; start from DefaultConfig.
type Config struct {
	Nodes   int     // network size
	Seed    int64   // master seed, shared by both worlds
	Range   float64 // radio range
	Workers int     // step parallelism (0: GOMAXPROCS workers)

	Scenario    string // flood, byzantine or sybil
	Warmup      int    // steps of legitimate traffic before the attack
	AttackSteps int    // steps under attack

	Flows    int     // legitimate unicast flows carried throughout
	FlowRate float64 // per-flow injection rate (packets per step)

	Bots      int     // flood: compromised nodes
	FloodRate float64 // flood: per-bot injection rate

	Byzantine int     // byzantine: lying nodes
	Scale     float64 // byzantine: density inflation factor

	Sybils      int     // sybil: fake identities per burst
	SybilSpread float64 // sybil: ring radius around the target

	// Defenses (applied only to the defended world).
	HeadRate    float64 // token-bucket refill per head per step
	HeadBurst   float64 // token-bucket capacity
	SourceCap   int     // max injections per source per step
	PlausFactor float64 // density-plausibility detection margin
	EvictEvery  int     // steps between detection sweeps
}

// DefaultConfig returns a CI-sized evaluation: a few hundred nodes,
// attack windows long enough for the deltas to be decisive, defenses
// tuned so legitimate traffic passes untouched.
func DefaultConfig() Config {
	return Config{
		Nodes:       200,
		Seed:        1,
		Range:       0.12,
		Scenario:    ScenarioFlood,
		Warmup:      40,
		AttackSteps: 80,
		Flows:       8,
		FlowRate:    0.25,
		Bots:        12,
		FloodRate:   4,
		Byzantine:   5,
		Scale:       4,
		Sybils:      12,
		SybilSpread: 0.05,
		HeadRate:    0.75,
		HeadBurst:   3,
		SourceCap:   1,
		PlausFactor: 1.2,
		EvictEvery:  10,
	}
}

// ConfigError is the error Run returns for a Config it refuses before
// building either world.
type ConfigError struct{ error }

func (c *Config) validate() error {
	switch c.Scenario {
	case ScenarioFlood, ScenarioByzantine, ScenarioSybil:
	default:
		return fmt.Errorf("attack: unknown scenario %q (want %s, %s or %s)",
			c.Scenario, ScenarioFlood, ScenarioByzantine, ScenarioSybil)
	}
	if c.Workers < 0 {
		return fmt.Errorf("attack: worker count %d is negative", c.Workers)
	}
	if c.Nodes < 8 {
		return fmt.Errorf("attack: %d nodes is too small to attack", c.Nodes)
	}
	if c.Warmup < 1 || c.AttackSteps < 1 {
		return fmt.Errorf("attack: warmup %d and attack window %d must be positive", c.Warmup, c.AttackSteps)
	}
	if c.Flows < 1 {
		return fmt.Errorf("attack: need at least one legitimate flow to measure")
	}
	if c.EvictEvery < 1 {
		return fmt.Errorf("attack: eviction sweep interval %d must be positive", c.EvictEvery)
	}
	return nil
}

// WorldStats is one world's outcome: the attack-window slice of the
// ledgers, plus the scenario-specific score.
type WorldStats struct {
	// LegitBaseline and LegitAttack are the legitimate flows' delivery
	// ratio (delivered over decided-fate) during warmup and during the
	// attack window. Their gap is the attack's damage; the defended
	// world's recovery is the defense's worth.
	LegitBaseline float64
	LegitAttack   float64

	// DropsAdmission and DropsRateLimit are the defense drops during the
	// attack window (zero in the undefended world).
	DropsAdmission int64
	DropsRateLimit int64

	// CaptureRate is the fraction of byzantine nodes holding headship at
	// the end of the attack window (byzantine scenario).
	CaptureRate float64
	// Evictions counts nodes expelled by the plausibility defense (or
	// sybils removed, in the sybil scenario).
	Evictions int
	// StepsToRestabilize is the longest attack-kind disruption episode
	// in the convergence ledger — how long the clustering took to heal.
	StepsToRestabilize int

	// EnergyDrain is the total battery drain during the attack window —
	// the resource-exhaustion cost of the attack (and of defending).
	EnergyDrain float64
}

// Report is the twin-world comparison Run returns.
type Report struct {
	Config     Config
	Undefended WorldStats
	Defended   WorldStats
}

// Run evaluates cfg: the same scenario against an undefended and a
// defended world built from the same seed.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, ConfigError{err}
	}
	und, err := runWorld(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("attack: undefended world: %w", err)
	}
	def, err := runWorld(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("attack: defended world: %w", err)
	}
	return &Report{Config: cfg, Undefended: *und, Defended: *def}, nil
}

// runWorld builds one world, carries legitimate traffic through warmup,
// launches the scenario (with defenses first when defended), and scores
// the attack window.
func runWorld(cfg Config, defended bool) (*WorldStats, error) {
	opts := []selfstab.Option{
		selfstab.WithSeed(cfg.Seed),
		selfstab.WithRange(cfg.Range),
		selfstab.WithCacheTTL(8),
		selfstab.WithStableWindow(10),
	}
	net, err := selfstab.NewRandomNetwork(cfg.Nodes, opts...)
	if err != nil {
		return nil, err
	}
	net.SetParallelism(cfg.Workers)
	if _, err := net.Stabilize(5000); err != nil {
		return nil, err
	}

	// Legitimate flows between tail-of-population endpoints: FloodHeads
	// conscripts its bots from the head of the index order, so the two
	// populations never overlap and the per-source rate limit can bind on
	// bots without touching legitimate sources.
	ids := net.IDs()
	flows := make([]selfstab.Flow, cfg.Flows)
	for i := range flows {
		src := ids[len(ids)-1-i]
		dst := ids[len(ids)/2+i]
		flows[i] = selfstab.CBRFlow(src, dst, cfg.FlowRate)
	}
	if err := net.AttachTraffic(selfstab.TrafficConfig{QueueCap: 32, Flows: flows}); err != nil {
		return nil, err
	}
	// The battery ledger prices the attack; capacity is generous so no
	// battery depletes inside a CI-sized window, and rotation stays off —
	// it would overwrite the byzantine density scales.
	if err := net.AttachEnergy(selfstab.EnergyConfig{Capacity: 1000}); err != nil {
		return nil, err
	}

	if err := net.Run(cfg.Warmup); err != nil {
		return nil, err
	}
	base, err := net.TrafficStats()
	if err != nil {
		return nil, err
	}
	ebase, err := net.EnergyStats()
	if err != nil {
		return nil, err
	}

	var ws WorldStats
	ws.LegitBaseline = legitRatio(base, nil, cfg.Flows)

	if defended && cfg.Scenario == ScenarioFlood {
		err := net.SetTrafficDefense(selfstab.DefenseConfig{
			HeadAdmission: true, HeadRate: cfg.HeadRate, HeadBurst: cfg.HeadBurst,
			SourceCap: cfg.SourceCap,
		})
		if err != nil {
			return nil, err
		}
	}

	var byz []int64
	switch cfg.Scenario {
	case ScenarioFlood:
		if _, err := net.FloodHeads(cfg.Bots, cfg.FloodRate); err != nil {
			return nil, err
		}
	case ScenarioByzantine:
		if byz = nonHeads(net, cfg.Byzantine); len(byz) < cfg.Byzantine {
			return nil, fmt.Errorf("only %d non-head nodes for %d byzantine", len(byz), cfg.Byzantine)
		}
		if err := net.InflateDensity(cfg.Scale, byz...); err != nil {
			return nil, err
		}
	case ScenarioSybil:
		target, ok := firstHead(net)
		if !ok {
			return nil, fmt.Errorf("no cluster-head to target")
		}
		if byz, err = net.SybilJoin(target, cfg.Sybils, cfg.SybilSpread); err != nil {
			return nil, err
		}
	}

	// The attack window, with periodic defense sweeps when defended.
	for left := cfg.AttackSteps; left > 0; {
		chunk := min(cfg.EvictEvery, left)
		if err := net.Run(chunk); err != nil {
			return nil, err
		}
		left -= chunk
		if !defended {
			continue
		}
		switch cfg.Scenario {
		case ScenarioByzantine:
			if bad := net.ImplausibleNodes(cfg.PlausFactor); len(bad) > 0 {
				if err := net.EvictNodes(bad...); err != nil {
					return nil, err
				}
				ws.Evictions += len(bad)
			}
		case ScenarioSybil:
			if len(byz) > 0 { // the operator response: expel the fakes
				if err := net.RemoveNodes(byz...); err != nil {
					return nil, err
				}
				ws.Evictions += len(byz)
				byz = nil
			}
		}
	}

	after, err := net.TrafficStats()
	if err != nil {
		return nil, err
	}
	eafter, err := net.EnergyStats()
	if err != nil {
		return nil, err
	}
	ws.LegitAttack = legitRatio(after, &base, cfg.Flows)
	ws.DropsAdmission = after.DropsAdmission - base.DropsAdmission
	ws.DropsRateLimit = after.DropsRateLimit - base.DropsRateLimit
	ws.EnergyDrain = eafter.TotalDrain - ebase.TotalDrain
	if cfg.Scenario == ScenarioByzantine {
		ws.CaptureRate = captureRate(net, byz)
	}

	// Let the episode close so the convergence ledger scores the attack.
	if _, err := net.Stabilize(20000); err != nil {
		return nil, err
	}
	for _, d := range net.ConvergenceStats().Disruptions {
		if d.Kinds&selfstab.ChurnAttack != 0 && d.StepsToStabilize > ws.StepsToRestabilize {
			ws.StepsToRestabilize = d.StepsToStabilize
		}
	}
	return &ws, nil
}

// legitRatio computes the legitimate flows' delivery ratio — delivered
// over decided-fate packets of the first n flows — as a delta from base
// (nil: since attach). The first n flows are the legitimate ones: spawned
// flood flows append after them.
func legitRatio(ts selfstab.TrafficStats, base *selfstab.TrafficStats, n int) float64 {
	var delivered, decided int64
	for i := 0; i < n && i < len(ts.PerFlow); i++ {
		f := ts.PerFlow[i]
		delivered += f.Delivered
		decided += f.Delivered + f.Dropped
		if base != nil && i < len(base.PerFlow) {
			delivered -= base.PerFlow[i].Delivered
			decided -= base.PerFlow[i].Delivered + base.PerFlow[i].Dropped
		}
	}
	if decided == 0 {
		return 0
	}
	return float64(delivered) / float64(decided)
}

// nonHeads returns the identifiers of the first count alive non-head
// nodes in index order — the deterministic byzantine (and bot) pick.
func nonHeads(net *selfstab.Network, count int) []int64 {
	var ids []int64
	for i := 0; i < net.N() && len(ids) < count; i++ {
		st, err := net.State(i)
		if err != nil {
			continue
		}
		if st.Status == selfstab.NodeAlive && !st.IsHead {
			ids = append(ids, st.ID)
		}
	}
	return ids
}

// firstHead returns the identifier of the first alive cluster-head in
// index order.
func firstHead(net *selfstab.Network) (int64, bool) {
	for i := 0; i < net.N(); i++ {
		st, err := net.State(i)
		if err != nil {
			continue
		}
		if st.Status == selfstab.NodeAlive && st.IsHead {
			return st.ID, true
		}
	}
	return 0, false
}

// captureRate returns the fraction of the given nodes currently holding
// headship.
func captureRate(net *selfstab.Network, ids []int64) float64 {
	if len(ids) == 0 {
		return 0
	}
	want := make(map[int64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	heads := 0
	for i := 0; i < net.N(); i++ {
		st, err := net.State(i)
		if err != nil {
			continue
		}
		if want[st.ID] && st.Status == selfstab.NodeAlive && st.IsHead {
			heads++
		}
	}
	return float64(heads) / float64(len(ids))
}

// Render writes the report as a human-readable comparison table.
func (r *Report) Render(out io.Writer) {
	fmt.Fprintf(out, "attack %s: %d nodes, seed %d, %d warmup + %d attack steps\n",
		r.Config.Scenario, r.Config.Nodes, r.Config.Seed, r.Config.Warmup, r.Config.AttackSteps)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  \tundefended\tdefended\n")
	fmt.Fprintf(w, "  legit delivery (baseline)\t%.3f\t%.3f\n",
		r.Undefended.LegitBaseline, r.Defended.LegitBaseline)
	fmt.Fprintf(w, "  legit delivery (under attack)\t%.3f\t%.3f\n",
		r.Undefended.LegitAttack, r.Defended.LegitAttack)
	if r.Config.Scenario == ScenarioFlood {
		fmt.Fprintf(w, "  admission drops\t%d\t%d\n",
			r.Undefended.DropsAdmission, r.Defended.DropsAdmission)
		fmt.Fprintf(w, "  rate-limit drops\t%d\t%d\n",
			r.Undefended.DropsRateLimit, r.Defended.DropsRateLimit)
	}
	if r.Config.Scenario == ScenarioByzantine {
		fmt.Fprintf(w, "  headship capture rate\t%.2f\t%.2f\n",
			r.Undefended.CaptureRate, r.Defended.CaptureRate)
	}
	if r.Config.Scenario != ScenarioFlood {
		fmt.Fprintf(w, "  evictions\t%d\t%d\n",
			r.Undefended.Evictions, r.Defended.Evictions)
		fmt.Fprintf(w, "  steps to restabilize\t%d\t%d\n",
			r.Undefended.StepsToRestabilize, r.Defended.StepsToRestabilize)
	}
	fmt.Fprintf(w, "  energy drain (attack window)\t%.2f\t%.2f\n",
		r.Undefended.EnergyDrain, r.Defended.EnergyDrain)
	w.Flush()
	if r.Config.Scenario == ScenarioFlood {
		delta := r.Defended.LegitAttack - r.Undefended.LegitAttack
		fmt.Fprintf(out, "defense recovered %+.3f legit delivery ratio under flood\n", delta)
	}
}
