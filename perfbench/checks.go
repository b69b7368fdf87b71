package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/lending"
	"repro/internal/world"
)

// referenceFile holds the committed digests of the simulated statistics,
// per workload and seed. A speed-only change must reproduce them exactly.
const referenceFile = "reference.json"

// references maps workload -> seed (decimal) -> digest.
type references map[string]map[string]string

// recordReference merges one digest into the reference file at path.
func recordReference(path, workload string, seed uint64, digest string) error {
	refs := references{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &refs); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if refs[workload] == nil {
		refs[workload] = map[string]string{}
	}
	refs[workload][strconv.FormatUint(seed, 10)] = digest
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// worldDigest hashes every simulated statistic a world reports: its
// metrics (counters, series, histograms) and the lending protocol's
// stats. JSON keeps float64 values exact.
func worldDigest(w *world.World) (string, error) {
	return digestOf(struct {
		Metrics *world.Metrics
		Proto   lending.Stats
	}{w.Metrics(), w.Protocol().Stats()})
}

func digestOf(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("encoding statistics for the digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16]), nil
}

// checkLedger verifies stake-mass conservation:
// Staked = Settled + Refunded + Stranded + Pending.
func checkLedger(st lending.Stats) error {
	sum := st.SettledMass + st.RefundedMass + st.StrandedMass + st.PendingMass
	if math.Abs(st.StakedMass-sum) > 1e-9*math.Max(1, st.StakedMass) {
		return fmt.Errorf("stake ledger unbalanced: staked %v != settled+refunded+stranded+pending %v", st.StakedMass, sum)
	}
	return nil
}

// checkWorld verifies the invariants every finished world must satisfy:
// the stake ledger balances, transport messages are conserved, and no
// admitted peer's reputation is negative.
func checkWorld(w *world.World) error {
	if err := checkLedger(w.Protocol().Stats()); err != nil {
		return err
	}
	bs := w.Bus().Stats()
	if bs.Sent != bs.Delivered+bs.Dropped+bs.Crashed+bs.NoRoute {
		return fmt.Errorf("transport not conserved: sent %d != delivered %d + dropped %d + crashed %d + no-route %d",
			bs.Sent, bs.Delivered, bs.Dropped, bs.Crashed, bs.NoRoute)
	}
	for _, pid := range w.AdmittedPeers() {
		if r := w.Reputation(pid); r < 0 || math.IsNaN(r) {
			return fmt.Errorf("admitted peer %s has reputation %v", pid.Short(), r)
		}
	}
	return nil
}

// checkCut verifies that a restored world equals the original at the
// checkpoint cut: metrics, protocol stats, population and pending events.
func checkCut(orig, restored *world.World) error {
	a, err := worldDigest(orig)
	if err != nil {
		return err
	}
	b, err := worldDigest(restored)
	if err != nil {
		return err
	}
	switch {
	case a != b:
		return fmt.Errorf("restored statistics differ from the original at the cut (%s vs %s)", b, a)
	case orig.PopulationSize() != restored.PopulationSize():
		return fmt.Errorf("restored population %d != original %d", restored.PopulationSize(), orig.PopulationSize())
	case orig.Engine().Pending() != restored.Engine().Pending():
		return fmt.Errorf("restored pending events %d != original %d", restored.Engine().Pending(), orig.Engine().Pending())
	case orig.Engine().Now() != restored.Engine().Now():
		return fmt.Errorf("restored clock %d != original %d", restored.Engine().Now(), orig.Engine().Now())
	}
	return nil
}
