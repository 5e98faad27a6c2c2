package selfstab

import (
	"fmt"

	"selfstab/internal/geom"
	"selfstab/internal/runtime"
	"selfstab/internal/snapshot"
	"selfstab/internal/traffic"
)

// This file is the world-mutation chokepoint. Every public mutator —
// InjectFaults, SetPositions, the lifecycle calls, the subsystem
// attach/detach pairs, Compact, SetAutoCompact — builds a snapshot.Op
// and hands it to applyOp, which performs the mutation and, on success,
// appends the op (stamped with the current step count) to the journal.
// The journal is therefore complete by construction: there is no code
// path that mutates the world without writing it down, which is what
// makes Network.WriteSnapshot / ReadSnapshot a faithful checkpoint and
// deterministic replay possible at all.
//
// Three mutation sources are deliberately NOT journaled, because replay
// reproduces them without help:
//
//   - Internal schedules. Churn arrivals, energy depletions and
//     auto-compactions are deterministic consequences of the seed and
//     the journaled attach ops; journaling them too would apply them
//     twice on replay.
//   - Performance knobs. SetParallelism and the tile layout are
//     bit-identical by contract (the determinism tests pin this), so
//     they are not part of the world's trajectory.
//   - Failed calls. applyOp journals only after the mutation succeeded,
//     and the lifecycle ops validate every id and status transition
//     up front, so an op that errors has mutated nothing.

// applyOp performs one world mutation and journals it. It is the only
// entry point through which the world changes, shared by the public
// mutators and by snapshot replay (Restore feeds journaled ops back
// through the exact same switch).
func (n *Network) applyOp(op snapshot.Op) error {
	if err := n.dispatchOp(op); err != nil {
		return err
	}
	op.Step = n.engine.StepCount()
	n.oplog = append(n.oplog, op)
	return nil
}

// dispatchOp routes an op to its implementation.
func (n *Network) dispatchOp(op snapshot.Op) error {
	switch op.Kind {
	case snapshot.OpFaults:
		n.engine.Corrupt(op.Frac, runtime.CorruptAll, n.src.Split("faults"))
		return nil
	case snapshot.OpSetPositions:
		return n.setPositionsImpl(op.Points)
	case snapshot.OpAddNodes:
		return n.addNodesImpl(op.Points)
	case snapshot.OpRemoveNodes, snapshot.OpCrashNodes, snapshot.OpSleepNodes, snapshot.OpWakeNodes:
		return n.applyLifecycle(op.Kind, op.IDs)
	case snapshot.OpAttachTraffic:
		if op.Traffic == nil {
			return fmt.Errorf("selfstab: %s op without a traffic config", op.Kind)
		}
		return n.attachTrafficImpl(*op.Traffic)
	case snapshot.OpDetachTraffic:
		n.trafficOn = false
		n.installStepPhases()
		return nil
	case snapshot.OpAttachChurn:
		if op.Churn == nil {
			return fmt.Errorf("selfstab: %s op without a churn config", op.Kind)
		}
		return n.attachChurnImpl(*op.Churn)
	case snapshot.OpDetachChurn:
		n.engine.SetPreStep(nil)
		n.churnAttached = false
		return nil
	case snapshot.OpAttachEnergy:
		if op.Energy == nil {
			return fmt.Errorf("selfstab: %s op without an energy config", op.Kind)
		}
		return n.attachEnergyImpl(*op.Energy)
	case snapshot.OpDetachEnergy:
		n.energyOn = false
		n.installStepPhases()
		return nil
	case snapshot.OpCompact:
		_, err := n.compactImpl()
		return err
	case snapshot.OpSetAutoCompact:
		if op.Frac < 0 || op.Frac > 1 {
			return fmt.Errorf("selfstab: auto-compact fraction %v outside [0, 1]", op.Frac)
		}
		n.autoCompact = op.Frac
		return nil
	case snapshot.OpSpawnFlows:
		if op.Traffic == nil {
			return fmt.Errorf("selfstab: %s op without a traffic config", op.Kind)
		}
		return n.spawnFlowsImpl(*op.Traffic)
	case snapshot.OpScaleDensity:
		return n.scaleDensityImpl(op.IDs, op.Scale)
	case snapshot.OpEvictNodes:
		return n.evictNodesImpl(op.IDs)
	case snapshot.OpSetDefense:
		if op.Defense == nil {
			return fmt.Errorf("selfstab: %s op without a defense config", op.Kind)
		}
		return n.setDefenseImpl(*op.Defense)
	}
	return fmt.Errorf("selfstab: unknown op kind %q", op.Kind)
}

// applyLifecycle applies one journaled lifecycle op (remove, crash,
// sleep, wake) to a list of node identifiers. Indices are resolved and
// status transitions validated up front, so a bad id, a duplicate, or an
// illegal transition fails before ANY node mutates — the journal never
// records a half-applied op, and a half-mutated world never outlives an
// error return.
func (n *Network) applyLifecycle(kind string, ids []int64) error {
	if len(ids) == 0 {
		return fmt.Errorf("selfstab: no node ids")
	}
	idxs := make([]int, len(ids))
	seen := make(map[int64]bool, len(ids))
	for k, id := range ids {
		i, ok := n.IndexOf(id)
		if !ok {
			return fmt.Errorf("selfstab: unknown node id %d", id)
		}
		if seen[id] {
			return fmt.Errorf("selfstab: duplicate node id %d in one call", id)
		}
		seen[id] = true
		st := n.engine.Status(i)
		switch kind {
		case snapshot.OpRemoveNodes, snapshot.OpCrashNodes:
			if st == runtime.StatusDead {
				return fmt.Errorf("selfstab: node %d is already dead", id)
			}
		case snapshot.OpSleepNodes:
			if st != runtime.StatusAlive {
				return fmt.Errorf("selfstab: node %d is %s, cannot sleep", id, statusOf(st))
			}
		case snapshot.OpWakeNodes:
			if st != runtime.StatusSleeping {
				return fmt.Errorf("selfstab: node %d is %s, cannot wake", id, statusOf(st))
			}
		}
		idxs[k] = i
	}
	for _, i := range idxs {
		var err error
		switch kind {
		case snapshot.OpRemoveNodes:
			err = n.removeNodeIdx(i)
		case snapshot.OpCrashNodes:
			err = n.crashNodeIdx(i)
		case snapshot.OpSleepNodes:
			err = n.sleepNodeIdx(i, 0)
		case snapshot.OpWakeNodes:
			err = n.wakeNodeIdx(i)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// --- type conversions between the public option structs and their
// journal records. They are exact: attach ops are journaled exactly as
// given (defaults unfilled), and replay refills them identically.

func toSnapshotPoints(pts []Point) []snapshot.Point {
	out := make([]snapshot.Point, len(pts))
	for i, p := range pts {
		out[i] = snapshot.Point{X: p.X, Y: p.Y}
	}
	return out
}

func fromSnapshotPoints(pts []snapshot.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{X: p.X, Y: p.Y}
	}
	return out
}

func flowToSnapshot(f Flow) (snapshot.Flow, error) {
	var kind string
	switch f.kind {
	case traffic.CBR:
		kind = "cbr"
	case traffic.Poisson:
		kind = "poisson"
	default:
		return snapshot.Flow{}, fmt.Errorf("selfstab: flow with unknown kind %d (build flows with CBRFlow, PoissonFlow or HotspotFlow)", int(f.kind))
	}
	return snapshot.Flow{
		Kind: kind, SrcID: f.srcID, DstID: f.dstID, Rate: f.rate,
		Start: f.start, Stop: f.stop, HotspotSources: f.hotSources,
	}, nil
}

func flowFromSnapshot(sf snapshot.Flow) (Flow, error) {
	var kind traffic.FlowKind
	switch sf.Kind {
	case "cbr":
		kind = traffic.CBR
	case "poisson":
		kind = traffic.Poisson
	default:
		return Flow{}, fmt.Errorf("selfstab: journaled flow with unknown kind %q", sf.Kind)
	}
	return Flow{
		kind: kind, srcID: sf.SrcID, dstID: sf.DstID, rate: sf.Rate,
		start: sf.Start, stop: sf.Stop, hotSources: sf.HotspotSources,
	}, nil
}

func trafficToSnapshot(cfg TrafficConfig) (snapshot.TrafficConfig, error) {
	var disc string
	switch cfg.Discipline {
	case DropTail:
		disc = "droptail"
	case DropHead:
		disc = "drophead"
	default:
		return snapshot.TrafficConfig{}, fmt.Errorf("selfstab: invalid queue discipline %d", int(cfg.Discipline))
	}
	out := snapshot.TrafficConfig{
		QueueCap: cfg.QueueCap, Discipline: disc, Budget: cfg.Budget, TTL: cfg.TTL,
		Flows: make([]snapshot.Flow, len(cfg.Flows)),
	}
	for i, f := range cfg.Flows {
		sf, err := flowToSnapshot(f)
		if err != nil {
			return snapshot.TrafficConfig{}, fmt.Errorf("selfstab: flow %d: %w", i, err)
		}
		out.Flows[i] = sf
	}
	return out, nil
}

func trafficFromSnapshot(sc snapshot.TrafficConfig) (TrafficConfig, error) {
	out := TrafficConfig{QueueCap: sc.QueueCap, Budget: sc.Budget, TTL: sc.TTL,
		Flows: make([]Flow, len(sc.Flows))}
	switch sc.Discipline {
	case "droptail", "":
		out.Discipline = DropTail
	case "drophead":
		out.Discipline = DropHead
	default:
		return TrafficConfig{}, fmt.Errorf("selfstab: journaled traffic config with unknown discipline %q", sc.Discipline)
	}
	for i, sf := range sc.Flows {
		f, err := flowFromSnapshot(sf)
		if err != nil {
			return TrafficConfig{}, err
		}
		out.Flows[i] = f
	}
	return out, nil
}

func churnToSnapshot(cfg ChurnConfig) snapshot.ChurnConfig {
	return snapshot.ChurnConfig{
		ArrivalRate: cfg.ArrivalRate, DepartureRate: cfg.DepartureRate,
		CrashRate: cfg.CrashRate, SleepRate: cfg.SleepRate,
		SleepSteps: cfg.SleepSteps, MinAlive: cfg.MinAlive,
	}
}

func churnFromSnapshot(sc snapshot.ChurnConfig) ChurnConfig {
	return ChurnConfig{
		ArrivalRate: sc.ArrivalRate, DepartureRate: sc.DepartureRate,
		CrashRate: sc.CrashRate, SleepRate: sc.SleepRate,
		SleepSteps: sc.SleepSteps, MinAlive: sc.MinAlive,
	}
}

func energyToSnapshot(cfg EnergyConfig) snapshot.EnergyConfig {
	return snapshot.EnergyConfig{
		Capacity: cfg.Capacity, IdleHeadCost: cfg.IdleHeadCost,
		IdleMemberCost: cfg.IdleMemberCost, SleepCost: cfg.SleepCost,
		TxCost: cfg.TxCost, RxCost: cfg.RxCost,
		Rotation: cfg.Rotation, RotationLevels: cfg.RotationLevels,
	}
}

func energyFromSnapshot(sc snapshot.EnergyConfig) EnergyConfig {
	return EnergyConfig{
		Capacity: sc.Capacity, IdleHeadCost: sc.IdleHeadCost,
		IdleMemberCost: sc.IdleMemberCost, SleepCost: sc.SleepCost,
		TxCost: sc.TxCost, RxCost: sc.RxCost,
		Rotation: sc.Rotation, RotationLevels: sc.RotationLevels,
	}
}

func defenseToSnapshot(cfg DefenseConfig) snapshot.DefenseConfig {
	return snapshot.DefenseConfig{
		HeadTokens: cfg.HeadAdmission, HeadRate: cfg.HeadRate,
		HeadBurst: cfg.HeadBurst, SourceCap: cfg.SourceCap,
	}
}

func defenseFromSnapshot(sc snapshot.DefenseConfig) DefenseConfig {
	return DefenseConfig{
		HeadAdmission: sc.HeadTokens, HeadRate: sc.HeadRate,
		HeadBurst: sc.HeadBurst, SourceCap: sc.SourceCap,
	}
}
