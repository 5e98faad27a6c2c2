package selfstab

import (
	"errors"
	"fmt"

	"selfstab/internal/runtime"
	"selfstab/internal/snapshot"
)

// This file is the world-mutation chokepoint. Every public mutator —
// InjectFaults, SetPositions, the lifecycle calls, the subsystem
// attach/detach pairs, Compact, SetAutoCompact — builds a snapshot.Op
// and hands it to applyOp (Apply hands one in as given), which validates
// and performs the mutation and, on success, appends the op (stamped
// with the current step count) to the journal.
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
//   - Performance knobs. SetParallelism is bit-identical by contract
//     (the determinism tests pin this), so it is not part of the
//     world's trajectory.
//   - Failed calls. applyOp journals only after the mutation succeeded,
//     and every op validates its whole input up front — ids and status
//     transitions, positions, configs — before it mutates a node or
//     draws from the master rng stream (rng.Split advances its parent),
//     so an op that errors has changed nothing a replay could miss.
//
// The journal owns its memory: applyOp appends a clone of the op, so the
// id, point and flow slices a caller passed in can be reused or edited
// afterwards without rewriting history.

// Op is one world mutation as the journal records it: the record
// WriteSnapshot writes, ReadSnapshot replays and Apply takes. Kind
// selects which payload fields are meaningful; Step is stamped by the
// journal, so Apply ignores it.
type Op = snapshot.Op

// Apply performs one world mutation given as its journal record and
// journals it, exactly as the typed mutator of its kind would: an op
// that fails changes nothing and is not journaled. It is how a mutation
// that arrives as data — over HTTP, say — reaches the world without a
// second vocabulary.
func (n *Network) Apply(op Op) error { return n.applyOp(op) }

// applyOp performs one world mutation and journals it. It is the only
// entry point through which the world changes, shared by the public
// mutators and by snapshot replay (Restore feeds journaled ops back
// through the exact same switch).
func (n *Network) applyOp(op snapshot.Op) error {
	if err := n.dispatchOp(op); err != nil {
		return err
	}
	op = op.Clone()
	op.Step = n.engine.StepCount()
	n.oplog = append(n.oplog, op)
	return nil
}

// dispatchOp routes an op to its implementation.
func (n *Network) dispatchOp(op snapshot.Op) error {
	switch op.Kind {
	case snapshot.OpFaults:
		if op.Frac <= 0 {
			return fmt.Errorf("selfstab: fault fraction %v <= 0", op.Frac)
		}
		n.engine.Corrupt(op.Frac, runtime.CorruptAll, n.src.Split("faults"))
		return nil
	case snapshot.OpSetPositions:
		return n.setPositionsImpl(op.Points)
	case snapshot.OpAddNodes:
		return n.addNodesImpl(op.Points)
	case snapshot.OpRemoveNodes:
		return n.applyToNodes(op.IDs, notDead("is already dead"), n.removeNodeIdx)
	case snapshot.OpCrashNodes:
		return n.applyToNodes(op.IDs, notDead("is already dead"), n.crashNodeIdx)
	case snapshot.OpSleepNodes:
		return n.applyToNodes(op.IDs, only(runtime.StatusAlive, "sleep"), func(i int) error { return n.engine.Sleep(i, 0) })
	case snapshot.OpWakeNodes:
		return n.applyToNodes(op.IDs, only(runtime.StatusSleeping, "wake"), n.engine.Wake)
	case snapshot.OpAttachTraffic:
		if op.Traffic == nil {
			return fmt.Errorf("selfstab: %s op without a traffic config", op.Kind)
		}
		return n.attachTrafficImpl(*op.Traffic)
	case snapshot.OpDetachTraffic:
		n.trafficOn = false
		return nil
	case snapshot.OpAttachChurn:
		if op.Churn == nil {
			return fmt.Errorf("selfstab: %s op without a churn config", op.Kind)
		}
		return n.attachChurnImpl(*op.Churn)
	case snapshot.OpDetachChurn:
		n.churnAttached = false
		return nil
	case snapshot.OpAttachEnergy:
		if op.Energy == nil {
			return fmt.Errorf("selfstab: %s op without an energy config", op.Kind)
		}
		return n.attachEnergyImpl(*op.Energy)
	case snapshot.OpDetachEnergy:
		n.energyOn = false
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
		if op.Traffic == nil || len(op.Traffic.Flows) == 0 {
			return fmt.Errorf("selfstab: %s op without flows", op.Kind)
		}
		return n.spawnFlowsImpl(op.Traffic.Flows)
	case snapshot.OpScaleDensity:
		return n.scaleDensityImpl(op.IDs, op.Scale)
	case snapshot.OpEvictNodes:
		return n.applyToNodes(op.IDs, notDead("is dead"), n.evictNodeIdx)
	case snapshot.OpSetDefense:
		if op.Defense == nil {
			return fmt.Errorf("selfstab: %s op without a defense config", op.Kind)
		}
		return n.setDefenseImpl(*op.Defense)
	}
	return fmt.Errorf("selfstab: unknown op kind %q", op.Kind)
}

// resolve maps identifiers to indices, rejecting an empty list, unknown
// ids, duplicates, and any node whose status allow refuses (allow's error
// is what follows "node <id> " in the complaint: "is already dead") — all
// before the caller mutates anything, so the journal never records a
// half-applied op and a half-mutated world never outlives an error
// return.
func (n *Network) resolve(ids []int64, allow func(runtime.NodeStatus) error) ([]int, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("selfstab: no node ids")
	}
	idxs := make([]int, len(ids))
	seen := make(map[int64]bool, len(ids))
	for k, id := range ids {
		i, ok := n.IndexOf(id)
		if !ok {
			return nil, fmt.Errorf("selfstab: unknown node id %d", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("selfstab: duplicate node id %d in one call", id)
		}
		seen[id] = true
		if err := allow(n.engine.Status(i)); err != nil {
			return nil, fmt.Errorf("selfstab: node %d %v", id, err)
		}
		idxs[k] = i
	}
	return idxs, nil
}

// notDead is the resolve predicate of ops that apply to any node still
// in the world, awake or asleep.
func notDead(complaint string) func(runtime.NodeStatus) error {
	return func(st runtime.NodeStatus) error {
		if st == runtime.StatusDead {
			return errors.New(complaint)
		}
		return nil
	}
}

// only is the resolve predicate of ops that apply to one status.
func only(want runtime.NodeStatus, verb string) func(runtime.NodeStatus) error {
	return func(st runtime.NodeStatus) error {
		if st != want {
			return fmt.Errorf("is %s, cannot %s", st, verb)
		}
		return nil
	}
}

// applyToNodes runs apply on every listed node, once resolve has
// accepted the whole list.
func (n *Network) applyToNodes(ids []int64, allow func(runtime.NodeStatus) error, apply func(i int) error) error {
	idxs, err := n.resolve(ids, allow)
	if err != nil {
		return err
	}
	for _, i := range idxs {
		if err := apply(i); err != nil {
			return err
		}
	}
	return nil
}
