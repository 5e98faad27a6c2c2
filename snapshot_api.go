package selfstab

import (
	"fmt"
	"io"

	"selfstab/internal/snapshot"
)

// WriteSnapshot checkpoints the simulation as one versioned JSON
// document: the construction blueprint (deployment, options, seed), the
// complete journal of world mutations with the step each was applied at,
// and the current step count. The snapshot is deterministic — identical
// worlds encode to identical bytes — and self-contained: ReadSnapshot
// rebuilds a bit-identical world from it in a fresh process.
//
// Call between steps (never from a hook, and never concurrently with
// Step); the serving layer takes its world lock around this.
func (n *Network) WriteSnapshot(w io.Writer) error {
	bp := snapshot.Blueprint{Deploy: n.deploy, Options: n.cfg}
	return snapshot.New(bp, n.oplog, n.engine.StepCount()).Encode(w)
}

// ReadSnapshot restores a simulation from a snapshot written by
// WriteSnapshot. The world is rebuilt through the same construction path
// as the original (consuming the master seed's split streams in the same
// order) and the journal is replayed through the same op-apply
// chokepoint the live calls went through, so every subsystem's private
// state — engine nodes and frontier, the unit-disk grid, traffic
// queues and ledgers, energy batteries, open churn episodes — comes back
// bit-identical to the original at the snapshot step. Continuing both
// worlds with the same subsequent ops yields bit-identical trajectories
// (the replay oracle test pins this at 1 and 4 workers).
//
// Restore cost is proportional to the snapshot's step count: the journal
// replays the original execution rather than deserializing raw arrays.
// That trade keeps the format small, versionable and independent of
// every internal memory layout — and it is exactly the time-travel
// debugging primitive: replay to any step at or before the checkpoint.
//
// A snapshot with a mismatched format version is rejected with a clear
// error before any reconstruction happens.
func ReadSnapshot(r io.Reader) (*Network, error) {
	doc, err := snapshot.Decode(r)
	if err != nil {
		return nil, err
	}
	return restore(doc)
}

// restore rebuilds and replays one decoded snapshot document.
func restore(doc *snapshot.Snapshot) (*Network, error) {
	n, err := construct(doc.Blueprint.Deploy, doc.Blueprint.Options)
	if err != nil {
		return nil, fmt.Errorf("selfstab: restore: %w", err)
	}
	advanceTo := func(step int) error {
		for n.engine.StepCount() < step {
			if err := n.Step(); err != nil {
				return fmt.Errorf("selfstab: restore: replay step %d: %w", n.engine.StepCount(), err)
			}
		}
		return nil
	}
	for k, op := range doc.Ops {
		if err := advanceTo(op.Step); err != nil {
			return nil, err
		}
		// applyOp re-journals the op at the same step, so the restored
		// world's own journal — and hence its next snapshot — is complete.
		if err := n.applyOp(op); err != nil {
			return nil, fmt.Errorf("selfstab: restore: replay op %d (%s at step %d): %w", k, op.Kind, op.Step, err)
		}
	}
	if err := advanceTo(doc.Header.Step); err != nil {
		return nil, err
	}
	return n, nil
}
