package runtime

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"selfstab/internal/rng"
)

// refEntry, refNode and refIngest are the ingest this package ran before
// ages were derived and senders found by hint: an age word maintained on
// every entry, a binary search per sender, a list walk on every pointer
// inequality and a TTL pass that rewrites every entry. Kept verbatim as
// the reference TestIngestMatchesReference drives the live ingest against.
type refEntry struct {
	frame Frame
	age   int
}

type refNode struct {
	id                                int64
	cache                             []refEntry
	dirty, frameDirty, linksOK, stale bool
}

func (n *refNode) upsert(id int64) (*refEntry, bool) {
	i, found := slices.BinarySearchFunc(n.cache, id, func(e refEntry, id int64) int {
		return cmp.Compare(e.frame.ID, id)
	})
	if !found {
		n.cache = slices.Insert(n.cache, i, refEntry{frame: Frame{ID: id}})
	}
	return &n.cache[i], !found
}

func refIngest[I int | int32](n *refNode, frames []Frame, from []I, sending []bool, proto Protocol) {
	for i := range n.cache {
		n.cache[i].age++
	}
	for _, s := range from {
		if sending != nil && !sending[s] {
			continue
		}
		f := &frames[s]
		if f.ID == n.id {
			continue
		}
		e, added := n.upsert(f.ID)
		relisted, revalued := added, false
		if old := e.frame.Nbrs; old != f.Nbrs {
			relisted = added || !sameList(old.ids(), f.Nbrs.ids())
			revalued = !sameList(old.vals(), f.Nbrs.vals())
			e.frame.Nbrs = f.Nbrs
		}
		scalars := e.frame.TieID != f.TieID || e.frame.Density != f.Density || e.frame.HeadID != f.HeadID
		if relisted || revalued || scalars {
			e.frame = *f
			n.dirty = true
		}
		if relisted {
			n.linksOK = false
		}
		if added || (scalars && proto.Fusion) {
			n.frameDirty = true
		}
		e.age = 0
	}
	n.stale = false
	ttl := proto.CacheTTL
	if ttl <= 0 {
		return
	}
	kept := n.cache[:0]
	for i := range n.cache {
		if n.cache[i].age > ttl {
			continue
		}
		if n.cache[i].age > 0 {
			n.stale = true
		}
		kept = append(kept, n.cache[i])
	}
	if len(kept) != len(n.cache) {
		for i := len(kept); i < len(n.cache); i++ {
			n.cache[i] = refEntry{}
		}
		n.cache = kept
		n.dirty = true
		n.frameDirty = true
		n.linksOK = false
	}
}

// TestIngestMatchesReference drives the live ingest and refIngest through
// the same seeded sequences and requires the same cache after every call:
// entry for entry the same neighbor, scalars and list POINTER, the
// reference's maintained age equal to the derived tick − heard, and the
// same stale bit. Each step some senders move scalars, some relist, the
// delivery row loses a random subset (as an inbox row of int32 slots with
// no mask, and as an adjacency row of int slots under a send mask),
// senders leave the row for good and come back, caches are scribbled the
// way Corrupt scribbles them, and before every call two thirds of the
// position hints are overwritten with garbage — negative, out of range, or
// the index of some other live entry — so a hint trusted without its
// identifier check, or a hit that forgets to stamp heard, fails here. tick starts three
// short of MaxInt32 so ages are read across the wrap.
//
// While senders follow the publish rule (interned: a new list pointer
// only with new identifiers, or under fusion new values) dirty and
// frameDirty must equal the reference's. The "cloned" rows also swap
// lists for equal-content copies; there ingest may only be dirtier than
// the reference (the spurious relist TestSpuriousRelistChangesNothing
// pins), never cleaner.
//
// The link count is held to a recount instead: whenever the node is left
// holding a valid count, the count is the recount's, and after every call
// that leaves it valid it must still be. The reference drops the count on
// every relist, join and eviction; ingest may drop it only where the
// reference does. Relisted ids are drawn mostly from the senders' own
// identifiers, so the rows a delta moves are rarely empty.
func TestIngestMatchesReference(t *testing.T) {
	for _, ttl := range []int{0, 3, 8} {
		for _, fusion := range []bool{false, true} {
			for _, masked := range []bool{false, true} {
				for _, interned := range []bool{true, false} {
					name := fmt.Sprintf("ttl=%d/fusion=%v/masked=%v/interned=%v", ttl, fusion, masked, interned)
					t.Run(name, func(t *testing.T) {
						for seed := int64(1); seed <= 6; seed++ {
							runIngestDifferential(t, seed, Protocol{CacheTTL: ttl, Fusion: fusion}, masked, interned)
						}
					})
				}
			}
		}
	}
}

func runIngestDifferential(t *testing.T, seed int64, proto Protocol, masked, interned bool) {
	const slots, selfID = 28, int64(500)
	src := rng.New(seed)
	// Sender identifiers are a random permutation, as default deployments
	// draw them: slot order is never id order. Slot 0 echoes the node's own
	// identifier, which ingest must skip.
	frames := make([]Frame, slots)
	for s, p := range src.Perm(slots) {
		frames[s].ID = int64(100 + 7*p)
	}
	frames[0].ID = selfID
	relist := func(f *Frame, changeIDs bool) {
		old := f.Nbrs
		ids := old.ids()
		for changeIDs && slices.Equal(ids, old.ids()) {
			ids = make([]int64, 1+src.Intn(9))
			for k := range ids {
				ids[k] = frames[src.Intn(slots)].ID // a sender, the node itself, or a repeat
				if src.Intn(4) == 0 {
					ids[k] = int64(src.Intn(900))
				}
			}
			slices.Sort(ids)
		}
		var vals []NbrValue
		if proto.Fusion {
			vals = make([]NbrValue, len(ids))
			for k := range vals {
				vals[k] = NbrValue{TieID: ids[k], Density: float64(src.Intn(4)), HeadID: int64(src.Intn(900))}
			}
		}
		f.Nbrs = &NbrList{IDs: ids, Vals: vals}
	}
	for s := range frames {
		relist(&frames[s], true)
	}

	fast := &Node{id: selfID, tick: math.MaxInt32 - 3}
	ref := &refNode{id: selfID}
	inRow := make([]bool, slots) // the node's current adjacency
	for s := range inRow {
		inRow[s] = src.Intn(3) > 0
	}
	sending := make([]bool, slots)

	checked := 0 // calls after which a kept count was compared
	for step := 0; step < 120; step++ {
		for s := range frames {
			f := &frames[s]
			switch src.Intn(12) {
			case 0:
				f.Density = float64(src.Intn(5))
			case 1:
				f.HeadID, f.TieID = int64(src.Intn(900)), int64(src.Intn(900))
			case 2:
				relist(f, true)
			case 3:
				if proto.Fusion {
					relist(f, false) // new values over the same identifier slice
				}
			case 4:
				if !interned {
					f.Nbrs = &NbrList{IDs: slices.Clone(f.Nbrs.IDs), Vals: slices.Clone(f.Nbrs.Vals)}
				}
			case 5:
				if src.Intn(4) == 0 {
					inRow[s] = !inRow[s] // vanish for good, or return
				}
			}
		}
		if step%17 == 9 {
			// Corrupt's scribble, the same bytes into both caches: garbage
			// scalars and one private list shared by the two twins so list
			// pointers stay comparable.
			for i := range fast.cache {
				g := Frame{
					ID:      fast.cache[i].frame.ID,
					TieID:   int64(src.Intn(2000) - 1000),
					Density: src.Float64() * 100,
					HeadID:  int64(src.Intn(2000) - 1000),
					Nbrs:    &NbrList{IDs: slices.Clone(fast.cache[i].frame.Nbrs.ids())},
				}
				g.Nbrs.IDs[src.Intn(len(g.Nbrs.IDs))] = int64(src.Intn(2000) - 1000)
				fast.cache[i].frame, ref.cache[i].frame = g, g
			}
			fast.dirty, fast.frameDirty, fast.linksOK = true, true, false
			ref.dirty, ref.frameDirty, ref.linksOK = true, true, false
		}
		for i := range fast.cache {
			switch h := &fast.cache[i].hint; src.Intn(6) {
			case 0:
				*h = -1 - int32(src.Intn(1000))
			case 1:
				*h = int32(len(fast.cache) + src.Intn(1000))
			case 2:
				*h = math.MaxInt32 - int32(src.Intn(2))
			case 3:
				*h = int32(src.Intn(len(fast.cache))) // some live entry, rarely the right one
			} // else what the last ingest left: usually right
		}

		// The delivery row: adjacency in slot order. Unmasked, the medium
		// already dropped what was lost; masked, the row is whole and the
		// mask silences the same senders.
		var row32 []int32
		var row []int
		for s := range frames {
			sending[s] = src.Intn(5) > 0
			switch {
			case !inRow[s]:
			case masked:
				row = append(row, s)
			case sending[s]:
				row32 = append(row32, int32(s))
			}
		}
		if masked {
			ingest(fast, frames, row, sending, proto)
			refIngest(ref, frames, row, sending, proto)
		} else {
			ingest(fast, frames, row32, nil, proto)
			refIngest(ref, frames, row32, nil, proto)
		}

		at := fmt.Sprintf("seed %d step %d", seed, step)
		if len(fast.cache) != len(ref.cache) {
			t.Fatalf("%s: %d entries cached, reference %d", at, len(fast.cache), len(ref.cache))
		}
		for i := range ref.cache {
			got, want := &fast.cache[i], &ref.cache[i]
			if got.frame != want.frame {
				t.Fatalf("%s: entry %d holds %+v, reference %+v", at, i, got.frame, want.frame)
			}
			if age := int(fast.tick - got.heard); age != want.age {
				t.Fatalf("%s: entry %d (id %d) has age %d, reference %d", at, i, got.frame.ID, age, want.age)
			}
		}
		if fast.stale != ref.stale {
			t.Fatalf("%s: stale %v, reference %v", at, fast.stale, ref.stale)
		}
		gotFlags := [2]bool{fast.dirty, fast.frameDirty}
		wantFlags := [2]bool{ref.dirty, ref.frameDirty}
		for k, name := range []string{"dirty", "frameDirty"} {
			if gotFlags[k] != wantFlags[k] && (interned || wantFlags[k]) {
				t.Fatalf("%s: %s = %v, reference %v", at, name, gotFlags[k], wantFlags[k])
			}
		}
		if fast.linksOK {
			checked++
			if want := fast.countLinks(); fast.links != want {
				t.Fatalf("%s: %d links kept, recount %d", at, fast.links, want)
			}
		} else if ref.linksOK && interned {
			t.Fatalf("%s: link count dropped where the reference kept it", at)
		}
		// The guards and the frame phase pay the debts, most steps; R1
		// leaves a valid count.
		clean := src.Intn(4) > 0
		fast.dirty, fast.frameDirty = !clean, !clean
		ref.dirty, ref.frameDirty = !clean, !clean
		if clean {
			fast.links, fast.linksOK = fast.countLinks(), true
			ref.linksOK = true
		}
	}
	if checked == 0 {
		t.Fatal("no ingest ever left a valid link count")
	}
	if fast.tick >= 0 {
		t.Fatalf("tick %d never wrapped", fast.tick)
	}
}
