package runtime

import (
	"slices"

	"selfstab/internal/cluster"
	"selfstab/internal/rng"
)

// cacheEntry is the cached copy of a neighbor's last heard frame, plus its
// age in steps (for eviction under mobility and churn). The entry's Nbrs
// pointer ALIASES the sender's published list — published lists are
// immutable (fillFrame builds a fresh one only when the content changed),
// so receivers share one allocation per sender instead of keeping a deep
// copy each, and a whole cached neighborhood costs O(deg) words per node
// instead of O(deg²). Anything that wants to scribble on a cached list
// (fault injection) must privatize it first.
type cacheEntry struct {
	frame Frame
	age   int
}

// neighborCache is a node's neighbor table: one entry per cached neighbor,
// kept sorted by neighbor identifier in a flat slice. The protocol's hot
// loops (frame assembly, density counting, head election) iterate and
// intersect neighbor sets every step, and a sorted slice turns those into
// cache-friendly linear walks and merge scans instead of hash lookups —
// the map-based cache spent almost half of every step hashing.
type neighborCache []cacheEntry

// find returns the index of id, or -1.
func (c neighborCache) find(id int64) int {
	lo, hi := 0, len(c)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c[mid].frame.ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c) && c[lo].frame.ID == id {
		return lo
	}
	return -1
}

// has reports whether id is cached.
func (c neighborCache) has(id int64) bool { return c.find(id) >= 0 }

// hasColor reports whether any cached neighbor advertises tie identifier
// t. Colors are unordered in the id-sorted cache, so this is a linear
// scan — over a unit-disk degree's worth of entries, cheaper than building
// any index, and allocation-free.
func (c neighborCache) hasColor(t int64) bool {
	for i := range c {
		if c[i].frame.TieID == t {
			return true
		}
	}
	return false
}

// upsert returns the entry for id, inserting a zero entry at the sorted
// position when absent, and reports whether it inserted. The pointer is
// valid only until the next mutation.
func (c *neighborCache) upsert(id int64) (*cacheEntry, bool) {
	s := *c
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].frame.ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].frame.ID == id {
		return &s[lo], false
	}
	if len(s) == cap(s) {
		// Grow straight to a useful capacity: the cache starts nil (most
		// cold constructions would outgrow any prealloc immediately) and
		// unit-disk degrees make 1-2-4 growth steps pure churn.
		ncap := 2 * cap(s)
		if ncap < 8 {
			ncap = 8
		}
		t := make(neighborCache, len(s), ncap)
		copy(t, s)
		s = t
	}
	s = append(s, cacheEntry{})
	copy(s[lo+1:], s[lo:])
	s[lo] = cacheEntry{frame: Frame{ID: id}}
	*c = s
	return &s[lo], true
}

// sameList reports whether two published slices carry identical content.
// Slices of one generation share their backing array (under fusion a
// value change republishes the identifiers untouched), so the first-element
// identity check answers most calls in O(1); the element walk is the
// fallback for content that is equal by value but not by identity
// (hand-built test frames, lists privatized by fault injection).
func sameList[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return slices.Equal(a, b)
}

// put installs a full entry (test fixture helper).
func (c *neighborCache) put(e cacheEntry) {
	slot, _ := c.upsert(e.frame.ID)
	*slot = e
}

// Node is one protocol participant. Its exported-shape state is exactly the
// paper's shared variables; everything else is the cache described by the
// shared-variable propagation scheme.
type Node struct {
	id      int64
	tieID   int64 // DAG color when the DAG is enabled, else the id itself
	density float64
	headID  int64
	parent  int64 // F(p): last chosen parent (own id when head)

	cache neighborCache
	src   *rng.Source

	// dirty records that the node's guard inputs (cache contents or own
	// shared variables) may have changed since the guards last ran. The
	// guards are deterministic functions of those inputs, so a clean node
	// can skip evaluation entirely — in a stabilized network a step then
	// costs only delivery and cache-refresh comparisons.
	//
	// frameDirty records that the node's broadcast content (own shared
	// variables, the cache's key set, and under fusion the cached
	// neighbors' values) may have changed since the outgoing frame was
	// last assembled. It is cleared when the frame scratch is refilled,
	// while dirty is cleared when the guards run — the two are
	// independent in both directions: an appearing neighbor changes the
	// relayed list even when every guard output stays put, and a
	// neighbor's new density re-arms the guards without changing
	// anything an unfused node publishes.
	//
	// Anything that mutates node state outside ingest/guards (corruption,
	// test fixtures) must set both — and, under frontier stepping, also
	// Activate the node so the worklist re-examines it.
	dirty      bool
	frameDirty bool

	// stale records that the last ingest left at least one cache entry
	// aging toward TTL eviction — on a frontier engine the node must stay
	// on the worklist so the entry keeps aging exactly as the full scan
	// would age it. Only ever set with a positive TTL; see ingest.
	stale bool

	// links caches guard R1's Definition-1 link count over the current
	// cache, valid while linksOK. The count depends only on the cached
	// identifier lists, never on the densities and heads that cause most
	// guard executions, so R1 recounts only after the cache's key set or
	// one of its lists changed. Anything that edits the cache outside
	// ingest (reset, fault injection, test fixtures) must clear linksOK.
	links   int
	linksOK bool
}

// newNode boots a node in the protocol's cold-start state: it claims
// headship of itself and, with the DAG enabled, draws an initial color.
func newNode(id int64, proto Protocol, src *rng.Source) *Node {
	n := &Node{}
	initNode(n, id, proto, src)
	return n
}

// initNode is newNode into caller-provided storage, so the engine can
// lay the initial population out in one contiguous arena. The neighbor
// cache starts nil and materializes on the first heard frame — most of a
// cold construction's nodes would otherwise pre-allocate capacity they
// immediately outgrow.
func initNode(n *Node, id int64, proto Protocol, src *rng.Source) {
	*n = Node{
		id:         id,
		tieID:      id,
		headID:     id,
		parent:     id,
		src:        src,
		dirty:      true,
		frameDirty: true,
	}
	if proto.UseDag {
		n.tieID = src.Int63() % proto.Gamma
	}
}

// reset returns the node to the cold-start state of newNode: self-head,
// empty cache, and (with the DAG) a fresh color drawn from the node's own
// stream — the stream continues rather than restarting, so a crash at a
// fixed step stays reproducible. Cache entries are zeroed so evicted
// frames do not pin their Nbrs arrays; the entry slice keeps its capacity.
func (n *Node) reset(proto Protocol) {
	n.tieID = n.id
	if proto.UseDag {
		n.tieID = n.src.Int63() % proto.Gamma
	}
	n.density = 0
	n.headID = n.id
	n.parent = n.id
	for i := range n.cache {
		n.cache[i] = cacheEntry{}
	}
	n.cache = n.cache[:0]
	n.dirty = true
	n.frameDirty = true
	n.stale = false
	n.linksOK = false
}

// ID returns the node's application identifier.
func (n *Node) ID() int64 { return n.id }

// TieID returns the current tie-break identifier (DAG color or id).
func (n *Node) TieID() int64 { return n.tieID }

// Density returns the current shared density value.
func (n *Node) Density() float64 { return n.density }

// HeadID returns the current cluster-head choice.
func (n *Node) HeadID() int64 { return n.headID }

// ParentID returns the current parent choice F(p).
func (n *Node) ParentID() int64 { return n.parent }

// IsHead reports whether the node currently claims headship.
func (n *Node) IsHead() bool { return n.headID == n.id }

// fillFrame assembles the node's broadcast for this step into f. The
// cache is id-sorted, so the identifier list comes out deterministic
// without a sort. Publish-on-change: a published NbrList is immutable —
// receivers alias it instead of deep-copying (see cacheEntry) — so a fresh
// one is allocated only when its content actually changed, and the old one
// kept verbatim otherwise. The identifiers depend only on the cache's key
// set, so the frequent frameDirty causes (own density/head updates, energy
// rescaling) refresh the scalar header fields and reuse the list
// untouched. The relayed values are published only under fusion, the one
// configuration whose guards read them (see NbrList); a value change
// republishes them over the same identifier slice.
//
//selfstab:hotpath
func (n *Node) fillFrame(f *Frame, fusion bool) {
	f.ID = n.id
	f.TieID = n.tieID
	f.Density = n.density
	f.HeadID = n.headID
	ids, vals := f.Nbrs.ids(), f.Nbrs.vals()
	sameIDs := len(ids) == len(n.cache)
	for i := 0; sameIDs && i < len(ids); i++ {
		sameIDs = ids[i] == n.cache[i].frame.ID
	}
	sameVals := !fusion || len(vals) == len(n.cache)
	for i := 0; fusion && sameVals && i < len(vals); i++ {
		sameVals = vals[i] == valueOf(&n.cache[i].frame)
	}
	if sameIDs && sameVals {
		return
	}
	if !sameIDs {
		ids = make([]int64, len(n.cache))
		for i := range n.cache {
			ids[i] = n.cache[i].frame.ID
		}
	}
	vals = nil
	if fusion {
		vals = make([]NbrValue, len(n.cache))
		for i := range n.cache {
			vals[i] = valueOf(&n.cache[i].frame)
		}
	}
	f.Nbrs = &NbrList{IDs: ids, Vals: vals}
}

// valueOf extracts what fusion relays about a cached neighbor.
func valueOf(f *Frame) NbrValue {
	return NbrValue{TieID: f.TieID, Density: f.Density, HeadID: f.HeadID}
}

// ingest ages the cache, installs the frames heard this step, and evicts
// entries not refreshed within proto.CacheTTL steps (0 disables eviction;
// appropriate for static topologies). from lists candidate sender indices
// into frames: the medium's inbox row on a full-scan engine (sending nil —
// everything listed was delivered), or the node's adjacency list filtered
// by the engine's send mask on a frontier engine, which is exactly what a
// lossless medium delivers. The cached scalar fields are private copies;
// the list is a shared alias of the sender's immutable published NbrList
// (see cacheEntry), so a content change costs one pointer store, not a
// deep copy, and the steady-state refresh (identical frame) is four
// comparisons with no list walk.
//
// What a heard change re-arms follows from who reads it. Any difference
// re-arms the guards. Only an identifier-list difference (or an appearing
// or evicted neighbor) invalidates the cached R1 link count. And only a
// change to what this node itself publishes — its cache's key set, plus
// the cached scalars under fusion — re-arms its own broadcast.
//
// n.stale records whether any entry survived the pass unrefreshed, so the
// frontier engine knows the node must be re-examined next step for its
// aging to stay bit-identical to the full scan. With a zero TTL eviction
// never fires, aging is unobservable, and stale stays false so
// fully-refreshed nodes can leave the frontier.
//
//selfstab:hotpath
func ingest[I int | int32](n *Node, frames []Frame, from []I, sending []bool, proto Protocol) {
	for i := range n.cache {
		n.cache[i].age++
	}
	for _, s := range from {
		if sending != nil && !sending[s] {
			continue
		}
		f := &frames[s]
		if f.ID == n.id {
			continue // own echo; cannot happen with honest media, but cheap to guard
		}
		e, added := n.cache.upsert(f.ID)
		relisted, revalued := added, false
		if old := e.frame.Nbrs; old != f.Nbrs {
			relisted = added || !sameList(old.ids(), f.Nbrs.ids())
			revalued = !sameList(old.vals(), f.Nbrs.vals())
			e.frame.Nbrs = f.Nbrs // equal content or not, hold the live alias
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
		// Zero the tail so evicted frames don't pin their list arrays.
		for i := len(kept); i < len(n.cache); i++ {
			n.cache[i] = cacheEntry{}
		}
		n.cache = kept
		n.dirty = true
		n.frameDirty = true
		n.linksOK = false
	}
}

// guardN1 is Algorithm N1: redraw the color when it collides with a
// neighbor's cached color and this node loses the tie (smaller application
// identifier redraws). The fresh color avoids every cached neighbor color;
// if the cached occupancy leaves nothing free (transient, e.g. after
// corruption with a tiny gamma), the node keeps its color and retries next
// step rather than spinning. Reports whether the shared color changed.
//
//selfstab:hotpath
func (n *Node) guardN1(proto Protocol) bool {
	old := n.tieID
	if !proto.UseDag {
		// Without the DAG the tie identifier IS the application id; a
		// corrupted value would silently reorder ≺ forever, so pinning it
		// is the correction action here.
		n.tieID = n.id
		return n.tieID != old
	}
	// Self-stabilization: a corrupted color outside the name space is
	// always illegitimate; normalize it first.
	if n.tieID < 0 || n.tieID >= proto.Gamma {
		n.tieID = n.src.Int63() % proto.Gamma
	}
	conflict := false
	for i := range n.cache {
		if n.cache[i].frame.TieID == n.tieID && n.id < n.cache[i].frame.ID {
			conflict = true
			break
		}
	}
	if !conflict {
		return n.tieID != old
	}
	for attempt := 0; attempt < 64; attempt++ {
		c := n.src.Int63() % proto.Gamma
		if !n.cache.hasColor(c) {
			n.tieID = c
			return true
		}
	}
	// Redraw failed: keep the color but stay dirty so the retry happens
	// next step. The out-of-range normalization above may still have
	// changed the shared color, so report against the entry value.
	n.dirty = true
	return n.tieID != old
}

// guardR1 recomputes the shared density from cached neighbor lists
// (Definition 1 evaluated on 2-hop knowledge), scaled by the engine's
// per-node density multiplier (1 unless an energy policy installed one).
// The link count is cached on the node (see Node.links): most executions
// are caused by a neighbor's density or head moving, which no identifier
// list reflects, and then the guard is scale·links/deg in O(1). Reports
// whether the shared density changed.
//
//selfstab:hotpath
func (n *Node) guardR1(scale float64) bool {
	old := n.density
	deg := len(n.cache)
	if deg == 0 {
		n.density = 0
		return n.density != old
	}
	if !n.linksOK {
		n.links = n.countLinks()
		n.linksOK = true
	}
	n.density = scale * (float64(n.links) / float64(deg))
	return n.density != old
}

// countLinks evaluates Definition 1's link count from scratch: the |Np|
// edges p-q plus every edge among neighbors. The cache key set IS the
// node's view of N(p), and both it and every advertised identifier list
// are id-sorted, so the membership test is a merge scan — no hashing, no
// allocation.
//
//selfstab:hotpath
func (n *Node) countLinks() int {
	deg := len(n.cache)
	links := deg // the |Np| edges p-q
	// Count edges among neighbors once: v < w, both in N(p), adjacent
	// according to v's advertised list.
	for i := range n.cache {
		v := n.cache[i].frame.ID
		// Advance j over the cache (sorted) in lockstep with the
		// identifier list, starting past v (only w > v counts). Honest
		// frames carry id-sorted lists, making this a merge scan; a
		// corrupted cache can hold a scrambled list, and from the first
		// out-of-order element on we fall back to binary search so the
		// count stays exactly Definition 1 even on garbage.
		j := i + 1
		sorted := true
		prev := int64(-1) << 62
		for _, w := range n.cache[i].frame.Nbrs.ids() {
			if w < prev {
				sorted = false
			}
			prev = w
			if w <= v {
				continue
			}
			if !sorted {
				if n.cache.has(w) {
					links++
				}
				continue
			}
			for j < deg && n.cache[j].frame.ID < w {
				j++
			}
			if j < deg && n.cache[j].frame.ID == w {
				links++
			}
		}
	}
	return links
}

// guardR2 is the cluster-head selection rule, including the Section 4.3
// fusion variant when enabled. Reports whether head or parent changed.
//
//selfstab:hotpath
func (n *Node) guardR2(proto Protocol) bool {
	oldHead, oldParent := n.headID, n.parent
	myRank := cluster.Rank{Value: n.density, TieID: n.tieID, IsHead: n.IsHead(), AppID: n.id}

	// Find the ≺-maximal cached neighbor.
	bestID := int64(-1)
	var bestRank cluster.Rank
	var bestHead int64
	dominated := false
	for i := range n.cache {
		e := &n.cache[i]
		r := rankOf(e.frame)
		if proto.Order.Less(myRank, r) {
			dominated = true
		}
		if bestID < 0 || proto.Order.Less(bestRank, r) {
			bestID, bestRank, bestHead = e.frame.ID, r, e.frame.HeadID
		}
	}

	if dominated {
		// Join the ≺-maximal neighbor and adopt its head.
		n.parent = bestID
		n.headID = bestHead
		return n.headID != oldHead || n.parent != oldParent
	}

	if proto.Fusion {
		// 2-hop guard: adopt the ≺-greatest head claimant two hops away
		// that beats this node, if any (the fusion: this node's cluster
		// merges into that head's).
		adoptID := int64(-1)
		var adoptRank cluster.Rank
		adoptVia := int64(-1)
		var adoptViaRank cluster.Rank
		for i := range n.cache {
			e := &n.cache[i]
			via := e.frame.ID
			viaRank := rankOf(e.frame)
			// A hand-built entry may carry fewer values than identifiers
			// or the reverse; the pairs that exist are the relayed claims.
			ids, vals := e.frame.Nbrs.ids(), e.frame.Nbrs.vals()
			for k, s := range vals[:min(len(vals), len(ids))] {
				id := ids[k]
				if id == n.id || s.HeadID != id {
					continue
				}
				if n.cache.has(id) {
					continue // 1-hop claimants are covered by the ≺ scan
				}
				r := cluster.Rank{Value: s.Density, TieID: s.TieID, IsHead: true, AppID: id}
				if !proto.Order.Less(myRank, r) {
					continue
				}
				// Adopt a strictly greater head; when the same head is
				// relayed by several neighbors, relay through the
				// ≺-maximal one (deterministic regardless of cache
				// iteration order).
				switch {
				case adoptID < 0 || proto.Order.Less(adoptRank, r):
					adoptID, adoptRank = id, r
					adoptVia, adoptViaRank = via, viaRank
				case id == adoptID && proto.Order.Less(adoptViaRank, viaRank):
					adoptVia, adoptViaRank = via, viaRank
				}
			}
		}
		if adoptID >= 0 {
			n.headID = adoptID
			n.parent = adoptVia
			return n.headID != oldHead || n.parent != oldParent
		}
	}

	// Locally maximal (and unchallenged within two hops): claim headship.
	n.headID = n.id
	n.parent = n.id
	return n.headID != oldHead || n.parent != oldParent
}

// rankOf extracts the comparison rank from a cached frame.
func rankOf(f Frame) cluster.Rank {
	return cluster.Rank{Value: f.Density, TieID: f.TieID, IsHead: f.HeadID == f.ID, AppID: f.ID}
}
