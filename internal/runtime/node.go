package runtime

import (
	"math"
	"slices"

	"selfstab/internal/cluster"
	"selfstab/internal/rng"
)

// cacheEntry is the cached copy of a neighbor's last heard frame plus two
// words of ingest bookkeeping, 48 bytes in all (pinned by
// TestCacheEntrySize). The entry's Nbrs pointer ALIASES the sender's
// published list — published lists are immutable (fillFrame builds a fresh
// one only when the content changed), so receivers share one allocation
// per sender instead of keeping a deep copy each, and a whole cached
// neighborhood costs O(deg) words per node instead of O(deg²). Anything
// that wants to scribble on a cached list (fault injection) must privatize
// it first.
//
// heard is the value of the owning node's ingest counter (Node.tick) when
// this neighbor was last heard; the entry's age in steps is tick − heard
// in wrapping int32 arithmetic, derived when eviction needs it and never
// maintained.
//
// hint belongs to the entry's POSITION, not to its neighbor: cache[j].hint
// is the cache index at which ingest last found the sender listed j-th in
// the node's delivery row (a row longer than the cache has no hint for the
// excess). It is only ever a guess — ingest trusts it after checking the
// identifier stored there and binary-searches otherwise — so nothing that
// moves, copies, zeroes or scribbles entries has to keep hints valid.
type cacheEntry struct {
	frame Frame
	heard int32
	hint  int32
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

// upsert returns the index of the entry for id, inserting a zero entry at
// the sorted position when absent, and reports whether it inserted.
func (c *neighborCache) upsert(id int64) (int, bool) {
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
		return lo, false
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
	return lo, true
}

// sameList reports whether two published slices carry identical content.
// Only fusion needs it: there a new list pointer may mean new values over
// the same identifiers (see ingest). Slices of one generation share their
// backing array (a value change republishes the identifiers untouched), so
// the first-element identity check answers most calls in O(1); the element
// walk is the fallback for content that is equal by value but not by
// identity (hand-built test frames, lists privatized by fault injection).
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
	i, _ := c.upsert(e.frame.ID)
	(*c)[i] = e
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

	// Three flags say what the node owes the next step. Each is cleared by
	// the phase that pays the debt, and they are independent in every
	// direction: an appearing neighbor changes the relayed list even when
	// every guard output stays put, a neighbor's new density re-arms the
	// guards without changing anything an unfused node publishes, and the
	// node's own new head changes its frame's header and nothing it relays.
	//
	// dirty: the guard inputs (cache contents or own shared variables) may
	// have changed since the guards last ran. The guards are deterministic
	// functions of those inputs, so a clean node skips evaluation entirely
	// — in a stabilized network a step then costs only delivery and
	// cache-refresh comparisons. Cleared when the guards run.
	//
	// frameDirty: anything the node broadcasts (own shared variables, the
	// cache's key set, and under fusion the cached neighbors' values) may
	// have changed since the outgoing frame was last assembled; the frame
	// phase rebuilds the frame and compares the relayed list (fillFrame).
	//
	// headerDirty: the node's own guards moved its color, density or head —
	// the cause of nearly every republish in a recovery, and one that
	// cannot touch the relayed list. The frame phase rewrites the three
	// header scalars and leaves Frame.Nbrs alone. Only execNode sets it.
	//
	// Anything that mutates node state outside ingest/guards (corruption,
	// churn, test fixtures) must set dirty and frameDirty — and, under
	// frontier stepping, also Activate the node so the worklist
	// re-examines it.
	dirty       bool
	frameDirty  bool
	headerDirty bool

	// stale records that the last ingest left at least one cache entry
	// aging toward TTL eviction — on a frontier engine the node must be
	// visited again by the step its oldest such entry is evicted, so the
	// entry ages exactly as the full scan would age it. Only ever set with
	// a positive TTL; see ingest and Engine.park.
	stale bool

	// tick counts this node's ingests and is the clock cache ages are read
	// against (cacheEntry.heard). It advances only when the node ingests,
	// so a sleeping or dead node's entries do not age. It wraps; ages are
	// differences, and where they are read at all (a positive TTL) an entry
	// is evicted long before 2³¹ ingests pass.
	tick int32

	// links is guard R1's Definition-1 link count over the current cache,
	// valid while linksOK. The count depends only on the cache's key set
	// and identifier lists, and ingest keeps it exact through every edit it
	// makes — a relist, a join, a TTL eviction — by adding the difference
	// (see ingest). A boot or reset leaves an empty cache and links 0,
	// which is valid. linksOK goes false only where ingest's cut-over
	// prefers a recount, and where something scribbles on cached lists
	// outside ingest (fault injection, test fixtures); R1 then recounts.
	links   int
	linksOK bool

	// parked: a frontier engine took the node off the worklist at step
	// parkedAt with nothing left to do but age its stale entries, and it
	// has not ingested since (Engine.park). Both fit in the tail padding:
	// Node stays 96 bytes (TestNodeSize).
	parked   bool
	parkedAt int32
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
		linksOK:    true, // no neighbor, no link
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
	n.links, n.linksOK = 0, true
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

// fillHeader writes the node's own shared variables into its outgoing
// frame: all a republish costs when only the node's own guards moved
// something (Node.headerDirty). f.ID and f.Nbrs are fillFrame's.
func (n *Node) fillHeader(f *Frame) {
	f.TieID = n.tieID
	f.Density = n.density
	f.HeadID = n.headID
}

// fillFrame assembles the node's whole broadcast into f: the header, and
// the relayed list compared against the cache. The cache is id-sorted, so
// the identifier list comes out deterministic without a sort.
// Publish-on-change: a published NbrList is immutable — receivers alias it
// instead of deep-copying (see cacheEntry) and read a changed pointer as a
// changed list (see ingest) — so a fresh one is allocated only when its
// content actually changed, and the old one kept verbatim otherwise. The
// identifiers depend only on the cache's key set; the relayed values are
// published only under fusion, the one configuration whose guards read
// them (see NbrList), and a value change republishes them over the same
// identifier slice.
//
//selfstab:hotpath
func (n *Node) fillFrame(f *Frame, fusion bool) {
	f.ID = n.id
	n.fillHeader(f)
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

// ingest installs the frames heard this step and evicts entries not heard
// within proto.CacheTTL steps (0 disables eviction; appropriate for static
// topologies). from lists candidate sender indices into frames: the
// medium's inbox row on a full-scan engine (sending nil — everything
// listed was delivered), or the node's adjacency list filtered by the
// engine's send mask on a frontier engine, which is exactly what a
// lossless medium delivers. The cached scalar fields are private copies;
// the list is a shared alias of the sender's immutable published NbrList
// (see cacheEntry), so a content change costs one pointer store, not a
// deep copy.
//
// A sender whose frame is already cached costs a constant number of
// compares: the position hint and the identifier it points at, the list
// pointer, three scalars and the heard stamp — no search, no list walk, no
// write but the stamp (BenchmarkIngest/deg=10/heard=same: 15 ns a sender,
// against 31 for the binary search and aging pass it replaced, same host).
// Identifiers are a random permutation of slots by default, so a delivery
// row never arrives in cache order and a merge cursor would never hit; the
// hint remembers, per row position, where that sender's entry was found
// last time, and is believed only after the identifier there matches (a
// miss binary-searches and rewrites it).
//
// What a heard change re-arms follows from who reads it. Any difference
// re-arms the guards. Only a change to what this node itself publishes —
// its cache's key set, plus the cached scalars under fusion — re-arms its
// own broadcast. And only an identifier-list difference, an appearing
// neighbor or an evicted one moves R1's link count, which ingest keeps
// exact by adding what each edit changes (Definition 1's count is
// links(C) = |C| + Σ_{v∈C} row(v), row(v) counting, with multiplicity,
// the identifiers w > v in v's list that C holds — countLinks' sum):
//
//   - a relist of a cached v changes row(v) alone, by the ids only one of
//     the two lists holds (relistDelta). Relists are deferred to the end
//     of the row and applied against the final key set, where they are
//     independent of each other;
//   - a join of x adds memberLinks: the edge to x, row(x), and every
//     listing of x in the lists of cached neighbors smaller than x;
//   - an eviction of x subtracts the same quantity over the cache as it
//     stands when x leaves (see the eviction pass).
//
// The one cost rule: a delta waits on its lists' misses in series, where
// countLinks' gather pass overlaps every list's misses, so once most of
// the cache changes in one row a recount is cheaper. A relist delta walks
// both lists and the cache suffix past v once, a recount every list and
// every suffix once: they cost the same at about half the cache, so
// relists are deferred only while 2·relists < len(cache), and the relist
// that crosses that line clears linksOK for R1 to recount instead (the
// key set cannot grow under pending relists, see below, so the test can be
// made at each relist). A join delta reads every list below it, about half
// a recount, so a row filling an empty cache — all joins: a boot or a
// reset — cuts over at its first join. A join while relists are pending
// cuts over too, since it moves their positions, and so does a row of
// more than relistCap relists. Without these cut-overs a cold 50k-node
// Stabilize took 194 ms against 170 (medians of 16, alternating, 2 vCPU).
// TestIngestMatchesReference, TestCachedLinkCountMatchesRecount and
// FuzzLinkCount hold the count to a recount; TestLinkCountCutOver pins
// where it cuts over.
//
// Without fusion a changed list pointer IS a changed identifier list:
// fillFrame allocates a new NbrList only when the identifiers changed, so
// the old list is never dereferenced for the flags. (Under fusion a value
// change also republishes, over the same identifier slice, and sameList
// tells the two apart.) The one case where identity and content disagree —
// a list equal by value but allocated separately: a hand-built frame, or a
// sender that went A→B→A while this node slept — costs a zero link delta
// (or, past the cut-over, one recount) and one guard run that reproduce
// the values they replace and draw nothing from the node's rng;
// TestSpuriousRelistChangesNothing pins that.
//
// Ages are derived, not maintained: an entry heard now is stamped with the
// node's ingest counter and its age is tick − heard. When every entry was
// heard this step — the common case — nothing ages and there is no second
// pass at all. Otherwise one pass evicts what outlived the TTL, moving an
// entry only once something before it is gone. n.stale records whether any
// entry survived that pass unheard, so the frontier engine knows the node
// must be re-examined by the step that entry is evicted for its aging to
// stay bit-identical to the full scan. With a zero TTL eviction never
// fires, aging is unobservable, and stale stays false so fully-refreshed
// nodes can leave the frontier.
//
//selfstab:hotpath
func ingest[I int | int32](n *Node, frames []Frame, from []I, sending []bool, proto Protocol) {
	n.tick++
	tick := n.tick
	fresh := 0       // entries heard by this ingest
	c := n.cache     // reloaded wherever an insertion may have moved it
	var owed relists // relist deltas owed to n.links
	for j, s := range from {
		if sending != nil && !sending[s] {
			continue
		}
		f := &frames[s]
		if f.ID == n.id {
			continue // own echo; cannot happen with honest media, but cheap to guard
		}
		at, added := -1, false
		if j < len(c) {
			if h := int(c[j].hint); uint(h) < uint(len(c)) && c[h].frame.ID == f.ID {
				at = h
			}
		}
		if at < 0 {
			at, added = n.cache.upsert(f.ID)
			c = n.cache
			if added && n.linksOK {
				switch {
				case len(c) == 1:
					n.linksOK = false // the row is filling an empty cache
				case owed.n > 0:
					n.linksOK = false // the insertion moved the pending positions
				default:
					n.links += memberLinks(f, c[:at], c[at+1:])
				}
			}
			if j < len(c) {
				c[j].hint = int32(at)
			}
		}
		e := &c[at]
		relisted, revalued := added, false
		if old := e.frame.Nbrs; old != f.Nbrs {
			relisted = true
			if proto.Fusion && !added {
				relisted = !sameList(old.ids(), f.Nbrs.ids())
				revalued = !sameList(old.vals(), f.Nbrs.vals())
			}
			if relisted && !added && n.linksOK {
				if owed.n == relistCap || 2*(owed.n+1) >= len(c) {
					n.linksOK = false // most of the cache relisted: R1 recounts
				} else {
					owed.list[owed.n] = relist{at: int32(at), old: old}
					owed.n++
				}
			}
			e.frame.Nbrs = f.Nbrs // equal content or not, hold the live alias
		}
		scalars := e.frame.TieID != f.TieID || e.frame.Density != f.Density || e.frame.HeadID != f.HeadID
		if relisted || revalued || scalars {
			e.frame = *f
			n.dirty = true
		}
		if added || (scalars && proto.Fusion) {
			n.frameDirty = true
		}
		if added || e.heard != tick {
			fresh++
		}
		e.heard = tick
	}
	if n.linksOK {
		for _, r := range owed.list[:owed.n] {
			e := &c[r.at]
			n.links += c[r.at+1:].relistDelta(e.frame.ID, r.old.ids(), e.frame.Nbrs.ids())
		}
	}
	n.stale = false
	ttl := proto.CacheTTL
	if fresh == len(c) || ttl <= 0 {
		return // every entry has age 0, or ages are never read
	}
	kept := 0
	for i := range c {
		age := int(tick - c[i].heard)
		if age > ttl {
			// The cache at this instant is c[:kept] (the survivors before
			// i, already moved down), c[i] and c[i+1:] (not yet examined,
			// never written by this pass: moves only write below i). That
			// is the key set with every earlier eviction applied and none
			// of the later ones, so c[i] leaves exactly what it holds.
			if n.linksOK {
				n.links -= memberLinks(&c[i].frame, c[:kept], c[i+1:])
			}
			continue
		}
		if age > 0 {
			n.stale = true
		}
		if kept < i {
			c[kept] = c[i]
		}
		kept++
	}
	if kept < len(c) {
		clear(c[kept:]) // evicted frames must not pin their list arrays
		n.cache = c[:kept]
		n.dirty = true
		n.frameDirty = true
	}
}

// relists is the relist deltas one ingest defers to the end of its row.
// The count is a field beside the list, not a local: a loop-carried
// counter takes a register from every sender's path, quiescent ones
// included (BenchmarkIngest/heard=same read 12–17 % slower with one, both
// bodies in one binary), where this one is read only on a relist or a
// join.
type relists struct {
	n    int
	list [relistCap]relist
}

// relist is one deferred relist delta: the cache position of a neighbor
// whose identifier list changed this ingest, and the list it replaced.
type relist struct {
	at  int32
	old *NbrList
}

// relistCap bounds the relist deltas one ingest defers; a row with more
// cuts over to a recount. It binds before the half-the-cache rule only
// from 35 cached neighbors on, over three times the workloads' mean
// degree.
const relistCap = 16

// memberLinks is what neighbor x contributes to Definition 1's link count
// of a cache holding below ++ [x] ++ above (id-sorted, below < x < above):
// the edge p-x, x's own row, and each listing of x in the list of a
// neighbor smaller than x — the rows that count x. links(C) − links(C∖x)
// is exactly this, so a join adds it and an eviction subtracts it.
//
//selfstab:hotpath
func memberLinks(x *Frame, below, above neighborCache) int {
	links := 1 + above.row(x.ID, x.Nbrs.ids(), math.MinInt64)
	for k := range below {
		for _, w := range below[k].frame.Nbrs.ids() {
			if w == x.ID {
				links++
			}
		}
	}
	return links
}

// relistDelta is row(v, nw) − row(v, old) over a cache suffix c holding
// exactly the cached entries past v: how much v's switch from list old to
// list nw moves the link count. The ids both lists hold cancel; merged,
// the ids only one of them holds come out ascending, so one forward cursor
// over c answers every membership test, and the walk costs one pass over
// each list and over c. A merge keeps each list's own order, so its output
// ascends exactly when both lists do; where it does not (a corrupted
// cache), the two rows, which handle any order, give the delta.
//
//selfstab:hotpath
func (c neighborCache) relistDelta(v int64, old, nw []int64) int {
	delta, j, a, b := 0, 0, 0, 0
	prev := int64(math.MinInt64)
	for a < len(old) || b < len(nw) {
		var w int64
		sign := 0 // an id both lists hold changes nothing
		switch {
		case b == len(nw) || a < len(old) && old[a] < nw[b]:
			w, sign = old[a], -1
			a++
		case a == len(old) || nw[b] < old[a]:
			w, sign = nw[b], 1
			b++
		default:
			w = old[a]
			a++
			b++
		}
		if w < prev {
			return c.row(v, nw, math.MinInt64) - c.row(v, old, math.MinInt64)
		}
		prev = w
		if sign == 0 || w <= v {
			continue
		}
		for j < len(c) && c[j].frame.ID < w {
			j++
		}
		if j < len(c) && c[j].frame.ID == w {
			delta += sign
		}
	}
	return delta
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
// The link count is kept on the node (see Node.links), so the guard is
// scale·links/deg in O(1) unless the count was dropped, and then it
// recounts once. Reports whether the shared density changed.
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
// edges p-q plus every edge among neighbors, each counted once from its
// smaller end's row. The cache key set IS the node's view of N(p), and
// both it and every advertised identifier list are id-sorted, so the
// membership test is a merge scan — no hashing, no allocation. Ingest
// keeps the count current by delta; this recount runs when the node's
// lists were scribbled on, and when most of its cache relisted at once.
//
// That is when the lists it reads are usually not in cache, and each
// costs two dependent misses (the NbrList header, then the identifier
// array) that a merge scan's unpredictable branches keep the processor
// from starting early. The count therefore runs in two passes per block
// of neighbors: gather every list's slice header and first identifier
// with no data-dependent branch, so the misses overlap; then merge. The
// first identifier seeds the order check, which is what keeps its load in
// the gather pass. BenchmarkCountLinks is the row that justifies the
// split.
//
//selfstab:hotpath
func (n *Node) countLinks() int {
	c := n.cache
	deg := len(c)
	links := deg // the |Np| edges p-q
	var lists [countBlock][]int64
	var heads [countBlock]int64
	for base := 0; base < deg; base += countBlock {
		block := c[base:min(base+countBlock, deg)]
		for k := range block {
			ids := block[k].frame.Nbrs.ids()
			lists[k] = ids
			if len(ids) > 0 {
				heads[k] = ids[0]
			}
		}
		for k := range block {
			links += c[base+k+1:].row(block[k].frame.ID, lists[k], heads[k])
		}
	}
	return links
}

// row counts, with multiplicity, the identifiers w > v in ids that c
// holds, where c is the cache suffix past v: v's edges to larger
// neighbors according to v's advertised list. A cursor advances over c
// in lockstep with the list, so an id-sorted list (every honest frame's)
// is a merge scan; a corrupted cache can hold a scrambled list, and from
// the first out-of-order element on the test falls back to binary search,
// so the count stays exactly Definition 1 even on garbage. prev seeds the
// order check: any value ≤ ids[0] gives the same count.
//
//selfstab:hotpath
func (c neighborCache) row(v int64, ids []int64, prev int64) int {
	links, j := 0, 0
	sorted := true
	for _, w := range ids {
		if w < prev {
			sorted = false
		}
		prev = w
		if w <= v {
			continue
		}
		if !sorted {
			if c.has(w) {
				links++
			}
			continue
		}
		for j < len(c) && c[j].frame.ID < w {
			j++
		}
		if j < len(c) && c[j].frame.ID == w {
			links++
		}
	}
	return links
}

// countBlock is how many cached lists countLinks gathers before merging:
// a kilobyte of stack, and one block at any unit-disk degree the
// benchmarks run.
const countBlock = 32

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
