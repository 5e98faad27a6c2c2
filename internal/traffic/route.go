package traffic

// arenaChunk is how many walk entries each new arena chunk holds at
// least: 64 KiB, a few chunks for the hundreds of routes a large world's
// flows walk.
const arenaChunk = 1 << 14

// route is one flow's next-hop memo: walk[k] is the node a packet of the
// flow that has followed the memo stands on after k hops under routing
// epoch epoch, or -1 past a hop that found no route. An empty walk marks
// the memo stale whatever the epoch (Compact relabels the slots it
// holds). The walk's backing array is carved from Engine.arena.
type route struct {
	epoch uint64
	walk  []int32
}

// nextHop answers hooks.NextHop(u, p.dst) for packet p at node u, from
// the memo of p's flow where it can. Every packet of a flow shares its
// destination, and under one epoch NextHop is a pure function of (cur,
// dst), so the flow's walk route[0] = Src, route[k+1] = NextHop(route[k],
// Dst) is exactly what each packet that stands on route[k] with k hops
// would be told: it takes route[k+1]. When route[k] is the last entry
// filled, the packet asks the hook and appends the answer, up to TTL+1
// entries (a packet with more hops is dropped). Any other packet — one
// that took its first hops under an older epoch, or one at the TTL —
// asks the hook and leaves the memo as it is.
//
//selfstab:hotpath
func (e *Engine) nextHop(u int, p packet) (int, bool) {
	r := &e.routes[p.flow]
	if len(r.walk) == 0 || r.epoch != e.epoch {
		if cap(r.walk) == 0 {
			e.growRoute(r)
		}
		r.epoch = e.epoch
		r.walk = append(r.walk[:0], int32(e.flows[p.flow].spec.Src))
	}
	k, w := int(p.hops), r.walk
	if k < len(w) && w[k] == int32(u) {
		if k+1 < len(w) {
			return int(w[k+1]), w[k+1] >= 0
		}
		if k < e.cfg.TTL {
			next, ok := e.hooks.NextHop(u, int(p.dst))
			v := int32(-1)
			if ok {
				v = int32(next)
			}
			if len(w) == cap(w) {
				e.growRoute(r)
			}
			r.walk = append(r.walk, v)
			return next, ok
		}
	}
	return e.hooks.NextHop(u, int(p.dst))
}

// growRoute moves r's walk to a piece of the arena twice its capacity (at
// least 8 entries, at most TTL+1). The outgrown array is abandoned in
// place, so a flow's memo and its leftovers hold under four entries per
// hop of its route, and one arena chunk serves many growths.
//
//selfstab:hotpath
func (e *Engine) growRoute(r *route) {
	c := min(max(2*cap(r.walk), 8), e.cfg.TTL+1)
	if cap(e.arena)-len(e.arena) < c {
		e.arena = make([]int32, 0, max(c, arenaChunk))
	}
	n := len(e.arena)
	e.arena = e.arena[:n+c]
	r.walk = append(e.arena[n:n:n+c], r.walk...)
}
