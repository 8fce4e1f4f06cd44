package network

import "fmt"

// TopoKind selects the interconnect topology. The default, TopoFlat, is the
// paper's idealized crossbar: every message traverses the fabric in a fixed
// Latency regardless of endpoints. TopoRing and TopoMesh model an on-chip
// network of routers connected by links with per-hop latency and per-link
// contention; see PROTOCOL.md §"Network timing & lookahead".
type TopoKind int

const (
	TopoFlat TopoKind = iota
	TopoRing
	TopoMesh
)

func (k TopoKind) String() string {
	switch k {
	case TopoFlat:
		return "flat"
	case TopoRing:
		return "ring"
	case TopoMesh:
		return "mesh"
	}
	return fmt.Sprintf("TopoKind(%d)", int(k))
}

// ParseTopoKind maps a -topology flag value to a TopoKind.
func ParseTopoKind(s string) (TopoKind, error) {
	switch s {
	case "", "flat":
		return TopoFlat, nil
	case "ring":
		return TopoRing, nil
	case "mesh":
		return TopoMesh, nil
	}
	return TopoFlat, fmt.Errorf("network: unknown topology %q (want flat, ring or mesh)", s)
}

// Directed link indices within one router's link block. Ring routers use
// {cw, ccw, local}; mesh routers use all five. The local link models the
// router-internal path taken when source and destination tiles share a
// router, so co-located traffic still serializes without contending with
// through-traffic.
const (
	linkEast  = 0 // mesh +x / ring clockwise
	linkWest  = 1 // mesh -x / ring counter-clockwise
	linkNorth = 2 // mesh -y
	linkSouth = 3 // mesh +y
	linkLocal = 4
	linksPer  = 5
)

// topology holds the routing tables and per-link reservation state of a ring
// or mesh NoC. All state mutates only inside routeLatency, which runs in
// deterministic global send order, so link contention is reproducible
// bit-for-bit across stepping policies.
type topology struct {
	kind TopoKind
	hop  uint64 // per-hop (router-to-router) latency in cycles

	routers int
	w, h    int   // mesh dimensions (w*h >= routers)
	nodeR   []int // NodeID -> router

	// linkFree[r*linksPer+d] is the first cycle at which directed link d of
	// router r is free; a message occupies each link on its path for its
	// full flit count.
	linkFree []uint64
}

// newTopology builds the routing state for nodes endpoints, of which the
// first cores are core tiles and the rest LLC slices. Core i and slice j map
// onto routers proportionally, so equal core and slice counts co-locate core
// i with slice i on router i (a tiled CMP), and any other split spreads both
// kinds evenly around the fabric.
func newTopology(kind TopoKind, hop uint64, nodes, cores int) *topology {
	if hop == 0 {
		hop = 1
	}
	slices := nodes - cores
	routers := cores
	if slices > routers {
		routers = slices
	}
	if routers == 0 {
		routers = 1
	}
	t := &topology{kind: kind, hop: hop, routers: routers, nodeR: make([]int, nodes)}
	for i := 0; i < cores; i++ {
		t.nodeR[i] = i * routers / cores
	}
	for j := 0; j < slices; j++ {
		t.nodeR[cores+j] = j * routers / slices
	}
	if kind == TopoMesh {
		t.w = 1
		for t.w*t.w < routers {
			t.w++
		}
		t.h = (routers + t.w - 1) / t.w
	}
	slots := routers
	if kind == TopoMesh {
		// XY routes may pass through unpopulated grid positions when the
		// rectangle isn't full (e.g. 8 routers on a 3x3 mesh).
		slots = t.w * t.h
	}
	t.linkFree = make([]uint64, slots*linksPer)
	return t
}

// HopCount returns the number of links a message from src to dst traverses
// (>= 1: co-located tiles use the router-local link).
func (t *topology) HopCount(src, dst NodeID) int {
	a, b := t.nodeR[src], t.nodeR[dst]
	if a == b {
		return 1
	}
	switch t.kind {
	case TopoRing:
		cw := (b - a + t.routers) % t.routers
		ccw := (a - b + t.routers) % t.routers
		if ccw < cw {
			return ccw
		}
		return cw
	case TopoMesh:
		ax, ay := a%t.w, a/t.w
		bx, by := b%t.w, b/t.w
		return abs(bx-ax) + abs(by-ay)
	}
	return 1
}

// routeLatency walks the path from src to dst, reserving every link on it for
// flits cycles and accumulating per-hop latency. start is the cycle at which
// the head flit enters the fabric; the returned cycle is when the tail flit
// arrives at dst. hops and wait report link traversals and contention stall
// cycles for statistics.
func (t *topology) routeLatency(src, dst NodeID, start, flits uint64) (arrival uint64, hops int, wait uint64) {
	a, b := t.nodeR[src], t.nodeR[dst]
	now := start
	take := func(link int) {
		free := t.linkFree[link]
		if free > now {
			wait += free - now
			now = free
		}
		t.linkFree[link] = now + flits
		now += t.hop
		hops++
	}
	if a == b {
		take(a*linksPer + linkLocal)
		return now + flits - 1, hops, wait
	}
	switch t.kind {
	case TopoRing:
		cw := (b - a + t.routers) % t.routers
		ccw := (a - b + t.routers) % t.routers
		if cw <= ccw { // ties break clockwise
			for r := a; r != b; r = (r + 1) % t.routers {
				take(r*linksPer + linkEast)
			}
		} else {
			for r := a; r != b; r = (r - 1 + t.routers) % t.routers {
				take(r*linksPer + linkWest)
			}
		}
	case TopoMesh:
		// Dimension-ordered XY routing: all X hops, then all Y hops.
		x, y := a%t.w, a/t.w
		bx, by := b%t.w, b/t.w
		for x < bx {
			take((y*t.w+x)*linksPer + linkEast)
			x++
		}
		for x > bx {
			take((y*t.w+x)*linksPer + linkWest)
			x--
		}
		for y < by {
			take((y*t.w+x)*linksPer + linkSouth)
			y++
		}
		for y > by {
			take((y*t.w+x)*linksPer + linkNorth)
			y--
		}
	}
	return now + flits - 1, hops, wait
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// SetTopology switches the network to a ring or mesh NoC with the given
// per-hop latency (TopoFlat restores the fixed-latency crossbar). cores is
// the number of core nodes (the rest are LLC slices). Must be called before
// any traffic is sent.
func (n *Network) SetTopology(kind TopoKind, hopLatency uint64, cores int) {
	if kind == TopoFlat {
		n.topo = nil
		return
	}
	n.topo = newTopology(kind, hopLatency, n.nodes, cores)
}

// HopCount returns the link count between two endpoints (1 on the flat
// fabric). Exposed for topology tests and experiment reporting.
func (n *Network) HopCount(src, dst NodeID) int {
	if n.topo == nil {
		return 1
	}
	return n.topo.HopCount(src, dst)
}
