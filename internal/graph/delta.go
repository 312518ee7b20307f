package graph

import (
	"errors"
	"fmt"
)

// This file implements the dynamic-topology substrate: in-place
// mutation of a Graph with stable port numbering, plus the Delta
// change records the execution layer consumes (program.System.
// ApplyDelta) to repair its caches locally instead of rescanning the
// whole network.
//
// # The mutable-graph contract
//
//   - Port stability. Removing the edge {u,v} leaves a *hole* at its
//     port on both endpoints: Neighbors(u)[p] becomes None and the
//     port numbers of every surviving edge are unchanged. Port-indexed
//     protocol state (edge labels, Start arrays, exploration pointers)
//     therefore stays bound to the right edges across removals.
//     AddEdge fills the lowest hole at each endpoint before growing
//     the port space, so a removed-and-restored edge reclaims its old
//     ports and the port space of a node stays bounded by its largest
//     concurrent degree. Port spaces never shrink while a node lives.
//   - Iteration. Neighbors(v) may contain None entries on a mutated
//     graph; all iteration must skip them. Degree(v) counts live
//     edges; Ports(v) is the size of the port space (live + holes).
//     Graphs that were only ever built through a Builder contain no
//     holes, so pre-existing callers observe identical behaviour.
//   - Liveness. RemoveNode detaches every incident edge and marks the
//     node dead; the slot (and its NodeID) survives so that per-node
//     protocol arrays keep their indexing. Dead nodes never appear in
//     any adjacency list, are skipped by the execution layer, and are
//     excluded from Connected and from legitimacy predicates. AddNode
//     revives the lowest dead slot (with an empty port space) before
//     appending a fresh one.
//   - Versioning. Every successful mutation increments Version, a
//     monotone counter letting caches detect staleness.
//   - Delta soundness. Every mutation returns a Delta whose Touched
//     set lists exactly the nodes whose local view (adjacency,
//     liveness) changed. A consumer that refreshes every derived fact
//     readable within its declared locality radius of the Touched set
//     is guaranteed consistency — the contract System.ApplyDelta and
//     the TopologyAware protocol hooks are built on. Applying the
//     mutation and telling the System are two halves of one operation:
//     any cache consulted in between (or a Delta that is dropped
//     instead of applied) sees stale guards, the same staleness rule
//     as Snapshotter.Restore and System.Invalidate.
type DeltaKind uint8

// Delta kinds.
const (
	// EdgeAdded: the edge {U,V} now exists, at PortU on U and PortV on V.
	EdgeAdded DeltaKind = iota + 1
	// EdgeRemoved: the edge {U,V} is gone; its ports are holes.
	EdgeRemoved
	// NodeAdded: node U is now alive, with an empty port space.
	NodeAdded
	// NodeRemoved: node U is dead and every incident edge was removed.
	NodeRemoved
)

// String renders the kind for traces.
func (k DeltaKind) String() string {
	switch k {
	case EdgeAdded:
		return "edge+"
	case EdgeRemoved:
		return "edge-"
	case NodeAdded:
		return "node+"
	case NodeRemoved:
		return "node-"
	}
	return "?"
}

// Delta records one topology mutation. Touched lists every node whose
// local view changed: the endpoints for edge events, the node itself
// for NodeAdded, and the node plus all its ex-neighbours for
// NodeRemoved.
type Delta struct {
	Kind    DeltaKind
	Version uint64 // graph version after the mutation
	U, V    NodeID // edge endpoints; U is the node for node events
	PortU   int    // port of the edge at U (-1 for node events)
	PortV   int    // port of the edge at V (-1 for node events)
	Touched []NodeID

	// Components is the number of connected components of the live
	// subgraph after the mutation, and CompChanged reports whether the
	// mutation relabelled components beyond the Touched set (an edge
	// addition merged two components, or a removal split one) — the
	// events that bump Graph.CompVersion. Consumers caching
	// component-derived facts must rebuild them when CompChanged is
	// set; everything else refreshes through Touched as usual.
	Components  int
	CompChanged bool
}

// String renders the delta for traces.
func (d Delta) String() string {
	switch d.Kind {
	case EdgeAdded, EdgeRemoved:
		return fmt.Sprintf("%s{%d,%d}@v%d", d.Kind, d.U, d.V, d.Version)
	default:
		return fmt.Sprintf("%s{%d}@v%d", d.Kind, d.U, d.Version)
	}
}

// Mutation errors.
var (
	ErrEdgeMissing = errors.New("graph: edge does not exist")
	ErrNodeDead    = errors.New("graph: node is not alive")
	ErrNodeAlive   = errors.New("graph: node is already alive")
)

// Version returns the monotone topology version: 0 for a freshly built
// graph, incremented by every successful mutation.
func (g *Graph) Version() uint64 { return g.version }

// Alive reports whether v is a live node. Graphs without node removals
// have every node alive.
func (g *Graph) Alive(v NodeID) bool { return g.alive == nil || g.alive[v] }

// NAlive returns the number of live nodes.
func (g *Graph) NAlive() int { return len(g.adj) - g.dead }

// RootEpoch returns the liveness epoch of v: a counter bumped every
// time v's liveness flips (RemoveNode kills it, AddNode revives it).
// It is 0 for a node that has never flipped. Consumers caching facts
// derived from a designated node's liveness must key the cache on this
// counter, not on Alive(v) itself: a die/revive pair between two cache
// queries restores Alive to true while the derived facts are garbage,
// and CompVersion does not help — component labels need not change
// when, say, a degree-one root dies. (That is the footgun this
// accessor exists to fix.)
func (g *Graph) RootEpoch(v NodeID) uint64 {
	if g.liveEpoch == nil || int(v) >= len(g.liveEpoch) || v < 0 {
		return 0
	}
	return g.liveEpoch[v]
}

// bumpLiveEpoch records a liveness flip at v.
func (g *Graph) bumpLiveEpoch(v NodeID) {
	if g.liveEpoch == nil {
		g.liveEpoch = make([]uint64, g.N())
	}
	for int(v) >= len(g.liveEpoch) {
		g.liveEpoch = append(g.liveEpoch, 0)
	}
	g.liveEpoch[v]++
}

// Ports returns the size of v's port space — live edges plus holes.
// Port-indexed per-node state must be sized by Ports, not Degree.
func (g *Graph) Ports(v NodeID) int { return len(g.adj[v]) }

// attach binds q to the lowest free port of v (reusing holes before
// growing the port space) and returns the port. The caller sets the
// port's back entry once the far end's port is known.
func (g *Graph) attach(v, q NodeID) int {
	g.deg[v]++
	for p, w := range g.adj[v] {
		if w == None {
			g.adj[v][p] = q
			return p
		}
	}
	g.adj[v] = append(g.adj[v], q)
	g.back[v] = append(g.back[v], -1)
	return len(g.adj[v]) - 1
}

// AddEdge inserts the undirected edge {u,v} into the live graph,
// filling the lowest hole in each endpoint's port space (or extending
// it). It returns the change record.
func (g *Graph) AddEdge(u, v NodeID) (Delta, error) {
	for _, x := range []NodeID{u, v} {
		if x < 0 || int(x) >= g.N() {
			return Delta{}, &NodeRangeError{Node: x, N: g.N()}
		}
		if !g.Alive(x) {
			return Delta{}, fmt.Errorf("%w: node %d", ErrNodeDead, x)
		}
	}
	if u == v {
		return Delta{}, fmt.Errorf("%w at node %d", ErrSelfLoop, u)
	}
	if g.HasEdge(u, v) {
		return Delta{}, fmt.Errorf("%w {%d,%d}", ErrDuplicateEdge, u, v)
	}
	g.ensureComp()
	pu := g.attach(u, v)
	pv := g.attach(v, u)
	g.back[u][pu] = int32(pv)
	g.back[v][pv] = int32(pu)
	g.edges++
	g.version++
	merged := g.compAddEdge(u, v)
	return Delta{
		Kind: EdgeAdded, Version: g.version,
		U: u, V: v, PortU: pu, PortV: pv,
		Touched:    []NodeID{u, v},
		Components: g.ncomp, CompChanged: merged,
	}, nil
}

// RemoveEdge deletes the edge {u,v}, leaving holes at its ports so
// every surviving edge keeps its port number.
func (g *Graph) RemoveEdge(u, v NodeID) (Delta, error) {
	for _, x := range []NodeID{u, v} {
		if x < 0 || int(x) >= g.N() {
			return Delta{}, &NodeRangeError{Node: x, N: g.N()}
		}
	}
	pu, ok := g.PortOf(u, v)
	if !ok {
		return Delta{}, fmt.Errorf("%w {%d,%d}", ErrEdgeMissing, u, v)
	}
	g.ensureComp()
	pv := g.BackPort(u, pu)
	g.adj[u][pu], g.back[u][pu] = None, -1
	g.deg[u]--
	g.adj[v][pv], g.back[v][pv] = None, -1
	g.deg[v]--
	g.edges--
	g.version++
	split := g.compRemoveEdge(u, v)
	return Delta{
		Kind: EdgeRemoved, Version: g.version,
		U: u, V: v, PortU: pu, PortV: pv,
		Touched:    []NodeID{u, v},
		Components: g.ncomp, CompChanged: split,
	}, nil
}

// AddNode makes a node available: it revives the lowest dead slot if
// one exists (keeping N() and every existing NodeID stable), otherwise
// appends a fresh slot, growing N() by one. The node starts with an
// empty port space; connect it with AddEdge.
func (g *Graph) AddNode() (NodeID, Delta) {
	g.ensureComp()
	if g.dead > 0 {
		for v := range g.alive {
			if !g.alive[v] {
				g.alive[v] = true
				g.dead--
				g.version++
				id := NodeID(v)
				g.bumpLiveEpoch(id)
				g.compAddNode(id)
				return id, Delta{
					Kind: NodeAdded, Version: g.version,
					U: id, V: None, PortU: -1, PortV: -1,
					Touched:    []NodeID{id},
					Components: g.ncomp,
				}
			}
		}
	}
	g.adj = append(g.adj, nil)
	g.back = append(g.back, nil)
	g.deg = append(g.deg, 0)
	if g.alive != nil {
		g.alive = append(g.alive, true)
	}
	g.version++
	id := NodeID(len(g.adj) - 1)
	g.compAddNode(id)
	return id, Delta{
		Kind: NodeAdded, Version: g.version,
		U: id, V: None, PortU: -1, PortV: -1,
		Touched:    []NodeID{id},
		Components: g.ncomp,
	}
}

// RemoveNode detaches every edge incident on v and marks v dead. The
// slot and its NodeID survive (AddNode can revive it); the Touched set
// is v plus all its ex-neighbours.
func (g *Graph) RemoveNode(v NodeID) (Delta, error) {
	if v < 0 || int(v) >= g.N() {
		return Delta{}, &NodeRangeError{Node: v, N: g.N()}
	}
	if !g.Alive(v) {
		return Delta{}, fmt.Errorf("%w: node %d", ErrNodeDead, v)
	}
	g.ensureComp()
	touched := []NodeID{v}
	for p, q := range g.adj[v] {
		if q == None {
			continue
		}
		pq := g.back[v][p]
		g.adj[q][pq], g.back[q][pq] = None, -1
		g.deg[q]--
		g.edges--
		touched = append(touched, q)
	}
	g.adj[v] = g.adj[v][:0]
	g.back[v] = g.back[v][:0]
	g.deg[v] = 0
	if g.alive == nil {
		g.alive = make([]bool, g.N())
		for i := range g.alive {
			g.alive[i] = true
		}
	}
	g.alive[v] = false
	g.dead++
	g.version++
	g.bumpLiveEpoch(v)
	split := g.compRemoveNode(v, touched[1:])
	return Delta{
		Kind: NodeRemoved, Version: g.version,
		U: v, V: None, PortU: -1, PortV: -1,
		Touched:    touched,
		Components: g.ncomp, CompChanged: split,
	}, nil
}
