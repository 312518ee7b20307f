package graph

import "fmt"

// This file implements whole-graph node relabeling: ReorderNodes
// produces a copy of the graph under a node-id permutation, and
// BFSOrder computes the breadth-first relabeling the sharded parallel
// stepper uses so that contiguous id ranges are topologically close
// (cache-friendly shards with thin boundaries). Relabeling obeys the
// mutable-graph contract of delta.go: port order is preserved exactly
// (only the *names* in the adjacency lists change), None holes stay at
// their ports, dead nodes keep a slot, and the copy carries the
// original's version and liveness epochs.

// ReorderNodes returns a copy of g whose node ids are relabeled by
// order: order[new] = old, a permutation of 0..N()-1 covering every
// slot, dead or alive. The second result is the inverse map
// (inv[old] = new) for translating roots and per-node protocol state.
// Each node's port numbering is untouched — Neighbors(new)[p] names
// the same physical edge (or the same hole) as Neighbors(old)[p] did —
// so a protocol rebuilt on the copy sees an isomorphic network with an
// identical ψ-ordering.
func (g *Graph) ReorderNodes(order []NodeID) (*Graph, []NodeID, error) {
	n := g.N()
	if len(order) != n {
		return nil, nil, fmt.Errorf("graph: reorder-nodes wants %d ids, got %d", n, len(order))
	}
	inv := make([]NodeID, n)
	for i := range inv {
		inv[i] = None
	}
	for newID, oldID := range order {
		if oldID < 0 || int(oldID) >= n {
			return nil, nil, &NodeRangeError{Node: oldID, N: n}
		}
		if inv[oldID] != None {
			return nil, nil, fmt.Errorf("graph: reorder-nodes order repeats node %d", oldID)
		}
		inv[oldID] = NodeID(newID)
	}
	ng := &Graph{
		adj:     make([][]NodeID, n),
		back:    make([][]int32, n),
		edges:   g.edges,
		deg:     make([]int, n),
		dead:    g.dead,
		version: g.version,
	}
	if g.alive != nil {
		ng.alive = make([]bool, n)
	}
	if g.liveEpoch != nil {
		ng.liveEpoch = make([]uint64, len(g.liveEpoch))
	}
	for newID, oldID := range order {
		old := g.adj[oldID]
		ng.adj[newID] = make([]NodeID, len(old))
		for p, q := range old {
			if q == None {
				ng.adj[newID][p] = None
				continue
			}
			ng.adj[newID][p] = inv[q]
		}
		ng.back[newID] = append([]int32(nil), g.back[oldID]...)
		ng.deg[newID] = g.deg[oldID]
		if g.alive != nil {
			ng.alive[newID] = g.alive[oldID]
		}
		if g.liveEpoch != nil && int(oldID) < len(g.liveEpoch) {
			ng.liveEpoch[newID] = g.liveEpoch[oldID]
		}
	}
	return ng, inv, nil
}

// BFSOrder returns a relabeling order for ReorderNodes that lists root
// first, then the rest of root's component in breadth-first discovery
// order (neighbours in port order), then any remaining slots — other
// components and dead nodes — in ascending old-id order. Under the
// resulting ids, nodes at similar BFS depth are numbered contiguously,
// which is what makes contiguous-range shards topologically thin.
func BFSOrder(g *Graph, root NodeID) ([]NodeID, error) {
	n := g.N()
	if root < 0 || int(root) >= n {
		return nil, &NodeRangeError{Node: root, N: n}
	}
	if !g.Alive(root) {
		return nil, fmt.Errorf("%w: node %d", ErrNodeDead, root)
	}
	order := make([]NodeID, 0, n)
	seen := make([]bool, n)
	order = append(order, root)
	seen[root] = true
	for head := 0; head < len(order); head++ {
		for _, q := range g.adj[order[head]] {
			if q == None || seen[q] || !g.Alive(q) {
				continue
			}
			seen[q] = true
			order = append(order, q)
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			order = append(order, NodeID(v))
		}
	}
	return order, nil
}
