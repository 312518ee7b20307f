package graph

import "testing"

// churnedGraph builds a ring with removed edges (port holes) and one
// dead node, the shape Reorder and ReorderNodes must survive.
func churnedGraph(t *testing.T) *Graph {
	t.Helper()
	g := Ring(8)
	if _, err := g.AddEdge(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RemoveEdge(2, 3); err != nil { // leaves holes at 2 and 3
		t.Fatal(err)
	}
	if _, err := g.RemoveNode(6); err != nil { // dead slot, holes at 5 and 7
		t.Fatal(err)
	}
	return g
}

// checkMutationsAfterCopy mutates a reordered copy — re-filling holes,
// cutting an edge, killing and reviving a node — and re-checks the
// structural invariants after each step, so the copied back ports stay
// consistent under the mutations that read them.
func checkMutationsAfterCopy(t *testing.T, g *Graph) {
	t.Helper()
	cut := g.Edges()[0]
	steps := []func() error{
		func() error { _, err := g.RemoveEdge(cut.U, cut.V); return err },
		func() error { _, err := g.AddEdge(cut.U, cut.V); return err },
		func() error { _, err := g.RemoveNode(cut.U); return err },
		func() error {
			for !g.Alive(cut.U) { // revive cut.U past lower dead slots
				g.AddNode()
			}
			return nil
		},
		func() error { _, err := g.AddEdge(cut.U, cut.V); return err },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("mutation %d after copy: %v", i, err)
		}
		checkGraphInvariants(t, g, "mutated copy")
	}
}

// TestReorderChurned checks the port-space contract on a mutated
// graph: permutations cover holes, holes travel to their new port, and
// the copy carries the version and liveness epochs of the original.
func TestReorderChurned(t *testing.T) {
	g := churnedGraph(t)
	perm := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		p := g.Ports(NodeID(v))
		perm[v] = make([]int, p)
		for i := 0; i < p; i++ {
			perm[v][i] = p - 1 - i // reverse the port space, holes included
		}
	}
	ng, err := g.Reorder(perm)
	if err != nil {
		t.Fatal(err)
	}
	checkGraphInvariants(t, ng, "reordered ports")
	defer checkMutationsAfterCopy(t, ng)
	if ng.Version() != g.Version() {
		t.Fatalf("version not carried: %d != %d", ng.Version(), g.Version())
	}
	if ng.N() != g.N() || ng.M() != g.M() || ng.NAlive() != g.NAlive() {
		t.Fatalf("shape changed: n=%d/%d m=%d/%d alive=%d/%d",
			ng.N(), g.N(), ng.M(), g.M(), ng.NAlive(), g.NAlive())
	}
	for v := 0; v < g.N(); v++ {
		id := NodeID(v)
		if ng.Alive(id) != g.Alive(id) {
			t.Fatalf("node %d: liveness flipped", v)
		}
		if ng.RootEpoch(id) != g.RootEpoch(id) {
			t.Fatalf("node %d: liveness epoch not carried", v)
		}
		if ng.Ports(id) != g.Ports(id) || ng.Degree(id) != g.Degree(id) {
			t.Fatalf("node %d: port space %d/%d degree %d/%d",
				v, ng.Ports(id), g.Ports(id), ng.Degree(id), g.Degree(id))
		}
		old, now := g.Neighbors(id), ng.Neighbors(id)
		for p := range old {
			if now[len(now)-1-p] != old[p] {
				t.Fatalf("node %d: old port %d (%d) did not travel to new port %d (got %d)",
					v, p, old[p], len(now)-1-p, now[len(now)-1-p])
			}
		}
		for p, q := range now {
			if q == None {
				continue
			}
			back, ok := ng.PortOf(id, q)
			if !ok || back != p {
				t.Fatalf("node %d: PortOf(%d) = %d,%v; want %d", v, q, back, ok, p)
			}
		}
	}
	// Length mismatch (live degree instead of port space) must be
	// rejected: node 2 has a hole, so its live degree undercounts.
	bad := make([][]int, g.N())
	for v := range bad {
		bad[v] = make([]int, g.Degree(NodeID(v)))
		for i := range bad[v] {
			bad[v][i] = i
		}
	}
	if _, err := g.Reorder(bad); err == nil {
		t.Fatal("Reorder accepted live-degree-sized permutations on a holed graph")
	}
}

// TestReorderNodesChurned relabels a churned graph by a BFS order and
// checks the relabeling is a port-preserving isomorphism that carries
// dead slots, holes, version and liveness epochs.
func TestReorderNodesChurned(t *testing.T) {
	g := churnedGraph(t)
	order, err := BFSOrder(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != g.N() {
		t.Fatalf("order covers %d of %d slots", len(order), g.N())
	}
	if order[0] != 4 {
		t.Fatalf("BFS order starts at %d, want root 4", order[0])
	}
	ng, inv, err := g.ReorderNodes(order)
	if err != nil {
		t.Fatal(err)
	}
	checkGraphInvariants(t, ng, "relabeled nodes")
	defer checkMutationsAfterCopy(t, ng)
	for old, nw := range inv {
		if order[nw] != NodeID(old) {
			t.Fatalf("inv is not the inverse of order at old id %d", old)
		}
	}
	if ng.Version() != g.Version() || ng.N() != g.N() || ng.M() != g.M() || ng.NAlive() != g.NAlive() {
		t.Fatal("shape or version not carried")
	}
	for old := 0; old < g.N(); old++ {
		oldID, newID := NodeID(old), inv[old]
		if ng.Alive(newID) != g.Alive(oldID) {
			t.Fatalf("old %d / new %d: liveness flipped", old, newID)
		}
		if ng.RootEpoch(newID) != g.RootEpoch(oldID) {
			t.Fatalf("old %d / new %d: liveness epoch not carried", old, newID)
		}
		oldAdj, newAdj := g.Neighbors(oldID), ng.Neighbors(newID)
		if len(oldAdj) != len(newAdj) {
			t.Fatalf("old %d: port space changed", old)
		}
		for p := range oldAdj {
			want := None
			if oldAdj[p] != None {
				want = inv[oldAdj[p]]
			}
			if newAdj[p] != want {
				t.Fatalf("old %d port %d: neighbour %d, want %d", old, p, newAdj[p], want)
			}
		}
	}
	// BFS discovery order keeps live distance monotone: every non-root
	// live node's new id is greater than some neighbour's new id that
	// was discovered before it (contiguity is what Reorder buys the
	// sharded stepper; exact layout is the builder's business).
	if !ng.Connected() == g.Connected() {
		t.Fatal("connectivity changed under relabeling")
	}
}

func TestReorderNodesRejects(t *testing.T) {
	g := Ring(5)
	if _, _, err := g.ReorderNodes([]NodeID{0, 1, 2}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, _, err := g.ReorderNodes([]NodeID{0, 1, 2, 3, 3}); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if _, _, err := g.ReorderNodes([]NodeID{0, 1, 2, 3, 9}); err == nil {
		t.Fatal("out-of-range order accepted")
	}
	if _, err := BFSOrder(g, 9); err == nil {
		t.Fatal("out-of-range BFS root accepted")
	}
	gg := churnedGraph(t)
	if _, err := BFSOrder(gg, 6); err == nil {
		t.Fatal("dead BFS root accepted")
	}
}
