package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRemoveEdgeKeepsSurvivingPorts pins the port-stability half of the
// mutable-graph contract: removing an edge leaves a hole and every
// other edge keeps its port number; re-adding the edge reclaims the
// hole.
func TestRemoveEdgeKeepsSurvivingPorts(t *testing.T) {
	g := Wheel(6) // hub 0 adjacent to 1..5 on ports 0..4
	before := g.NeighborsCopy(0)
	d, err := g.RemoveEdge(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != EdgeRemoved || d.U != 0 || d.V != 3 {
		t.Fatalf("delta = %+v", d)
	}
	if g.Neighbor(0, d.PortU) != None {
		t.Fatalf("port %d at 0 should be a hole", d.PortU)
	}
	if g.Degree(0) != 4 || g.Ports(0) != 5 {
		t.Fatalf("degree/ports = %d/%d, want 4/5", g.Degree(0), g.Ports(0))
	}
	for p, q := range before {
		if q == 3 {
			continue
		}
		if g.Neighbor(0, p) != q {
			t.Fatalf("surviving port %d moved: %d -> %d", p, q, g.Neighbor(0, p))
		}
		if got, ok := g.PortOf(0, q); !ok || got != p {
			t.Fatalf("PortOf(0,%d) = %d,%v want %d", q, got, ok, p)
		}
	}
	if _, ok := g.PortOf(0, 3); ok {
		t.Fatal("PortOf still reports the removed edge")
	}
	// Re-adding reclaims the lowest hole — the old port.
	d2, err := g.AddEdge(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d2.PortU != d.PortU || d2.PortV != d.PortV {
		t.Fatalf("re-added edge got ports %d/%d, want reclaimed %d/%d", d2.PortU, d2.PortV, d.PortU, d.PortV)
	}
	if g.Degree(0) != 5 || g.Ports(0) != 5 {
		t.Fatalf("degree/ports after re-add = %d/%d", g.Degree(0), g.Ports(0))
	}
	if d2.Version <= d.Version {
		t.Fatalf("version not monotone: %d then %d", d.Version, d2.Version)
	}
}

// TestRemoveNodeAndRevive pins the liveness half: RemoveNode detaches
// all edges, keeps the slot, and AddNode revives it.
func TestRemoveNodeAndRevive(t *testing.T) {
	g := Grid(3, 3)
	n, m := g.N(), g.M()
	d, err := g.RemoveNode(4) // centre, degree 4
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Touched) != 5 {
		t.Fatalf("touched %v, want centre + 4 neighbours", d.Touched)
	}
	if g.Alive(4) || g.NAlive() != n-1 || g.N() != n || g.M() != m-4 {
		t.Fatalf("liveness bookkeeping wrong: alive=%v nAlive=%d n=%d m=%d", g.Alive(4), g.NAlive(), g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		for _, q := range g.Neighbors(NodeID(v)) {
			if q == 4 {
				t.Fatalf("dead node still in %d's adjacency", v)
			}
		}
	}
	if !g.Connected() {
		t.Fatal("3x3 grid minus centre should stay connected (live subgraph)")
	}
	// Revive and reconnect.
	id, d2 := g.AddNode()
	if id != 4 || d2.Kind != NodeAdded {
		t.Fatalf("revive gave node %d delta %+v, want slot 4", id, d2)
	}
	if g.Ports(4) != 0 {
		t.Fatal("revived node should start with an empty port space")
	}
	if g.Connected() {
		t.Fatal("isolated revived node must disconnect the live graph")
	}
	if _, err := g.AddEdge(4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(4, 7); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("reconnected graph should be connected")
	}
}

// TestMutationErrors covers the rejection paths.
func TestMutationErrors(t *testing.T) {
	g := Ring(5)
	if _, err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := g.AddEdge(0, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
	if _, err := g.RemoveEdge(0, 2); err == nil {
		t.Error("removing a non-edge accepted")
	}
	if _, err := g.AddEdge(0, 99); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := g.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RemoveNode(2); err == nil {
		t.Error("double removal accepted")
	}
	if _, err := g.AddEdge(2, 0); err == nil {
		t.Error("edge to a dead node accepted")
	}
}

// TestTraversalSkipsHolesAndDead checks BFS/DFS and Edges on a mutated
// graph.
func TestTraversalSkipsHolesAndDead(t *testing.T) {
	g := Grid(3, 3)
	if _, err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RemoveNode(8); err != nil {
		t.Fatal(err)
	}
	dist, _ := BFSFrom(g, 0)
	if dist[1] != 3 { // 0-3-4-1 now that 0-1 is gone
		t.Fatalf("dist[1] = %d, want 3", dist[1])
	}
	if dist[8] != -1 {
		t.Fatal("dead node reachable")
	}
	order, _ := DFSPreorder(g, 0)
	if len(order) != 8 {
		t.Fatalf("DFS reached %d nodes, want 8 live", len(order))
	}
	for _, e := range g.Edges() {
		if e.U == None || e.V == None || e.U == 8 || e.V == 8 {
			t.Fatalf("Edges() leaked hole or dead node: %+v", e)
		}
	}
	if len(g.Edges()) != g.M() {
		t.Fatalf("Edges() length %d != M() %d", len(g.Edges()), g.M())
	}
}

// TestMutationFollowedByRandomChurn stress-checks internal consistency
// under a long random mutation sequence.
func TestMutationFollowedByRandomChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Grid(4, 4)
	type edge struct{ u, v NodeID }
	var removed []edge
	for i := 0; i < 500; i++ {
		switch rng.Intn(3) {
		case 0: // remove a random live edge
			es := g.Edges()
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			if _, err := g.RemoveEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			removed = append(removed, edge{e.U, e.V})
		case 1: // re-add a previously removed edge
			if len(removed) == 0 {
				continue
			}
			k := rng.Intn(len(removed))
			e := removed[k]
			removed = append(removed[:k], removed[k+1:]...)
			if g.Alive(e.u) && g.Alive(e.v) && !g.HasEdge(e.u, e.v) {
				if _, err := g.AddEdge(e.u, e.v); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // crash or revive a node
			if g.NAlive() > 2 && rng.Intn(2) == 0 {
				v := NodeID(rng.Intn(g.N()))
				if g.Alive(v) {
					if _, err := g.RemoveNode(v); err != nil {
						t.Fatal(err)
					}
				}
			} else if g.NAlive() < g.N() {
				g.AddNode()
			}
		}
		// Invariants: degree bookkeeping, back ports, symmetry,
		// components.
		checkGraphInvariants(t, g, fmt.Sprintf("step %d", i))
	}
}

// TestGnp checks the generator and its disconnection rejection.
func TestGnp(t *testing.T) {
	g, err := Gnp(64, 0.2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 64 || !g.Connected() {
		t.Fatalf("gnp draw wrong: %s", g)
	}
	if _, err := Gnp(64, 0.001, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("sparse disconnected draw not rejected")
	}
	// Determinism: same seed, same graph.
	g2, _ := Gnp(64, 0.2, rand.New(rand.NewSource(1)))
	if len(g.Edges()) != len(g2.Edges()) {
		t.Fatal("gnp is not deterministic under a fixed seed")
	}
}

// TestBarabasi checks connectivity, size and the degree skew.
func TestBarabasi(t *testing.T) {
	g, err := Barabasi(200, 2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 || !g.Connected() {
		t.Fatalf("barabasi draw wrong: %s", g)
	}
	wantM := 3 + (200-3)*2 // seed triangle + m per later node
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	if g.MaxDegree() < 8 {
		t.Fatalf("max degree %d suspiciously flat for preferential attachment", g.MaxDegree())
	}
	if _, err := Barabasi(2, 2, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("n < m+1 accepted")
	}
}

// TestNamedNewFamilies covers the new spec forms and the parser's size
// guard rails.
func TestNamedNewFamilies(t *testing.T) {
	for _, spec := range []string{"gnp:40:0.2:7", "barabasi:60:2:7"} {
		g, err := Named(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !g.Connected() {
			t.Fatalf("%s: disconnected", spec)
		}
	}
	for _, spec := range []string{
		"ring:-4", "ring:2", "clique:100000", "grid:0x5", "gnp:10:1.5:1",
		"gnp:10:nan:1", "torus:2x9", "cube:30", "tree:5:0", "barabasi:2:5:1",
		"caterpillar:-1:2", "random:5:-1:0",
	} {
		if _, err := Named(spec); err == nil {
			t.Errorf("%s: accepted, want error", spec)
		}
	}
}

// TestRootEpoch pins the liveness-epoch contract: 0 until the first
// flip, one bump per kill and one per revival, and independence from
// CompVersion — the footgun it exists to fix is a designated node
// dying and reviving between two cache queries without any component
// relabel, which leaves Alive() compare-equal while every fact derived
// from the node's liveness is stale.
func TestRootEpoch(t *testing.T) {
	g := Path(3)
	if g.RootEpoch(0) != 0 || g.RootEpoch(2) != 0 {
		t.Fatalf("fresh graph has nonzero epochs: %d %d", g.RootEpoch(0), g.RootEpoch(2))
	}
	if _, err := g.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	if g.RootEpoch(2) != 1 {
		t.Fatalf("epoch after kill = %d, want 1", g.RootEpoch(2))
	}
	if g.RootEpoch(0) != 0 || g.RootEpoch(1) != 0 {
		t.Fatal("kill of node 2 bumped a survivor's epoch")
	}
	id, _ := g.AddNode()
	if id != 2 {
		t.Fatalf("revive picked slot %d, want 2", id)
	}
	if g.Alive(2) != true || g.RootEpoch(2) != 2 {
		t.Fatalf("epoch after revive = %d (alive=%v), want 2", g.RootEpoch(2), g.Alive(2))
	}
	// A die/revive pair is invisible to Alive but not to RootEpoch.
	before := g.RootEpoch(2)
	if _, err := g.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	if _, d := g.AddNode(); d.Kind != NodeAdded {
		t.Fatalf("revive delta kind %v", d.Kind)
	}
	if g.RootEpoch(2) != before+2 {
		t.Fatalf("die/revive pair moved epoch %d→%d, want +2", before, g.RootEpoch(2))
	}
	// Appending a brand-new slot starts at epoch 0 (it never flipped).
	id, _ = g.AddNode()
	if int(id) != 3 || g.RootEpoch(id) != 0 {
		t.Fatalf("fresh slot %d has epoch %d, want 0", id, g.RootEpoch(id))
	}
	// Out-of-range queries are safe.
	if g.RootEpoch(-1) != 0 || g.RootEpoch(NodeID(99)) != 0 {
		t.Fatal("out-of-range RootEpoch not zero")
	}
}

// TestPortOfRejectsNonNeighbours pins the PortOf/HasEdge argument
// contract on the map-free port index: None, out-of-range ids, a node
// whose port was left a hole and a dead node all report no edge — a
// naive scan would match None against a hole.
func TestPortOfRejectsNonNeighbours(t *testing.T) {
	g := Ring(6)
	if _, err := g.RemoveEdge(0, 1); err != nil { // hole at port 0 of both
		t.Fatal(err)
	}
	if _, err := g.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v, q NodeID
	}{
		{"None neighbour", 0, None},
		{"None node", None, 0},
		{"None on a hole-free node", 4, None},
		{"out of range", 0, 6},
		{"out of range node", 6, 0},
		{"negative", 0, -2},
		{"hole", 0, 1},
		{"hole reversed", 1, 0},
		{"dead node", 2, 3},
		{"dead node reversed", 3, 4},
		{"dead to dead", 3, 3},
	} {
		if p, ok := g.PortOf(c.v, c.q); ok {
			t.Errorf("%s: PortOf(%d,%d) = %d, want no edge", c.name, c.v, c.q, p)
		}
		if g.HasEdge(c.v, c.q) {
			t.Errorf("%s: HasEdge(%d,%d) = true", c.name, c.v, c.q)
		}
	}
	if g.BackPort(0, 0) != -1 || g.BackPort(0, 1) != 1 {
		t.Errorf("BackPort(0,·) = %d,%d, want -1,1", g.BackPort(0, 0), g.BackPort(0, 1))
	}
	// Both scan directions: from the hub PortOf scans the leaf's
	// shorter list and answers through its back port.
	star := Star(4)
	if p, ok := star.PortOf(0, 3); !ok || p != 2 {
		t.Errorf("PortOf(hub, leaf 3) = %d,%v, want 2,true", p, ok)
	}
	if p, ok := star.PortOf(3, 0); !ok || p != 0 {
		t.Errorf("PortOf(leaf 3, hub) = %d,%v, want 0,true", p, ok)
	}
}
