package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 0); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self-loop: got %v", err)
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("duplicate: got %v", err)
	}
	var rangeErr *NodeRangeError
	if err := b.AddEdge(0, 7); !errors.As(err, &rangeErr) {
		t.Errorf("out of range: got %v", err)
	}
}

func TestBuildConnected(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	if _, err := b.BuildConnected(); !errors.Is(err, ErrNotConnected) {
		t.Errorf("got %v, want ErrNotConnected", err)
	}
	b.MustAddEdge(1, 2)
	if _, err := b.BuildConnected(); err != nil {
		t.Errorf("connected build failed: %v", err)
	}
}

func TestPortNumbersFollowInsertionOrder(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(0, 2)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(0, 3)
	g := b.Build()
	want := []NodeID{2, 1, 3}
	for port, q := range g.Neighbors(0) {
		if q != want[port] {
			t.Fatalf("port %d = node %d, want %d", port, q, want[port])
		}
	}
	for port, q := range want {
		if p, ok := g.PortOf(0, q); !ok || p != port {
			t.Errorf("PortOf(0,%d) = %d,%v want %d,true", q, p, ok, port)
		}
	}
	if _, ok := g.PortOf(1, 3); ok {
		t.Error("PortOf on non-edge should report false")
	}
}

func TestGeneratorShapes(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
		dia  int // -1 to skip
	}{
		{"ring5", Ring(5), 5, 5, 2},
		{"path6", Path(6), 6, 5, 5},
		{"star7", Star(7), 7, 6, 2},
		{"K5", Complete(5), 5, 10, 1},
		{"wheel6", Wheel(6), 6, 10, 2},
		{"grid3x4", Grid(3, 4), 12, 17, 5},
		{"torus3x3", Torus(3, 3), 9, 18, 2},
		{"cube3", Hypercube(3), 8, 12, 3},
		{"tree7", KAryTree(7, 2), 7, 6, -1},
		{"caterpillar", Caterpillar(3, 2), 9, 8, -1},
		{"lollipop", Lollipop(4, 3), 7, 9, 4},
		{"paper-token", PaperTokenExample(), 5, 4, -1},
		{"paper-tree", PaperTreeExample(), 5, 4, -1},
		{"paper-chordal", PaperChordalExample(), 5, 6, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.g.N() != c.n || c.g.M() != c.m {
				t.Fatalf("n=%d m=%d, want n=%d m=%d", c.g.N(), c.g.M(), c.n, c.m)
			}
			if !c.g.Connected() {
				t.Fatal("generator produced a disconnected graph")
			}
			if c.dia >= 0 {
				if d := Diameter(c.g); d != c.dia {
					t.Errorf("diameter %d, want %d", d, c.dia)
				}
			}
		})
	}
}

func TestCirculant(t *testing.T) {
	g, err := Circulant(16, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("C16(1,4): got %s, want n=16 m=32", g)
	}
	for v := 0; v < 16; v++ {
		for _, d := range []int{1, 4} {
			if !g.HasEdge(NodeID(v), NodeID((v+d)%16)) {
				t.Fatalf("missing chord %d→%d", v, (v+d)%16)
			}
		}
	}
	// n even and offset n/2: each diameter chord appears once, so
	// C6(1,3) has 6 ring edges plus 3 chords.
	g2, err := Circulant(6, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 9 {
		t.Fatalf("C6(1,3): m=%d, want 9", g2.M())
	}
	// A lone n/2 offset yields a disconnected matching and is refused.
	if _, err := Circulant(6, []int{3}); err == nil {
		t.Error("disconnected circulant accepted")
	}
	if _, err := Circulant(8, []int{0}); err == nil {
		t.Error("offset 0 accepted")
	}
	if _, err := Circulant(8, []int{5}); err == nil {
		t.Error("offset beyond n/2 accepted")
	}
	if _, err := Circulant(8, []int{2, 2}); err == nil {
		t.Error("duplicate offset accepted")
	}
	if g3, err := Named("circulant:12:3"); err != nil || g3.N() != 12 {
		t.Errorf("named circulant: %v %v", g3, err)
	}
}

func TestRandomGeneratorsProduceConnectedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		g := RandomTree(n, rng)
		if !IsTree(g) {
			t.Fatalf("RandomTree(%d) is not a tree", n)
		}
		g2 := RandomConnected(n, rng.Intn(2*n), rng)
		if !g2.Connected() {
			t.Fatalf("RandomConnected(%d) is not connected", n)
		}
	}
}

func TestBFSAndDFSAgreeOnReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		g := RandomConnected(3+rng.Intn(20), rng.Intn(10), rng)
		dist, bfsPar := BFSFrom(g, 0)
		order, dfsPar := DFSPreorder(g, 0)
		if len(order) != g.N() {
			t.Fatalf("DFS visited %d of %d nodes", len(order), g.N())
		}
		for v := 0; v < g.N(); v++ {
			if dist[v] < 0 {
				t.Fatalf("BFS missed node %d in a connected graph", v)
			}
			if v != 0 && (bfsPar[v] == None || dfsPar[v] == None) {
				t.Fatalf("missing parent for node %d", v)
			}
		}
		if !SpanningParent(g, bfsPar, 0) || !SpanningParent(g, dfsPar, 0) {
			t.Fatal("BFS/DFS parents do not span")
		}
	}
}

func TestDFSPreorderFollowsPortOrder(t *testing.T) {
	g := PaperTokenExample()
	order, parent := DFSPreorder(g, 0)
	wantOrder := []NodeID{0, 1, 2, 3, 4} // r, b, d, c, a by construction
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("order %v, want %v", order, wantOrder)
		}
	}
	wantParent := []NodeID{None, 0, 1, 2, 0}
	for v := range wantParent {
		if parent[v] != wantParent[v] {
			t.Fatalf("parent %v, want %v", parent, wantParent)
		}
	}
}

func TestTreeHeight(t *testing.T) {
	// Path: height n-1 from the end.
	_, par := BFSFrom(Path(6), 0)
	if h := TreeHeight(par, 0); h != 5 {
		t.Errorf("path height %d, want 5", h)
	}
	// Balanced binary tree of 7 nodes: height 2.
	_, par = BFSFrom(KAryTree(7, 2), 0)
	if h := TreeHeight(par, 0); h != 2 {
		t.Errorf("tree height %d, want 2", h)
	}
	// Cycle in the parent vector is rejected.
	bad := []NodeID{None, 2, 1}
	if h := TreeHeight(bad, 0); h != -1 {
		t.Errorf("cyclic parent vector: height %d, want -1", h)
	}
}

func TestChildrenOfPortOrder(t *testing.T) {
	g := Star(5)
	_, par := BFSFrom(g, 0)
	kids := ChildrenOf(g, par)
	if len(kids[0]) != 4 {
		t.Fatalf("root children %d, want 4", len(kids[0]))
	}
	for i, q := range kids[0] {
		if q != g.Neighbor(0, i) {
			t.Errorf("child %d = %d, want %d (port order)", i, q, g.Neighbor(0, i))
		}
	}
}

func TestReorderPreservesStructure(t *testing.T) {
	g := Complete(4)
	perm := make([][]int, g.N())
	for v := range perm {
		perm[v] = []int{2, 0, 1} // rotate ports
	}
	ng, err := g.Reorder(perm)
	if err != nil {
		t.Fatal(err)
	}
	if ng.N() != g.N() || ng.M() != g.M() {
		t.Fatal("reorder changed size")
	}
	checkGraphInvariants(t, ng, "reordered clique")
	for v := 0; v < g.N(); v++ {
		for _, q := range g.Neighbors(NodeID(v)) {
			if !ng.HasEdge(NodeID(v), q) {
				t.Fatalf("edge {%d,%d} lost", v, q)
			}
		}
		if ng.Neighbor(NodeID(v), 0) != g.Neighbor(NodeID(v), 2) {
			t.Fatal("port permutation not applied")
		}
	}
	// Invalid permutations are rejected.
	if _, err := g.Reorder(perm[:2]); err == nil {
		t.Error("expected error for wrong permutation count")
	}
	badPerm := [][]int{{0, 0, 1}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}}
	if _, err := g.Reorder(badPerm); err == nil {
		t.Error("expected error for non-permutation")
	}
}

func TestNamedSpecs(t *testing.T) {
	specs := []struct {
		spec string
		n    int
	}{
		{"ring:7", 7}, {"path:4", 4}, {"star:5", 5}, {"clique:4", 4},
		{"wheel:6", 6}, {"grid:2x3", 6}, {"torus:3x3", 9}, {"cube:3", 8},
		{"tree:7:2", 7}, {"caterpillar:3:1", 6}, {"lollipop:3:2", 5},
		{"random:10:5:1", 10}, {"rtree:9:2", 9},
		{"paper-token", 5}, {"paper-tree", 5}, {"paper-chordal", 5},
	}
	for _, s := range specs {
		g, err := Named(s.spec)
		if err != nil {
			t.Errorf("%s: %v", s.spec, err)
			continue
		}
		if g.N() != s.n {
			t.Errorf("%s: n=%d, want %d", s.spec, g.N(), s.n)
		}
	}
	if _, err := Named("nonsense:1:2"); err == nil {
		t.Error("expected error for unknown spec")
	}
}

// TestEdgesPropertyBased: for random graphs, Edges() lists each edge
// once with U<V and is consistent with HasEdge.
func TestEdgesPropertyBased(t *testing.T) {
	f := func(seed int64, nRaw uint8, extraRaw uint8) bool {
		n := 2 + int(nRaw%20)
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(n, int(extraRaw%16), rng)
		edges := g.Edges()
		if len(edges) != g.M() {
			return false
		}
		seen := make(map[Edge]bool)
		for _, e := range edges {
			if e.U >= e.V || seen[e] || !g.HasEdge(e.U, e.V) || !g.HasEdge(e.V, e.U) {
				return false
			}
			seen[e] = true
		}
		// Degree sum equals 2m.
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(NodeID(v))
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestBFSDistanceTriangleInequality (property): BFS distances obey
// |d(u)-d(v)| ≤ 1 across every edge.
func TestBFSDistanceTriangleInequality(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%25)
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(n, n/2, rng)
		dist, _ := BFSFrom(g, 0)
		for _, e := range g.Edges() {
			d := dist[e.U] - dist[e.V]
			if d < -1 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestNeighborsCopyIsPrivate(t *testing.T) {
	g := Ring(4)
	cp := g.NeighborsCopy(0)
	cp[0] = 99
	if g.Neighbors(0)[0] == 99 {
		t.Fatal("NeighborsCopy aliases internal storage")
	}
}
