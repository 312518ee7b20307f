package sod

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"netorient/internal/graph"
)

// identityNames returns names equal to node ids.
func identityNames(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestFromNamesProducesValidChordalLabeling(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ring6":   graph.Ring(6),
		"clique5": graph.Complete(5),
		"grid3x3": graph.Grid(3, 3),
		"chordal": graph.PaperChordalExample(),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			l := FromNames(g, identityNames(g.N()), g.N())
			if err := l.Validate(g); err != nil {
				t.Fatalf("labeling invalid: %v", err)
			}
		})
	}
}

func TestValidateDetectsSP1Violations(t *testing.T) {
	g := graph.Ring(4)
	l := FromNames(g, []int{0, 1, 1, 3}, 4) // duplicate name
	var sp1 *SP1Error
	if err := l.Validate(g); !errors.As(err, &sp1) {
		t.Fatalf("got %v, want SP1Error", err)
	}
	l = FromNames(g, []int{0, 1, 2, 9}, 4) // out of range
	if err := l.Validate(g); !errors.As(err, &sp1) {
		t.Fatalf("got %v, want SP1Error", err)
	}
}

func TestValidateDetectsSP2Violations(t *testing.T) {
	g := graph.Ring(4)
	l := FromNames(g, identityNames(4), 4)
	l.Labels[1][0] = (l.Labels[1][0] + 1) % 4 // corrupt one label
	var sp2 *SP2Error
	if err := l.Validate(g); !errors.As(err, &sp2) {
		t.Fatalf("got %v, want SP2Error", err)
	}
}

func TestValidateDetectsShapeMismatch(t *testing.T) {
	g := graph.Ring(4)
	l := FromNames(g, identityNames(4), 4)
	l.Names = l.Names[:3]
	if err := l.Validate(g); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
	l = FromNames(g, identityNames(4), 3) // modulus below n
	if err := l.Validate(g); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
}

// TestLabelingOnHoledGraphs: FromNames and Validate skip the None
// holes removed edges leave in the port space (they used to index
// Names with None and panic), on a ring and a grid after RemoveEdge
// and again after a flap re-fills the hole; a corrupted live label
// beside a hole is still caught.
func TestLabelingOnHoledGraphs(t *testing.T) {
	for name, build := range map[string]func() *graph.Graph{
		"ring6":   func() *graph.Graph { return graph.Ring(6) },
		"grid3x3": func() *graph.Graph { return graph.Grid(3, 3) },
	} {
		t.Run(name, func(t *testing.T) {
			g := build()
			d, err := g.RemoveEdge(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				t.Helper()
				l := FromNames(g, identityNames(g.N()), g.N())
				if err := l.Validate(g); err != nil {
					t.Fatalf("%s: labeling invalid: %v", stage, err)
				}
				if g.Neighbor(0, d.PortU) == graph.None {
					return
				}
				l.Labels[0][d.PortU] = Mod(l.Labels[0][d.PortU]+1, g.N())
				var sp2 *SP2Error
				if err := l.Validate(g); !errors.As(err, &sp2) {
					t.Fatalf("%s: corrupted label: got %v, want SP2Error", stage, err)
				}
			}
			check("after remove")
			// Corrupt the live port next to the hole: still detected.
			l := FromNames(g, identityNames(g.N()), g.N())
			live := 1 - d.PortU // ports 0/1 at node 0: one hole, one live
			l.Labels[0][live] = Mod(l.Labels[0][live]+1, g.N())
			var sp2 *SP2Error
			if err := l.Validate(g); !errors.As(err, &sp2) {
				t.Fatalf("corrupted live label beside a hole: got %v, want SP2Error", err)
			}
			if _, err := g.AddEdge(0, 1); err != nil { // flap: re-fills the hole
				t.Fatal(err)
			}
			check("after flap")
		})
	}
}

// TestChordalInverseProperty (§2.2): if the link is labeled d at p, it
// is labeled N−d at q — property-checked over random graphs and random
// permutation namings.
func TestChordalInverseProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, extraRaw uint8) bool {
		n := 3 + int(nRaw%20)
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(n, int(extraRaw%10), rng)
		names := rng.Perm(n)
		l := FromNames(g, names, n)
		if err := l.Validate(g); err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			for port, q := range g.Neighbors(graph.NodeID(v)) {
				back := g.BackPort(graph.NodeID(v), port)
				if Mod(l.Labels[v][port]+l.Labels[q][back], n) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTranslateNameProperty: the name derived across any edge matches
// the neighbour's actual name — the SoD translation property.
func TestTranslateNameProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 3 + int(nRaw%20)
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(n, n/2, rng)
		names := rng.Perm(n)
		l := FromNames(g, names, n)
		for v := 0; v < n; v++ {
			for port, q := range g.Neighbors(graph.NodeID(v)) {
				if l.TranslateName(graph.NodeID(v), port) != names[q] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNodeByName(t *testing.T) {
	g := graph.Ring(5)
	names := []int{3, 1, 4, 0, 2}
	l := FromNames(g, names, 5)
	for v, name := range names {
		if got := l.NodeByName(name); got != graph.NodeID(v) {
			t.Errorf("NodeByName(%d) = %d, want %d", name, got, v)
		}
	}
	if l.NodeByName(99) != graph.None {
		t.Error("unknown name should map to None")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := graph.Ring(4)
	l := FromNames(g, identityNames(4), 4)
	c := l.Clone()
	c.Names[0] = 99
	c.Labels[0][0] = 99
	if l.Names[0] == 99 || l.Labels[0][0] == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestMod(t *testing.T) {
	cases := []struct{ x, n, want int }{
		{5, 4, 1}, {-1, 4, 3}, {-5, 4, 3}, {0, 7, 0}, {8, 4, 0}, {-8, 4, 0},
	}
	for _, c := range cases {
		if got := Mod(c.x, c.n); got != c.want {
			t.Errorf("Mod(%d,%d) = %d, want %d", c.x, c.n, got, c.want)
		}
	}
}

func TestRouteOnRing(t *testing.T) {
	// On an oriented ring, greedy routing takes the short way round.
	n := 8
	g := graph.Ring(n)
	l := FromNames(g, identityNames(n), n)
	path, err := l.Route(g, 0, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("route 0→3 took %d hops, want 3: %v", len(path)-1, path)
	}
	path, err = l.Route(g, 0, 6, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Fatalf("route 0→6 took %d hops, want 2 (short way): %v", len(path)-1, path)
	}
}

func TestRouteOnClique(t *testing.T) {
	// On a clique every route is one hop.
	n := 6
	g := graph.Complete(n)
	l := FromNames(g, identityNames(n), n)
	for target := 1; target < n; target++ {
		path, err := l.Route(g, 0, target, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != 2 {
			t.Fatalf("clique route 0→%d took %d hops, want 1", target, len(path)-1)
		}
	}
}

func TestRouteToSelf(t *testing.T) {
	g := graph.Ring(5)
	l := FromNames(g, identityNames(5), 5)
	path, err := l.Route(g, 2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 || path[0] != 2 {
		t.Fatalf("self route = %v, want [2]", path)
	}
}

func TestRouteUnknownName(t *testing.T) {
	g := graph.Ring(5)
	l := FromNames(g, identityNames(5), 5)
	if _, err := l.Route(g, 0, 77, 10); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("got %v, want ErrUnknownName", err)
	}
}

// TestRouteAlwaysSucceedsOnRingsAndCliques (property).
func TestRouteAlwaysSucceedsOnRingsAndCliques(t *testing.T) {
	f := func(nRaw, fromRaw, toRaw uint8, clique bool) bool {
		n := 3 + int(nRaw%12)
		var g *graph.Graph
		if clique {
			g = graph.Complete(n)
		} else {
			g = graph.Ring(n)
		}
		l := FromNames(g, identityNames(n), n)
		from := graph.NodeID(int(fromRaw) % n)
		to := int(toRaw) % n
		path, err := l.Route(g, from, to, n)
		if err != nil {
			return false
		}
		return l.Names[path[len(path)-1]] == to
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNextHopGreedyDirectEdgeWins(t *testing.T) {
	// When a direct edge to the target exists, greedy must take it.
	g := graph.PaperChordalExample() // 5-ring plus chord 0-2
	l := FromNames(g, identityNames(5), 5)
	port := l.NextHopGreedy(0, 2)
	if q := g.Neighbor(0, port); q != 2 {
		t.Fatalf("greedy from 0 to 2 picked node %d, want the chord to 2", q)
	}
}
