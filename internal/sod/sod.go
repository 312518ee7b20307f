// Package sod implements the chordal sense of direction of §2.2: a
// cyclic ordering ψ of the nodes (induced by unique node names) with
// every link labeled by the cyclic distance it spans. It provides the
// labeling container the orientation protocols produce, the validation
// of the paper's specification (SP1, SP2, local orientation, edge
// symmetry), name translation across edges, and SoD-based routing.
package sod

import (
	"errors"
	"fmt"

	"netorient/internal/graph"
)

// Labeling is a (candidate) chordal labeling: node names η and, for
// every node, one label per incident port.
type Labeling struct {
	// Modulus is N, the agreed upper bound on the number of nodes
	// (§2.2: "each node is aware of the total number of nodes").
	Modulus int
	// Names holds η_v for every node.
	Names []int
	// Labels holds π_v[port] for every node and port.
	Labels [][]int
}

// Validation errors.
var (
	ErrShape = errors.New("sod: labeling shape does not match graph")
)

// SP1Error reports a violation of SP1 (unique names in 0..N-1).
type SP1Error struct {
	Node graph.NodeID
	Name int
	Dup  graph.NodeID // other node with the same name, or None
}

func (e *SP1Error) Error() string {
	if e.Dup != graph.None {
		return fmt.Sprintf("sod: SP1 violated: nodes %d and %d share name %d", e.Node, e.Dup, e.Name)
	}
	return fmt.Sprintf("sod: SP1 violated: node %d has out-of-range name %d", e.Node, e.Name)
}

// SP2Error reports a violation of SP2 (π_p[l] = (η_p − η_q) mod N).
type SP2Error struct {
	Node graph.NodeID
	Port int
	Got  int
	Want int
}

func (e *SP2Error) Error() string {
	return fmt.Sprintf("sod: SP2 violated at node %d port %d: label %d, want %d", e.Node, e.Port, e.Got, e.Want)
}

// Mod returns x mod n in 0..n-1 for any sign of x.
func Mod(x, n int) int {
	m := x % n
	if m < 0 {
		m += n
	}
	return m
}

// ChordalLabel returns the SP2 label of the edge p→q: (η_p − η_q) mod N.
func ChordalLabel(etaP, etaQ, modulus int) int {
	return Mod(etaP-etaQ, modulus)
}

// FromNames builds the chordal labeling induced by the given names —
// the computation each node performs locally once SP1 holds (§2.3).
func FromNames(g *graph.Graph, names []int, modulus int) *Labeling {
	l := &Labeling{
		Modulus: modulus,
		Names:   make([]int, g.N()),
		Labels:  make([][]int, g.N()),
	}
	copy(l.Names, names)
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(graph.NodeID(v))
		l.Labels[v] = make([]int, len(nbrs))
		for port, q := range nbrs {
			if q != graph.None { // holes keep label 0
				l.Labels[v][port] = ChordalLabel(names[v], names[q], modulus)
			}
		}
	}
	return l
}

// Validate checks the full specification SP_NO of §2.3 plus the
// derived properties of §1.3: SP1 (globally unique in-range names),
// SP2 (chordal edge labels), local orientation (labels injective at
// every node) and edge symmetry (π_p = N − π_q across every edge).
func (l *Labeling) Validate(g *graph.Graph) error {
	if len(l.Names) != g.N() || len(l.Labels) != g.N() || l.Modulus < g.N() {
		return ErrShape
	}
	seen := make(map[int]graph.NodeID, g.N())
	for v := 0; v < g.N(); v++ {
		name := l.Names[v]
		if name < 0 || name >= l.Modulus {
			return &SP1Error{Node: graph.NodeID(v), Name: name, Dup: graph.None}
		}
		if other, dup := seen[name]; dup {
			return &SP1Error{Node: graph.NodeID(v), Name: name, Dup: other}
		}
		seen[name] = graph.NodeID(v)
	}
	// First pass: SP2 and local orientation at every node.
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(graph.NodeID(v))
		if len(l.Labels[v]) != len(nbrs) {
			return ErrShape
		}
		local := make(map[int]bool, len(nbrs))
		for port, q := range nbrs {
			if q == graph.None {
				continue // holes carry no edge to label
			}
			want := ChordalLabel(l.Names[v], l.Names[q], l.Modulus)
			got := l.Labels[v][port]
			if got != want {
				return &SP2Error{Node: graph.NodeID(v), Port: port, Got: got, Want: want}
			}
			if local[got] {
				return fmt.Errorf("sod: local orientation violated at node %d: duplicate label %d", v, got)
			}
			local[got] = true
		}
	}
	// Second pass: edge symmetry — the label at the far end must be
	// the inverse modulo N.
	for v := 0; v < g.N(); v++ {
		for port, q := range g.Neighbors(graph.NodeID(v)) {
			if q == graph.None {
				continue
			}
			got, back := l.Labels[v][port], l.Labels[q][g.BackPort(graph.NodeID(v), port)]
			if Mod(got+back, l.Modulus) != 0 {
				return fmt.Errorf("sod: edge symmetry violated on {%d,%d}: %d + %d ≢ 0 (mod %d)",
					v, q, got, back, l.Modulus)
			}
		}
	}
	return nil
}

// CyclicDistance returns the distance between names a and b on the
// N-cycle: min((a−b) mod N, (b−a) mod N).
func CyclicDistance(a, b, modulus int) int {
	d := Mod(a-b, modulus)
	if inv := modulus - d; inv < d {
		return inv
	}
	return d
}

// TranslateName returns the name of the neighbour reached through the
// given port, derived purely from local information — the translation
// property of a sense of direction (Chapter 5): η_q = (η_p − π_p[l])
// mod N.
func (l *Labeling) TranslateName(v graph.NodeID, port int) int {
	return Mod(l.Names[v]-l.Labels[v][port], l.Modulus)
}

// NodeByName returns the node carrying the given name, or None.
func (l *Labeling) NodeByName(name int) graph.NodeID {
	for v, n := range l.Names {
		if n == name {
			return graph.NodeID(v)
		}
	}
	return graph.None
}

// Clone returns a deep copy.
func (l *Labeling) Clone() *Labeling {
	c := &Labeling{
		Modulus: l.Modulus,
		Names:   make([]int, len(l.Names)),
		Labels:  make([][]int, len(l.Labels)),
	}
	copy(c.Names, l.Names)
	for i, row := range l.Labels {
		c.Labels[i] = make([]int, len(row))
		copy(c.Labels[i], row)
	}
	return c
}
