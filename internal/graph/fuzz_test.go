package graph

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzNamed drives the spec parser with arbitrary input: it must never
// panic, never allocate past the parser caps, and every graph it does
// return must satisfy the structural invariants (symmetric edges,
// consistent back ports, degree bookkeeping). The seed corpus under
// testdata/fuzz/FuzzNamed covers every topology family.
func FuzzNamed(f *testing.F) {
	for _, spec := range []string{
		"ring:8", "path:5", "star:6", "clique:5", "wheel:6", "grid:3x4",
		"torus:3x3", "cube:3", "tree:7:2", "caterpillar:3:2", "lollipop:4:3",
		"random:9:4:7", "rtree:9:7", "circulant:8:3", "gnp:12:0.4:3",
		"gnp-any:12:0.08:3", "gnp-any:16:0:1", "gnp-any:24:0.05:9",
		"barabasi:12:2:3", "paper-token", "paper-tree", "paper-chordal",
		"ring:-1", "grid:99999999x99999999", "gnp:10:nan:1",
		"gnp-any:10:nan:1", "bogus:1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 64 {
			return // CLI specs are short; bound parse work, not safety
		}
		g, err := Named(spec)
		if err != nil {
			if g != nil {
				t.Fatal("error with non-nil graph")
			}
			return
		}
		if g.N() > maxSpecNodes || g.M() > maxSpecEdges {
			t.Fatalf("spec %q escaped the size caps: %s", spec, g)
		}
		checkGraphInvariants(t, g, spec)
	})
}

// checkGraphInvariants validates the structural contract of a Graph:
// every live port's neighbour is a live node holding a back port that
// leads straight back (adj[adj[v][i]][back[v][i]] == v, and the far
// back port names i), holes carry no back port, PortOf and HasEdge
// agree with the adjacency lists, and the degree, edge and component
// bookkeeping matches a recount. what names the graph in failures.
func checkGraphInvariants(t *testing.T, g *Graph, what string) {
	t.Helper()
	m := 0
	for v := 0; v < g.N(); v++ {
		id := NodeID(v)
		live := 0
		for p, q := range g.Neighbors(id) {
			bp := g.BackPort(id, p)
			if q == None {
				if bp != -1 {
					t.Fatalf("%s: hole at %d port %d has back port %d", what, v, p, bp)
				}
				continue
			}
			live++
			if q < 0 || int(q) >= g.N() {
				t.Fatalf("%s: neighbour %d of %d out of range", what, q, v)
			}
			if !g.Alive(q) {
				t.Fatalf("%s: dead node %d in adjacency of %d", what, q, v)
			}
			if bp < 0 || bp >= g.Ports(q) || g.Neighbor(q, bp) != id || g.BackPort(q, bp) != p {
				t.Fatalf("%s: back port desync at %d port %d -> %d port %d", what, v, p, q, bp)
			}
			if got, ok := g.PortOf(id, q); !ok || got != p {
				t.Fatalf("%s: PortOf(%d,%d) = %d,%v, want %d", what, v, q, got, ok, p)
			}
			if !g.HasEdge(q, id) {
				t.Fatalf("%s: asymmetric edge {%d,%d}", what, v, q)
			}
		}
		if live != g.Degree(id) {
			t.Fatalf("%s: degree(%d)=%d but %d live ports", what, v, g.Degree(id), live)
		}
		m += live
	}
	if m/2 != g.M() {
		t.Fatalf("%s: M()=%d but counted %d", what, g.M(), m/2)
	}
	checkComponents(t, g)
}

// seedCorpusSpecs reads the string seeds from the committed corpus
// under testdata/fuzz/FuzzNamed.
func seedCorpusSpecs(t *testing.T) []string {
	t.Helper()
	files, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzNamed"))
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	var specs []string
	for _, fe := range files {
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzNamed", fe.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if rest, ok := strings.CutPrefix(line, `string("`); ok {
				if spec, ok := strings.CutSuffix(rest, `")`); ok {
					specs = append(specs, spec)
				}
			}
		}
	}
	return specs
}

// TestNamedSeedCorpusCoversFamilies keeps the committed corpus honest:
// every family keyword must appear in at least one seed file (so the
// 2-second CI fuzz smoke exercises every parse arm from its first
// iteration), and every seed must either parse cleanly or be rejected
// without panicking.
func TestNamedSeedCorpusCoversFamilies(t *testing.T) {
	entries := seedCorpusSpecs(t)
	joined := strings.Join(entries, "\n")
	for _, family := range []string{
		"ring:", "path:", "star:", "clique:", "wheel:", "grid:", "torus:",
		"cube:", "tree:", "caterpillar:", "lollipop:", "random:", "rtree:",
		"circulant:", "gnp:", "gnp-any:", "barabasi:", "paper-token",
		"paper-tree", "paper-chordal",
	} {
		if !strings.Contains(joined, family) {
			t.Errorf("seed corpus misses family %q", family)
		}
	}
	for _, spec := range entries {
		if g, err := Named(spec); err == nil {
			checkGraphInvariants(t, g, spec)
		}
	}
}
