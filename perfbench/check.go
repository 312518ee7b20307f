package main

import (
	"fmt"

	"netorient/internal/core"
	"netorient/internal/graph"
	"netorient/internal/spantree"
)

// checkSTNO verifies a stabilized STNO stack: its labeling is a valid
// chordal sense of direction and the substrate holds true BFS
// distances from the root.
func checkSTNO(g *graph.Graph, s *core.STNO, t *spantree.BFSTree) error {
	if err := s.Labeling().Validate(g); err != nil {
		return fmt.Errorf("stno labeling: %w", err)
	}
	dist, _ := graph.BFSFrom(g, t.Root())
	for v := range dist {
		if got := t.Dist(graph.NodeID(v)); got != dist[v] {
			return fmt.Errorf("bfstree: node %d holds distance %d, BFS gives %d", v, got, dist[v])
		}
	}
	return nil
}

// checkDFTNO verifies a stabilized DFTNO stack: the names are the
// reference DFS preorder naming and the labeling validates.
func checkDFTNO(g *graph.Graph, d *core.DFTNO) error {
	if err := sameNames(d.Names(), d.ReferenceNames()); err != nil {
		return fmt.Errorf("dftno: %w", err)
	}
	if err := d.Labeling().Validate(g); err != nil {
		return fmt.Errorf("dftno labeling: %w", err)
	}
	return nil
}

// checkPermutation verifies that names is a permutation of 0..n−1.
func checkPermutation(names []int, n int) error {
	if len(names) != n {
		return fmt.Errorf("%d names for %d nodes", len(names), n)
	}
	seen := make([]bool, n)
	for v, x := range names {
		if x < 0 || x >= n || seen[x] {
			return fmt.Errorf("node %d: name %d repeated or outside 0..%d", v, x, n-1)
		}
		seen[x] = true
	}
	return nil
}

func sameNames(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d names, want %d", len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			return fmt.Errorf("node %d named %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}
