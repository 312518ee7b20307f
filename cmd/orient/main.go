// Command orient runs a self-stabilizing network orientation protocol
// on a chosen graph until it stabilizes, then prints the node names
// and chordal edge labels (or Graphviz DOT).
//
// Usage:
//
//	orient -graph ring:8 -proto dftno
//	orient -graph torus:4x4 -proto stno -format dot
//	orient -graph random:20:10:1 -proto dftno -randomize -seed 3
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/sod"
	"netorient/internal/spantree"
	"netorient/internal/token"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "orient:", err)
		os.Exit(1)
	}
}

type orienter interface {
	program.Protocol
	program.Legitimacy
	program.Randomizer
	Labeling() *sod.Labeling
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("orient", flag.ContinueOnError)
	var (
		spec      = fs.String("graph", "ring:8", "graph spec (see internal/graph.Named)")
		proto     = fs.String("proto", "dftno", "protocol: dftno | stno")
		root      = fs.Int("root", 0, "root processor id")
		modulus   = fs.Int("modulus", 0, "N, the agreed size bound (0 = exactly n)")
		seed      = fs.Int64("seed", 1, "random seed")
		randomize = fs.Bool("randomize", false, "start from an arbitrary configuration")
		format    = fs.String("format", "table", "output: table | dot | names")
		maxSteps  = fs.Int64("max-steps", 0, "step budget (0 = auto)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := graph.Named(*spec)
	if err != nil {
		return err
	}
	r := graph.NodeID(*root)

	var o orienter
	switch *proto {
	case "dftno":
		sub, err := token.NewCirculator(g, r)
		if err != nil {
			return err
		}
		if o, err = core.NewDFTNO(g, sub, *modulus); err != nil {
			return err
		}
	case "stno":
		sub, err := spantree.NewBFSTree(g, r)
		if err != nil {
			return err
		}
		if o, err = core.NewSTNO(g, sub, *modulus); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown protocol %q (want dftno or stno)", *proto)
	}

	if *randomize {
		o.Randomize(rand.New(rand.NewSource(*seed)))
	}
	budget := *maxSteps
	if budget == 0 {
		budget = int64(20000 * (g.N() + g.M()))
	}
	sys := program.NewSystem(o, daemon.NewCentral(*seed))
	res, err := sys.RunUntilLegitimate(budget)
	if err != nil {
		return err
	}
	if !res.Converged {
		return fmt.Errorf("no stabilization within %d steps", budget)
	}

	l := o.Labeling()
	if err := l.Validate(g); err != nil {
		return fmt.Errorf("stabilized but labeling invalid: %w", err)
	}

	switch *format {
	case "names":
		for v, name := range l.Names {
			fmt.Fprintf(out, "%d %d\n", v, name)
		}
	case "dot":
		return graph.WriteDOT(out, g, graph.DOTOptions{
			Name:      strings.ReplaceAll(*spec, ":", "_"),
			NodeLabel: func(v graph.NodeID) string { return fmt.Sprintf("%d (η=%d)", v, l.Names[v]) },
			EdgeLabel: func(u, v graph.NodeID) string {
				pu, _ := g.PortOf(u, v)
				pv := g.BackPort(u, pu)
				return fmt.Sprintf("%d/%d", l.Labels[u][pu], l.Labels[v][pv])
			},
		})
	case "table":
		fmt.Fprintf(out, "# %s oriented %s with %s in %d moves (%d rounds); N=%d\n",
			*proto, g, sys.Protocol().Name(), res.Moves, res.Rounds, l.Modulus)
		for v := 0; v < g.N(); v++ {
			var cells []string
			for port, q := range g.Neighbors(graph.NodeID(v)) {
				cells = append(cells, fmt.Sprintf("→%d:%d", q, l.Labels[v][port]))
			}
			fmt.Fprintf(out, "node %-4d η=%-4d %s\n", v, l.Names[v], strings.Join(cells, " "))
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}
