// Command graphgen generates, inspects and serializes the synthetic graph
// datasets used by the reproduction (Table V stand-ins).
//
// Usage:
//
//	graphgen -list                      # dataset catalogue
//	graphgen -dataset tw -stats         # skew statistics (Table I row)
//	graphgen -dataset kr -o kr.gcsr     # generate and save
//	graphgen -graph kr.gcsr -stats      # inspect a saved graph
//	graphgen -graph web-Google.txt -stats -o google.gcsr  # ingest any format
package main

import (
	"flag"
	"fmt"
	"os"

	"grasp/internal/graph"
)

func main() {
	list := flag.Bool("list", false, "list datasets and exit")
	name := flag.String("dataset", "", "dataset name (lj, pl, tw, kr, sd, fr, uni)")
	scale := flag.Uint("scale", 1, "dataset scale divisor")
	weighted := flag.Bool("weighted", false, "generate edge weights")
	out := flag.String("o", "", "write the graph to this file")
	inGraph := flag.String("graph", "", "read a graph file of any supported format (.txt/.el/.wel/.mtx/.gcsr, auto-detected) instead of generating")
	outEL := flag.String("oel", "", "write the graph as a text edge list to this file")
	showStats := flag.Bool("stats", false, "print degree/skew statistics")
	flag.Parse()

	if *list {
		fmt.Printf("%-5s %-12s %10s %8s %6s\n", "name", "stand-in for", "vertices", "avg-deg", "skew")
		for _, d := range graph.Datasets() {
			skew := "high"
			if !d.HighSkew {
				skew = "low/no"
			}
			fmt.Printf("%-5s %-12s %10d %8.0f %6s\n", d.Name, d.FullName, d.Vertices, d.AvgDegree, skew)
		}
		return
	}

	var g *graph.CSR
	switch {
	case *inGraph != "":
		var err error
		if g, err = graph.ReadGraphFile(*inGraph); err != nil {
			fatal(err)
		}
	case *name != "":
		ds, err := graph.DatasetByName(*name)
		if err != nil {
			fatal(err)
		}
		g = ds.Generate(*weighted, uint32(*scale))
	default:
		fmt.Fprintln(os.Stderr, "graphgen: need -dataset or -graph (or -list)")
		os.Exit(2)
	}

	fmt.Println(g)
	if *showStats {
		in, out := graph.InSkew(g), graph.OutSkew(g)
		fmt.Printf("in-edges:  hot vertices %.0f%%, edge coverage %.0f%%, max degree %d\n",
			in.HotVertexPct, in.EdgeCoverPct, in.MaxDegree)
		fmt.Printf("out-edges: hot vertices %.0f%%, edge coverage %.0f%%, max degree %d\n",
			out.HotVertexPct, out.EdgeCoverPct, out.MaxDegree)
		fmt.Printf("degree gini (out): %.3f\n", graph.GiniCoefficient(g, false))
	}
	if *outEL != "" {
		f, err := os.Create(*outEL)
		if err != nil {
			fatal(err)
		}
		if err := graph.WriteEdgeList(f, g); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote edge list to %s\n", *outEL)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		n, err := g.WriteTo(f)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d bytes to %s\n", n, *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
