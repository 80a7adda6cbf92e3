// Command hggen generates the synthetic datasets and query workloads used
// by the experiment suite: the ten Table II dataset stand-ins, random-walk
// query workloads (Table III settings), and the JF17K-style knowledge base
// of the §VII-D case study.
//
// Usage:
//
//	hggen -dataset AR -scale 0.01 -seed 1 -out ar.hg
//	hggen -dataset CH -scale 0.1 -queries q3 -count 20 -outdir queries/
//	hggen -kb -out kb.hg
//	hggen -list
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"hgmatch/internal/datagen"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
	"hgmatch/internal/stats"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "dataset profile name (HC, MA, CH, CP, SB, HB, WT, TC, SA, AR)")
		scale    = flag.Float64("scale", 0.01, "scale factor applied to the paper-size profile")
		seed     = flag.Int64("seed", 1, "generation seed")
		out      = flag.String("out", "", "output file (default <dataset>.hg)")
		list     = flag.Bool("list", false, "list dataset profiles and exit")
		kb       = flag.Bool("kb", false, "generate the JF17K-style knowledge base instead")
		queries  = flag.String("queries", "", "also sample a query workload: q2 | q3 | q4 | q6")
		count    = flag.Int("count", 20, "number of queries to sample")
		outdir   = flag.String("outdir", ".", "directory for sampled query files")
		asBinary = flag.Bool("binary", false, "write the compact binary format instead of text")
		asV3     = flag.Bool("v3", false, "with -binary, write mappable binary v3 (HGB3, which hgserve serves off mmap(2)) instead of v2")
	)
	flag.Parse()
	writeBinary = *asBinary
	writeV3 = *asV3

	if *list {
		fmt.Println("dataset  paper|V|   paper|E|   |Σ|    amax   a")
		for _, p := range datagen.Profiles() {
			fmt.Printf("%-7s  %-9d  %-9d  %-5d  %-5d  %.1f\n",
				p.Name, p.PaperVertices, p.PaperEdges, p.NumLabels, p.MaxArity, p.AvgArity)
		}
		return
	}

	if *kb {
		k := datagen.GenerateKB(datagen.DefaultKBConfig(), *seed)
		path := *out
		if path == "" {
			path = "kb.hg"
		}
		write(path, k.Graph)
		write(pathWithSuffix(path, "_query1"), k.Query1())
		write(pathWithSuffix(path, "_query2"), k.Query2())
		return
	}

	if *dataset == "" {
		fmt.Fprintln(os.Stderr, "hggen: -dataset (or -kb / -list) is required")
		flag.Usage()
		os.Exit(2)
	}
	p, ok := datagen.ProfileByName(*dataset)
	if !ok {
		fmt.Fprintf(os.Stderr, "hggen: unknown dataset %q (try -list)\n", *dataset)
		os.Exit(2)
	}
	h := datagen.Generate(p.Scaled(*scale), *seed)
	st := hypergraph.ComputeStats(h)
	fmt.Printf("%s @ scale %g: |V|=%d |E|=%d |Σ|=%d amax=%d a=%.1f index=%s\n",
		p.Name, *scale, st.NumVertices, st.NumEdges, st.NumLabels, st.MaxArity, st.AvgArity,
		stats.FormatBytes(int64(st.IndexBytes)))

	path := *out
	if path == "" {
		path = p.Name + ".hg"
	}
	write(path, h)

	if *queries != "" {
		s, ok := querygen.SettingByName(*queries)
		if !ok {
			fmt.Fprintf(os.Stderr, "hggen: unknown query setting %q\n", *queries)
			os.Exit(2)
		}
		rng := rand.New(rand.NewSource(*seed + 7))
		qs := querygen.SampleMany(rng, h, s, *count)
		made := 0
		for i, q := range qs {
			if q == nil {
				continue
			}
			qp := filepath.Join(*outdir, fmt.Sprintf("%s_%s_%02d.hg", p.Name, s.Name, i))
			write(qp, q)
			made++
		}
		fmt.Printf("sampled %d/%d %s queries into %s\n", made, *count, s.Name, *outdir)
	}
}

var writeBinary, writeV3 bool

func write(path string, h *hypergraph.Hypergraph) {
	var err error
	switch {
	case writeBinary && writeV3:
		err = hgio.WriteBinaryV3File(path, h)
	case writeBinary:
		err = hgio.WriteBinaryFile(path, h)
	default:
		err = hgio.WriteFile(path, h)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hggen: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d vertices, %d hyperedges)\n", path, h.NumVertices(), h.NumEdges())
}

func pathWithSuffix(path, suffix string) string {
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + suffix + ext
}
