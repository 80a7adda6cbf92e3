// Package hgio reads and writes labelled hypergraphs in a simple
// line-oriented text format, covering the "Load Graph" step of the HGMatch
// workflow (paper Fig. 3).
//
// Format (one record per line, '#' starts a comment):
//
//	v <label-name>            declare a vertex; IDs are assigned densely
//	                          in declaration order (0, 1, 2, ...)
//	e <v1> <v2> ... <vk>      a hyperedge over previously declared vertices
//	el <edge-label> <v1> ...  a hyperedge carrying a hyperedge label
//
// Vertex labels and edge labels are free-form tokens (no whitespace) and
// are interned into dictionaries. The same format serves data hypergraphs
// and query hypergraphs.
package hgio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hgmatch/internal/hypergraph"
)

// Read parses a hypergraph from r.
func Read(r io.Reader) (*hypergraph.Hypergraph, error) {
	sc := bufio.NewScanner(r)
	// The scanner starts from its small default buffer and grows to the line
	// cap on demand: every /match and /count parses its query through here.
	sc.Buffer(nil, 16*1024*1024)
	dict := hypergraph.NewDict()
	edgeDict := hypergraph.NewDict()
	b := hypergraph.NewBuilder().WithDicts(dict, edgeDict)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "v":
			if len(fields) != 2 {
				return nil, fmt.Errorf("hgio: line %d: 'v' takes exactly one label", lineNo)
			}
			b.AddVertex(dict.Intern(fields[1]))
		case "e":
			if len(fields) < 2 {
				return nil, fmt.Errorf("hgio: line %d: 'e' needs at least one vertex", lineNo)
			}
			vs, err := parseVertices(fields[1:], b.NumVertices(), lineNo)
			if err != nil {
				return nil, err
			}
			b.AddEdge(vs...)
		case "el":
			if len(fields) < 3 {
				return nil, fmt.Errorf("hgio: line %d: 'el' needs a label and at least one vertex", lineNo)
			}
			vs, err := parseVertices(fields[2:], b.NumVertices(), lineNo)
			if err != nil {
				return nil, err
			}
			b.AddLabelledEdge(edgeDict.Intern(fields[1]), vs...)
		default:
			return nil, fmt.Errorf("hgio: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hgio: %w", err)
	}
	return b.Build()
}

func parseVertices(tokens []string, numVertices, lineNo int) ([]uint32, error) {
	vs := make([]uint32, 0, len(tokens))
	for _, tok := range tokens {
		n, err := strconv.ParseUint(tok, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("hgio: line %d: bad vertex ID %q: %v", lineNo, tok, err)
		}
		if int(n) >= numVertices {
			return nil, fmt.Errorf("hgio: line %d: vertex %d not declared (have %d vertices)", lineNo, n, numVertices)
		}
		vs = append(vs, uint32(n))
	}
	return vs, nil
}

// Write serialises h to w in the format accepted by Read. Label names are
// resolved through the graph's dictionaries when present, else rendered as
// L<id>.
func Write(w io.Writer, h *hypergraph.Hypergraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# hgmatch hypergraph: %d vertices, %d edges\n", h.NumVertices(), h.NumLiveEdges())
	for v := 0; v < h.NumVertices(); v++ {
		fmt.Fprintf(bw, "v %s\n", labelName(h.Dict(), h.Label(uint32(v))))
	}
	for e := 0; e < h.NumEdges(); e++ {
		id := hypergraph.EdgeID(e)
		if h.IsDeadEdge(id) {
			continue // tombstoned online slot: a reload gets the live set
		}
		if el := h.EdgeLabel(id); el != hypergraph.NoEdgeLabel {
			fmt.Fprintf(bw, "el %s", labelName(h.EdgeDict(), el))
		} else {
			fmt.Fprint(bw, "e")
		}
		for _, v := range h.Edge(id) {
			fmt.Fprintf(bw, " %d", v)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

func labelName(d *hypergraph.Dict, l hypergraph.Label) string {
	if d != nil && int(l) < d.Len() {
		return d.Name(l)
	}
	return fmt.Sprintf("L%d", l)
}

// ReadFile reads a hypergraph from a file path.
func ReadFile(path string) (*hypergraph.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile writes a hypergraph to a file path.
func WriteFile(path string, h *hypergraph.Hypergraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, h); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
