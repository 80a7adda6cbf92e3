package hgio

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// GraphPeek is what a binary-v3 file's header alone reveals about the
// graph inside: enough for a registry to describe a cold (not yet
// activated) graph without loading — or even mapping — it.
type GraphPeek struct {
	FileBytes   int64
	NumVertices int
	NumEdges    int
	Partitions  int
	TotalArity  int
	MaxArity    int
	NumLabels   int
}

// PeekFile reads a binary-v3 file's 96-byte header without loading the
// graph, validating nothing beyond the magic and basic count sanity —
// callers wanting guarantees must map or load the file. Every other
// format returns an error wrapping ErrNotV3.
func PeekFile(path string) (GraphPeek, error) {
	f, err := os.Open(path)
	if err != nil {
		return GraphPeek{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return GraphPeek{}, err
	}
	var hdr [v3HeaderSize]byte
	n, err := io.ReadFull(f, hdr[:])
	if n < len(binaryMagicV3) || string(hdr[:len(binaryMagicV3)]) != binaryMagicV3 {
		return GraphPeek{}, fmt.Errorf("%w: %s", ErrNotV3, path)
	}
	if err != nil {
		return GraphPeek{}, fmt.Errorf("hgio: v3 header truncated: %w", err)
	}
	le := binary.LittleEndian
	nv, ne := le.Uint64(hdr[16:]), le.Uint64(hdr[24:])
	np, ta := le.Uint64(hdr[32:]), le.Uint64(hdr[40:])
	if nv > sizeSanity || ne > sizeSanity || np > sizeSanity || ta > sizeSanity {
		return GraphPeek{}, fmt.Errorf("hgio: implausible v3 sizes in %s", path)
	}
	return GraphPeek{
		FileBytes:   st.Size(),
		NumVertices: int(nv),
		NumEdges:    int(ne),
		Partitions:  int(np),
		TotalArity:  int(ta),
		MaxArity:    int(le.Uint32(hdr[48:])),
		NumLabels:   int(le.Uint32(hdr[52:])),
	}, nil
}
