package hgio

// This file exports, to the external hgio_test package only, helpers that
// no non-test code calls.

// MapBytes attaches a hypergraph over an in-memory v3 image. The bytes are
// copied into an 8-byte-aligned buffer (unsafe reinterpretation needs the
// alignment; arbitrary caller slices don't guarantee it). Intended for
// tests and tooling; file serving goes through MapFile.
func MapBytes(data []byte, opts MapOptions) (*MappedGraph, error) {
	buf := alignedBuf(len(data))
	copy(buf, data)
	h, err := attachV3(buf, opts.Verify)
	if err != nil {
		return nil, err
	}
	m := &MappedGraph{h: h, data: buf, mapped: false, path: "(bytes)"}
	m.refs.Store(1)
	return m, nil
}
