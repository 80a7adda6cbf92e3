package hypergraph

// This file exports, to the external hypergraph_test package only, helpers
// that no non-test code calls.

// PartitionFor is partitionFor for the external tests.
func (h *Hypergraph) PartitionFor(sig Signature) Partition { return h.partitionFor(sig) }

// PartitionForLabelled returns the table for (edge label, signature) in an
// edge-labelled hypergraph.
func (h *Hypergraph) PartitionForLabelled(el Label, sig Signature) Partition {
	id, ok := h.LookupSig(sig)
	if !ok {
		return Partition{}
	}
	return h.PartitionBySigLabelled(el, id)
}
