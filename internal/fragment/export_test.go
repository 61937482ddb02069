package fragment

// LabelsAgainstRebuild returns the store's current label index, whether
// it was derived from the previous one (rather than rebuilt), and how it
// differs from a from-scratch buildLabels of the same log ("" when equal,
// field for field). The store must have no concurrent writer.
func LabelsAgainstRebuild(st *Store) (idx *LabelIndex, derived bool, diff string) {
	idx = st.Labels()
	return idx, idx.derived, diffLabelIndex(idx, st.buildLabels(idx.gen))
}
