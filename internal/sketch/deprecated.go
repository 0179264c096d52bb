package sketch

// Merge forwards to MergeColumns; the trailing int is ignored.
//
// Deprecated: pinned by bench/staged.go:573, which this tree may not edit
// outside a benchmark change.
func Merge(snaps []Snapshot, sketchParam, _ int) (Snapshot, error) {
	return MergeColumns(snaps, sketchParam)
}
