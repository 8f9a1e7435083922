//go:build !amd64

package intersect

import "light/internal/graph"

// useAVX2 is false off amd64: MergeBlock is plain Merge.
var useAVX2 = false

// mergeAVX2 consumes nothing off amd64, leaving the whole merge to Merge.
func mergeAVX2(dst, a, b []graph.VertexID) (i, j, n int) { return 0, 0, 0 }
