package cover

// DegreeSortedEdges exposes the degree-prioritised edge order to the
// differential test against its comparison-sort reference.
var DegreeSortedEdges = degreeSortedEdges
