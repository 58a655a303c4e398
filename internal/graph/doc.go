// Package graph provides the graph-theoretic analysis substrate used to
// evaluate peer sampling overlays: degree statistics, clustering
// coefficients, path lengths, connected components, catastrophic-failure
// sweeps and the uniform-random-view baseline the paper compares against.
//
// All functions operate on the undirected communication graph derived from
// the directed "knows-about" relation, following Section 4.2 of the paper:
// if node a holds a descriptor of node b, the undirected edge {a,b} is
// present.
//
// A Graph keeps its sorted rows in one array. FromRows builds it from a
// row callback with two counting sorts, and every analysis keeps its
// scratch per call, never on the Graph. Path lengths come from a BFS that
// carries up to 64 sources at once, one bit per source; the number of
// pairs it reaches also shows whether the graph is connected.
//
// The expensive metrics scale with explicit estimator knobs rather than
// silently sampling: path lengths BFS from a configurable number of
// sources and clustering coefficients average over a configurable node
// sample (see internal/sim.MetricsConfig), so a quick run and a
// paper-scale run differ only in variance, not in definition. A knob <= 0
// or >= n asks for the exact value.
package graph
