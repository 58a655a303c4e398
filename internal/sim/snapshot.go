package sim

import (
	"peersampling/internal/graph"
)

// Snapshot is the undirected communication graph over the live nodes of a
// network at one instant, together with the mapping between original node
// IDs and the compacted graph indices.
type Snapshot struct {
	// Graph is the undirected communication topology of live nodes;
	// descriptors pointing at dead nodes are excluded.
	Graph *graph.Graph
	// IDs maps compact graph index -> original node ID.
	IDs []NodeID
	// index maps original node ID -> compact graph index, -1 if dead.
	index []int32
	// deadLinks counts the descriptors in live views that name a dead
	// node, the links the graph excludes.
	deadLinks int
}

// TakeSnapshot captures the current communication topology of the live
// nodes, dropping dead links (Section 4.2's undirected conversion). Each
// view is read once, straight into the graph builder.
func (w *Network) TakeSnapshot() *Snapshot {
	s := &Snapshot{
		IDs:   make([]NodeID, 0, w.live),
		index: make([]int32, len(w.nodes)),
	}
	for i := range s.index {
		s.index[i] = -1
	}
	for id, ok := range w.alive {
		if ok {
			s.index[id] = int32(len(s.IDs))
			s.IDs = append(s.IDs, NodeID(id))
		}
	}
	s.Graph = graph.FromRows(len(s.IDs), func(i int, dst []int32) []int32 {
		v := w.nodes[s.IDs[i]].View()
		for j := 0; j < v.Len(); j++ {
			if t := s.index[v.At(j).Addr]; t >= 0 {
				dst = append(dst, t)
			} else {
				s.deadLinks++
			}
		}
		return dst
	})
	return s
}

// DegreeOf returns the undirected degree of the node with the given
// original ID, and whether the node is live (dead nodes have no degree).
func (s *Snapshot) DegreeOf(id NodeID) (int, bool) {
	if int(id) >= len(s.index) || s.index[id] < 0 {
		return 0, false
	}
	return s.Graph.Degree(s.index[id]), true
}
