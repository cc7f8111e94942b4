//! The read API shared by every graph storage backend.
//!
//! [`GraphView`] abstracts exactly the surface the execution operators touch:
//! label-restricted CSR adjacency slices, label columns, O(1) property access
//! and schema lookup. Two storage layouts implement it:
//!
//! * [`crate::PropertyGraph`] — the monolithic single-machine CSR layout;
//! * [`crate::PartitionedGraph`] — vertex-partitioned storage where each
//!   partition owns an independent CSR shard ([`crate::GraphShard`]) plus the
//!   property columns of its local vertices.
//!
//! Operators written against `GraphView` run unchanged on either layout, which
//! is what lets the scalar engine act as the behavioural oracle for the
//! partitioned morsel executor: same operator code, different storage.
//!
//! The adjacency contract is inherited from the compressed CSR layout (see
//! [`crate::graph`]): `{out,in}_edges_with_label(v, l)` returns an
//! [`AdjSegment`] over a contiguous neighbour slice sorted by
//! `(neighbor, edge)` without allocating, regardless of which physical shard
//! the segment lives in.

use crate::column::ColumnRef;
use crate::graph::AdjSegment;
use crate::ids::{EdgeId, LabelId, PropKeyId, VertexId};
use crate::partition::PartitionMap;
use crate::schema::GraphSchema;
use crate::value::PropValue;
use crate::PropertyGraph;

/// Read access to a property graph, independent of the physical layout.
///
/// All methods must behave exactly like the corresponding
/// [`PropertyGraph`] inherent methods; the partitioned implementation routes
/// each call to the shard owning the vertex.
pub trait GraphView: Sync {
    /// The schema the graph conforms to.
    fn schema(&self) -> &GraphSchema;

    /// Total number of vertices.
    fn vertex_count(&self) -> usize;

    /// Total number of edges.
    fn edge_count(&self) -> usize;

    /// Label of a vertex.
    fn vertex_label(&self, v: VertexId) -> LabelId;

    /// Label of an edge.
    fn edge_label(&self, e: EdgeId) -> LabelId;

    /// (source, destination) endpoints of an edge.
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId);

    /// Ids of all vertices with the given label (insertion order).
    fn vertices_with_label(&self, label: LabelId) -> &[VertexId];

    /// Outgoing adjacency of `v` restricted to one edge label: a compressed
    /// segment over a contiguous neighbour slice sorted by
    /// `(neighbor, edge)`, zero allocation.
    fn out_edges_with_label(&self, v: VertexId, label: LabelId) -> AdjSegment<'_>;

    /// Incoming adjacency of `v` restricted to one edge label.
    fn in_edges_with_label(&self, v: VertexId, label: LabelId) -> AdjSegment<'_>;

    /// All edges with label `label` from `src` to `dst`, sorted by edge id.
    fn edges_between(&self, src: VertexId, label: LabelId, dst: VertexId) -> AdjSegment<'_>;

    /// The smallest-id edge with label `label` from `src` to `dst`, if any.
    fn first_edge_between(&self, src: VertexId, label: LabelId, dst: VertexId) -> Option<EdgeId> {
        self.edges_between(src, label, dst).first().map(|a| a.edge)
    }

    /// Whether at least one `label` edge connects `src` to `dst`.
    fn has_edge(&self, src: VertexId, label: LabelId, dst: VertexId) -> bool {
        !self.edges_between(src, label, dst).is_empty()
    }

    /// Look up an interned property key by name.
    fn prop_key(&self, name: &str) -> Option<PropKeyId>;

    /// The typed cell holding `v`'s `key` property: the owning storage's
    /// per-(label, key) [`crate::TypedColumn`] plus the vertex's row within
    /// it. `None` when no vertex of `v`'s label carries the key (in whatever
    /// shard owns `v`). This is the zero-clone accessor the batch kernels
    /// resolve column slices through.
    fn vertex_prop_cell(&self, v: VertexId, key: PropKeyId) -> Option<ColumnRef<'_>>;

    /// The typed cell holding `e`'s `key` property.
    fn edge_prop_cell(&self, e: EdgeId, key: PropKeyId) -> Option<ColumnRef<'_>>;

    /// Look up a vertex property by interned key (owned value; strings are
    /// `Arc`-shared, so this never copies string bytes).
    fn vertex_prop(&self, v: VertexId, key: PropKeyId) -> Option<PropValue> {
        self.vertex_prop_cell(v, key).and_then(|c| c.value())
    }

    /// Look up an edge property by interned key.
    fn edge_prop(&self, e: EdgeId, key: PropKeyId) -> Option<PropValue> {
        self.edge_prop_cell(e, key).and_then(|c| c.value())
    }

    /// Look up a vertex property by name.
    fn vertex_prop_by_name(&self, v: VertexId, name: &str) -> Option<PropValue> {
        self.prop_key(name).and_then(|k| self.vertex_prop(v, k))
    }

    /// Look up an edge property by name.
    fn edge_prop_by_name(&self, e: EdgeId, name: &str) -> Option<PropValue> {
        self.prop_key(name).and_then(|k| self.edge_prop(e, k))
    }

    /// Which partition owns each vertex, when the layout is partitioned —
    /// what the executor charges cross-partition communication against.
    /// `None` for single-machine storage.
    fn placement(&self) -> Option<&PartitionMap> {
        None
    }
}

impl GraphView for PropertyGraph {
    fn schema(&self) -> &GraphSchema {
        PropertyGraph::schema(self)
    }

    fn vertex_count(&self) -> usize {
        PropertyGraph::vertex_count(self)
    }

    fn edge_count(&self) -> usize {
        PropertyGraph::edge_count(self)
    }

    fn vertex_label(&self, v: VertexId) -> LabelId {
        PropertyGraph::vertex_label(self, v)
    }

    fn edge_label(&self, e: EdgeId) -> LabelId {
        PropertyGraph::edge_label(self, e)
    }

    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        PropertyGraph::edge_endpoints(self, e)
    }

    fn vertices_with_label(&self, label: LabelId) -> &[VertexId] {
        PropertyGraph::vertices_with_label(self, label)
    }

    fn out_edges_with_label(&self, v: VertexId, label: LabelId) -> AdjSegment<'_> {
        PropertyGraph::out_edges_with_label(self, v, label)
    }

    fn in_edges_with_label(&self, v: VertexId, label: LabelId) -> AdjSegment<'_> {
        PropertyGraph::in_edges_with_label(self, v, label)
    }

    fn edges_between(&self, src: VertexId, label: LabelId, dst: VertexId) -> AdjSegment<'_> {
        PropertyGraph::edges_between(self, src, label, dst)
    }

    fn first_edge_between(&self, src: VertexId, label: LabelId, dst: VertexId) -> Option<EdgeId> {
        PropertyGraph::first_edge_between(self, src, label, dst)
    }

    fn has_edge(&self, src: VertexId, label: LabelId, dst: VertexId) -> bool {
        PropertyGraph::has_edge(self, src, label, dst)
    }

    fn prop_key(&self, name: &str) -> Option<PropKeyId> {
        PropertyGraph::prop_key(self, name)
    }

    fn vertex_prop_cell(&self, v: VertexId, key: PropKeyId) -> Option<ColumnRef<'_>> {
        PropertyGraph::vertex_prop_cell(self, v, key)
    }

    fn edge_prop_cell(&self, e: EdgeId, key: PropKeyId) -> Option<ColumnRef<'_>> {
        PropertyGraph::edge_prop_cell(self, e, key)
    }

    fn vertex_prop(&self, v: VertexId, key: PropKeyId) -> Option<PropValue> {
        PropertyGraph::vertex_prop(self, v, key)
    }

    fn edge_prop(&self, e: EdgeId, key: PropKeyId) -> Option<PropValue> {
        PropertyGraph::edge_prop(self, e, key)
    }

    fn vertex_prop_by_name(&self, v: VertexId, name: &str) -> Option<PropValue> {
        PropertyGraph::vertex_prop_by_name(self, v, name)
    }

    fn edge_prop_by_name(&self, e: EdgeId, name: &str) -> Option<PropValue> {
        PropertyGraph::edge_prop_by_name(self, e, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::schema::fig6_schema;

    fn view_roundtrip<G: GraphView>(g: &G) {
        let person = g.schema().vertex_label("Person").unwrap();
        let knows = g.schema().edge_label("Knows").unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.vertices_with_label(person).len(), 2);
        let (s, d) = g.edge_endpoints(EdgeId(0));
        assert_eq!(g.vertex_label(s), person);
        assert_eq!(g.edge_label(EdgeId(0)), knows);
        assert_eq!(g.out_edges_with_label(s, knows).len(), 1);
        assert_eq!(g.in_edges_with_label(d, knows).len(), 1);
        assert!(g.has_edge(s, knows, d));
        assert_eq!(g.first_edge_between(s, knows, d), Some(EdgeId(0)));
        assert_eq!(g.edges_between(s, knows, d).len(), 1);
        assert_eq!(
            g.vertex_prop_by_name(s, "name"),
            Some(PropValue::str("alice"))
        );
        assert_eq!(
            g.edge_prop_by_name(EdgeId(0), "since"),
            Some(PropValue::Int(7))
        );
        let key = g.prop_key("name").unwrap();
        assert_eq!(g.vertex_prop(s, key), Some(PropValue::str("alice")));
        assert!(g.edge_prop(EdgeId(0), key).is_none());
        // typed cell accessors agree with the scalar reads
        let cell = g.vertex_prop_cell(s, key).unwrap();
        assert!(cell.is_valid());
        assert_eq!(cell.value(), Some(PropValue::str("alice")));
        let since = g.prop_key("since").unwrap();
        let ecell = g.edge_prop_cell(EdgeId(0), since).unwrap();
        assert_eq!(ecell.value(), Some(PropValue::Int(7)));
        assert!(g.edge_prop_cell(EdgeId(0), key).is_none());
    }

    #[test]
    fn property_graph_implements_the_view() {
        let mut b = GraphBuilder::new(fig6_schema());
        let a = b
            .add_vertex_by_name("Person", vec![("name", PropValue::str("alice"))])
            .unwrap();
        let c = b.add_vertex_by_name("Person", vec![]).unwrap();
        b.add_edge_by_name("Knows", a, c, vec![("since", PropValue::Int(7))])
            .unwrap();
        let g = b.finish();
        view_roundtrip(&g);
    }
}
