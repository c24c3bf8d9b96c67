//! The generic (templated) dependence graph.
//!
//! Per the paper, NOELLE's *dependence graph* is "a templated class designed to
//! represent a generic graph of directed dependences between nodes. What
//! constitutes a node is decided when the class is instantiated." Here the
//! node type is a generic parameter `N`; the PDG instantiates it with
//! instruction ids, the call graph with function ids.
//!
//! Nodes are split into *internal* and *external* sets: internal nodes belong
//! to the code region the graph describes (a loop, a function), external ones
//! are the sources/sinks of dependences crossing the boundary — the live-ins
//! and live-outs of the region.

use noelle_ir::bytes::{ByteReader, ByteWriter, DecodeError};
use noelle_ir::inst::InstId;
use std::collections::BTreeSet;

/// Kind of a data dependence.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataDepKind {
    /// Read-after-write (true/flow dependence).
    Raw,
    /// Write-after-read (anti dependence).
    War,
    /// Write-after-write (output dependence).
    Waw,
}

/// Kind of a dependence edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepKind {
    /// Control dependence.
    Control,
    /// Data dependence of the given kind.
    Data(DataDepKind),
}

/// Attributes carried by each dependence edge, matching the paper's PDG edge
/// description: control/data, RAW/WAW/WAR, register/memory, loop-carried,
/// may ("apparent") vs must ("actual"), and dependence distance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EdgeAttrs {
    /// Control or data (+ data kind).
    pub kind: DepKind,
    /// True for dependences through memory, false for register (SSA) ones.
    pub memory: bool,
    /// True when the dependence is proven to occur ("actual"); false for
    /// may-dependences ("apparent").
    pub must: bool,
    /// True when the dependence crosses loop iterations (meaningful in loop
    /// dependence graphs).
    pub loop_carried: bool,
    /// Iteration distance, when known (`Some(0)` = intra-iteration). An
    /// `i16` keeps a [`DepEdge`] at 16 bytes; the only distance the builder
    /// proves is 0.
    pub distance: Option<i16>,
}

impl EdgeAttrs {
    /// A register data dependence (SSA def-use): always a must RAW.
    pub fn register() -> EdgeAttrs {
        EdgeAttrs {
            kind: DepKind::Data(DataDepKind::Raw),
            memory: false,
            must: true,
            loop_carried: false,
            distance: None,
        }
    }

    /// A may memory dependence of the given kind.
    pub fn memory(kind: DataDepKind) -> EdgeAttrs {
        EdgeAttrs {
            kind: DepKind::Data(kind),
            memory: true,
            must: false,
            loop_carried: false,
            distance: None,
        }
    }

    /// A control dependence.
    pub fn control() -> EdgeAttrs {
        EdgeAttrs {
            kind: DepKind::Control,
            memory: false,
            must: true,
            loop_carried: false,
            distance: None,
        }
    }

    /// Same attributes with the loop-carried flag set.
    pub fn carried(mut self) -> EdgeAttrs {
        self.loop_carried = true;
        self
    }

    /// True for data dependences.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, DepKind::Data(_))
    }

    /// True for control dependences.
    pub fn is_control(&self) -> bool {
        matches!(self.kind, DepKind::Control)
    }
}

/// Identifier of an edge within a [`DepGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// A directed dependence `src -> dst` (dst depends on src).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DepEdge<N> {
    /// The instruction/node depended upon.
    pub src: N,
    /// The dependent node.
    pub dst: N,
    /// Edge attributes.
    pub attrs: EdgeAttrs,
}

/// The generic dependence graph.
///
/// A graph is built once and never changes. It has exactly one layout: a
/// node table sorted for binary search, each node flagged internal or
/// external; the edge list, in the order the builder produced it; and a
/// compressed-sparse-row index over that list — per-node ranges of edge ids
/// packed into one offsets array and one ids array, the out direction's
/// half first. Within a node's range the ids ascend, so every adjacency
/// query yields edges in edge-list order.
///
/// Edge order is part of the contract: [`EdgeId`]s, the wire JSON and the
/// durable store's bytes all key on an edge's position in the list.
#[derive(Clone, Debug)]
pub struct DepGraph<N> {
    /// Every node, ascending, with `true` for internal ones.
    nodes: Vec<(N, bool)>,
    edges: Vec<DepEdge<N>>,
    /// Per direction, one range start per node slot and one more: the out
    /// direction's `nodes.len() + 1`, then the in direction's.
    off: Vec<u32>,
    /// Per direction, every edge id once, grouped by slot: the out
    /// direction's `edges.len()`, then the in direction's.
    ids: Vec<EdgeId>,
}

/// What a [`DepGraph`] asks of its node type: an order, which the node table
/// is sorted by, and — when nodes are ids into one arena, as instructions
/// are — the index there, which lets construction resolve every edge
/// endpoint through a dense table instead of a search.
pub trait Node: Copy + Ord {
    /// This node's index in its arena; `None` (for every value of the type)
    /// when nodes are not arena ids.
    fn arena_index(self) -> Option<usize> {
        None
    }
}

impl Node for InstId {
    fn arena_index(self) -> Option<usize> {
        Some(self.index())
    }
}

/// Plain numbers as nodes: no arena, endpoints are searched for.
impl Node for u32 {}

/// Position of `n` in a node table (ascending by node).
fn find<N: Copy + Ord>(nodes: &[(N, bool)], n: N) -> Option<usize> {
    nodes.binary_search_by_key(&n, |&(node, _)| node).ok()
}

/// Arena index -> slot in the node table, for every node of the table, in
/// a buffer the caller may keep across builds.
struct SlotTable<'t>(&'t mut Vec<u32>);

impl<'t> SlotTable<'t> {
    /// No slot: the arena index belongs to no node (yet).
    const NONE: u32 = u32::MAX;
    /// No slot yet: an external node met in the counting pass.
    const MET: u32 = u32::MAX - 1;

    /// The table of `nodes` (ascending, none twice), in `table`. `None`
    /// when `N` is not an arena id.
    fn new<N: Node>(nodes: &[(N, bool)], table: &'t mut Vec<u32>) -> Option<SlotTable<'t>> {
        let len = match nodes.last() {
            Some(&(last, _)) => last.arena_index()? + 1,
            None => 0,
        };
        table.clear();
        table.resize(len, SlotTable::NONE);
        let mut table = SlotTable(table);
        table.number(nodes)?;
        Some(table)
    }

    /// Give each node of `nodes` its slot.
    fn number<N: Node>(&mut self, nodes: &[(N, bool)]) -> Option<()> {
        for (slot, &(n, _)) in nodes.iter().enumerate() {
            self.0[n.arena_index()?] = slot as u32;
        }
        Some(())
    }

    /// The slot of `n`; `None` when `n` has none.
    fn get<N: Node>(&self, n: N) -> Option<u32> {
        let slot = *self.0.get(n.arena_index()?)?;
        (slot < SlotTable::MET).then_some(slot)
    }

    /// Each edge's `[source, destination]` slots, in edge-list order:
    /// `None` for an edge with an endpoint that has no slot.
    fn ends<'a, N: Node>(
        &'a self,
        edges: &'a [DepEdge<N>],
    ) -> impl ExactSizeIterator<Item = Option<[u32; 2]>> + Clone + 'a {
        edges
            .iter()
            .map(|e| Some([self.get(e.src)?, self.get(e.dst)?]))
    }

    /// Finish the node table `nodes` (ascending, none twice) of a graph
    /// whose edges meet nodes outside it: every endpoint of `edges` without
    /// a slot is appended as an external node — counted first, so the
    /// table grows once, to its exact size — and the table is sorted and
    /// numbered again. Two passes over the edges, no search.
    fn add_externals<N: Node>(
        &mut self,
        nodes: &mut Vec<(N, bool)>,
        edges: &[DepEdge<N>],
    ) -> Option<()> {
        let table = &mut *self.0;
        let mut externals = 0;
        for e in edges {
            for n in [e.src, e.dst] {
                let i = n.arena_index()?;
                if i >= table.len() {
                    table.resize(i + 1, SlotTable::NONE);
                }
                if table[i] == SlotTable::NONE {
                    table[i] = SlotTable::MET;
                    externals += 1;
                }
            }
        }
        nodes.reserve_exact(externals);
        for e in edges {
            for n in [e.src, e.dst] {
                let i = n.arena_index()?;
                if table[i] == SlotTable::MET {
                    table[i] = 0; // any slot: numbered below
                    nodes.push((n, false));
                }
            }
        }
        nodes.sort_unstable();
        self.number(nodes)
    }
}

/// Both directions of the compressed-sparse-row index over `n_nodes` node
/// slots, `ends` yielding each edge's `[source, destination]` slots in
/// edge-list order: `(off, ids)` as [`DepGraph`] keeps them. Per
/// direction, `off[s]..off[s + 1]` is the range of `ids` belonging to slot
/// `s`, ascending. `None`, before anything is placed, if `ends` yields a
/// `None`: an endpoint without a slot.
fn csr(
    n_nodes: usize,
    ends: impl ExactSizeIterator<Item = Option<[u32; 2]>> + Clone,
) -> Option<(Vec<u32>, Vec<EdgeId>)> {
    // Counting sort: count, prefix-sum into range starts, then replay the
    // edge list in order, using each start as that slot's write cursor.
    let (width, n_edges) = (n_nodes + 1, ends.len());
    let mut off = vec![0u32; 2 * width];
    let (out_off, in_off) = off.split_at_mut(width);
    for end in ends.clone() {
        let [src, dst] = end?;
        out_off[src as usize + 1] += 1;
        in_off[dst as usize + 1] += 1;
    }
    for half in [&mut *out_off, &mut *in_off] {
        for s in 0..n_nodes {
            half[s + 1] += half[s];
        }
    }
    let mut ids = vec![EdgeId(0); 2 * n_edges];
    let (out_ids, in_ids) = ids.split_at_mut(n_edges);
    // The counting pass met no `None`: flattening drops nothing.
    for (i, [src, dst]) in ends.flatten().enumerate() {
        let id = EdgeId(i as u32);
        let cursor = &mut out_off[src as usize];
        out_ids[*cursor as usize] = id;
        *cursor += 1;
        let cursor = &mut in_off[dst as usize];
        in_ids[*cursor as usize] = id;
        *cursor += 1;
    }
    // Every cursor now sits at its slot's range end, which is the next
    // slot's start: shift right by one to get the starts back.
    for half in [out_off, in_off] {
        half.rotate_right(1);
        half[0] = 0;
    }
    Some((off, ids))
}

impl<N: Node> DepGraph<N> {
    /// Build a graph from its internal node set and its complete edge list.
    /// Edge endpoints not in `internal` become external nodes.
    ///
    /// Every endpoint is resolved to its node slot once: through a dense
    /// table when `N` is an arena id, by one search otherwise.
    pub fn from_edges(
        internal: impl IntoIterator<Item = N>,
        edges: Vec<DepEdge<N>>,
    ) -> DepGraph<N> {
        DepGraph::from_edges_in(internal, edges, &mut Vec::new())
    }

    /// [`DepGraph::from_edges`], with the arena-index table in `slots`: a
    /// caller that keeps the buffer across builds allocates it only for an
    /// arena larger than any before.
    ///
    /// A closed graph of arena ids — every endpoint internal, as in a
    /// function's graph — takes two passes over the edges: one resolves
    /// the endpoints and counts degrees, one places the ids. The first
    /// endpoint outside `internal` stops the counting pass; the endpoints
    /// without a slot are then added as external nodes and the index is
    /// built over the finished table.
    pub(crate) fn from_edges_in(
        internal: impl IntoIterator<Item = N>,
        edges: Vec<DepEdge<N>>,
        slots: &mut Vec<u32>,
    ) -> DepGraph<N> {
        // Sized once when `internal` knows its length, as the layout's
        // instructions and a slice do.
        let internal = internal.into_iter();
        let mut nodes = Vec::with_capacity(internal.size_hint().0);
        nodes.extend(internal.map(|n| (n, true)));
        // A function's instructions come ascending: one look, no sort.
        if !nodes.is_sorted_by(|a, b| a.0 < b.0) {
            nodes.sort_unstable();
            nodes.dedup();
        }
        if let Some(mut table) = SlotTable::new(&nodes, slots) {
            if let Some(index) = csr(nodes.len(), table.ends(&edges)) {
                return DepGraph::assemble(nodes, edges, index);
            }
            if table.add_externals(&mut nodes, &edges).is_some() {
                if let Some(index) = csr(nodes.len(), table.ends(&edges)) {
                    return DepGraph::assemble(nodes, edges, index);
                }
            }
        }
        // No arena: the node table is the internal nodes and every endpoint,
        // sorted (an internal node after its own mentions as an endpoint)
        // and merged; then one search per endpoint.
        let endpoints = edges.iter().flat_map(|e| [(e.src, false), (e.dst, false)]);
        nodes.extend(endpoints);
        nodes.sort_unstable();
        nodes.dedup_by(|later, kept| {
            later.0 == kept.0 && {
                kept.1 |= later.1;
                true
            }
        });
        let slot = |n| find(&nodes, n).map(|slot| slot as u32);
        let ends: Vec<_> = edges
            .iter()
            .map(|e| Some([slot(e.src)?, slot(e.dst)?]))
            .collect();
        let index = csr(nodes.len(), ends.iter().copied())
            .expect("every endpoint was put in the node table");
        DepGraph::assemble(nodes, edges, index)
    }

    /// The graph of a finished node table, edge list and index over them.
    fn assemble(
        nodes: Vec<(N, bool)>,
        edges: Vec<DepEdge<N>>,
        (off, ids): (Vec<u32>, Vec<EdgeId>),
    ) -> DepGraph<N> {
        DepGraph {
            nodes,
            edges,
            off,
            ids,
        }
    }

    /// The ids of the edges whose source (`out`) or destination is `n`,
    /// ascending.
    fn range(&self, n: N, out: bool) -> &[EdgeId] {
        let Some(i) = find(&self.nodes, n) else {
            return &[];
        };
        let (width, n_edges) = (self.nodes.len() + 1, self.edges.len());
        let (off, ids) = if out {
            (&self.off[..width], &self.ids[..n_edges])
        } else {
            (&self.off[width..], &self.ids[n_edges..])
        };
        &ids[off[i] as usize..off[i + 1] as usize]
    }

    /// Edge ids whose source is `n`, ascending.
    fn out_ids(&self, n: N) -> &[EdgeId] {
        self.range(n, true)
    }

    /// Edge ids whose destination is `n`, ascending.
    fn in_ids(&self, n: N) -> &[EdgeId] {
        self.range(n, false)
    }

    /// Approximate heap footprint in bytes: the node table, the edge list
    /// and the two index arrays. Used for the `bytes_per_function` estimate.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<(N, bool)>()
            + self.edges.capacity() * size_of::<DepEdge<N>>()
            + self.off.capacity() * size_of::<u32>()
            + self.ids.capacity() * size_of::<EdgeId>()
    }

    /// Internal nodes (the code region itself), ascending.
    pub fn internal_nodes(&self) -> impl Iterator<Item = N> + '_ {
        self.nodes.iter().filter(|n| n.1).map(|n| n.0)
    }

    /// External nodes (live-ins/live-outs of the region), ascending.
    pub fn external_nodes(&self) -> impl Iterator<Item = N> + '_ {
        self.nodes.iter().filter(|n| !n.1).map(|n| n.0)
    }

    /// True if `n` is an internal node.
    pub fn is_internal(&self, n: N) -> bool {
        find(&self.nodes, n).is_some_and(|i| self.nodes[i].1)
    }

    /// Number of internal nodes.
    pub fn num_internal(&self) -> usize {
        self.internal_nodes().count()
    }

    /// All edges.
    pub fn edges(&self) -> &[DepEdge<N>] {
        &self.edges
    }

    /// Edges whose source is `n`.
    pub fn edges_from(&self, n: N) -> impl Iterator<Item = &DepEdge<N>> + '_ {
        self.out_ids(n)
            .iter()
            .map(move |e| &self.edges[e.0 as usize])
    }

    /// Edges whose destination is `n` (i.e. the dependences of `n`).
    pub fn edges_to(&self, n: N) -> impl Iterator<Item = &DepEdge<N>> + '_ {
        self.in_ids(n)
            .iter()
            .map(move |e| &self.edges[e.0 as usize])
    }

    /// The `k`-th edge [`DepGraph::edges_to`] lists for `n`, if it has that
    /// many: a walk that keeps a position per node instead of an iterator.
    pub fn edge_to(&self, n: N, k: usize) -> Option<&DepEdge<N>> {
        let id = self.in_ids(n).get(k)?;
        Some(&self.edges[id.0 as usize])
    }

    /// Edges from `src` to `dst` (there may be several, one per kind).
    fn edges_between(&self, src: N, dst: N) -> impl Iterator<Item = &DepEdge<N>> + '_ {
        self.edges_from(src).filter(move |e| e.dst == dst)
    }

    /// True if a memory dependence connects `a` and `b` in either direction.
    ///
    /// Membership is direction-agnostic on purpose: the builder orients
    /// same-block pairs by position, so a loop-carried RAW whose store sits
    /// later in the block than the load exists statically only as the
    /// WAR-oriented edge. A runtime-observed dependence is covered as long
    /// as the pair is connected at all.
    pub fn has_memory_dep_between(&self, a: N, b: N) -> bool {
        self.edges_between(a, b).any(|e| e.attrs.memory)
            || self.edges_between(b, a).any(|e| e.attrs.memory)
    }

    /// Nodes `n` depends on (edge sources into `n`), deduplicated.
    pub fn dependences_of(&self, n: N) -> BTreeSet<N> {
        self.edges_to(n).map(|e| e.src).collect()
    }

    /// Nodes depending on `n` (edge destinations out of `n`), deduplicated.
    pub fn dependents_of(&self, n: N) -> BTreeSet<N> {
        self.edges_from(n).map(|e| e.dst).collect()
    }

    /// The edges with an endpoint in `region`, in edge-list order, gathered
    /// through the index — O(|region| · degree) instead of a scan of every
    /// edge. Their ids are collected in `ids`, which is cleared first and
    /// keeps its storage.
    pub(crate) fn edges_touching<'s>(
        &'s self,
        region: impl IntoIterator<Item = N>,
        ids: &'s mut Vec<EdgeId>,
    ) -> impl ExactSizeIterator<Item = &'s DepEdge<N>> + 's {
        ids.clear();
        for n in region {
            ids.extend_from_slice(self.out_ids(n));
            ids.extend_from_slice(self.in_ids(n));
        }
        ids.sort_unstable();
        ids.dedup();
        ids.iter().map(|id| &self.edges[id.0 as usize])
    }

    /// Build the sub-graph over `keep`: kept nodes become internal; nodes
    /// outside `keep` that touch a crossing edge become external.
    pub fn subgraph(&self, keep: &BTreeSet<N>) -> DepGraph<N> {
        let mut ids = Vec::new();
        let edges = self
            .edges_touching(keep.iter().copied(), &mut ids)
            .copied()
            .collect();
        DepGraph::from_edges(keep.iter().copied(), edges)
    }

    /// External nodes that feed internal ones: the region's dependence
    /// live-ins. Walks only the external nodes' out-adjacency, not the full
    /// edge list.
    pub fn incoming_externals(&self) -> BTreeSet<N> {
        self.external_nodes()
            .filter(|&n| self.edges_from(n).any(|e| self.is_internal(e.dst)))
            .collect()
    }

    /// External nodes fed by internal ones: the region's dependence
    /// live-outs. Walks only the external nodes' in-adjacency, not the full
    /// edge list.
    pub fn outgoing_externals(&self) -> BTreeSet<N> {
        self.external_nodes()
            .filter(|&n| self.edges_to(n).any(|e| self.is_internal(e.src)))
            .collect()
    }

    /// Stable binary encoding of the graph, with nodes written through
    /// `node` (see `noelle_ir::bytes`): the internal nodes ascending, the
    /// external nodes ascending, then the edge list in order. Two graphs
    /// with equal node sets and equal edge lists encode to identical bytes —
    /// the property the durable store's round-trip oracle asserts.
    pub fn encode_with(&self, mut node: impl FnMut(N) -> u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let internal = self.num_internal();
        w.varint(internal as u64);
        for n in self.internal_nodes() {
            w.varint(node(n));
        }
        w.varint((self.nodes.len() - internal) as u64);
        for n in self.external_nodes() {
            w.varint(node(n));
        }
        w.varint(self.edges.len() as u64);
        for e in &self.edges {
            w.varint(node(e.src));
            w.varint(node(e.dst));
            let kind = match e.attrs.kind {
                DepKind::Control => 0u8,
                DepKind::Data(DataDepKind::Raw) => 1,
                DepKind::Data(DataDepKind::War) => 2,
                DepKind::Data(DataDepKind::Waw) => 3,
            };
            let flags = kind
                | (u8::from(e.attrs.memory) << 2)
                | (u8::from(e.attrs.must) << 3)
                | (u8::from(e.attrs.loop_carried) << 4)
                | (u8::from(e.attrs.distance.is_some()) << 5);
            w.u8(flags);
            if let Some(d) = e.attrs.distance {
                w.ivarint(i64::from(d));
            }
        }
        w.into_bytes()
    }

    /// Decode a graph encoded by [`DepGraph::encode_with`], mapping node
    /// codes back through `node`. The decoded graph answers every query
    /// identically to the original.
    ///
    /// Nothing is trusted before it is checked: every count is bounded by
    /// the bytes left to read (a node takes at least one, an edge at least
    /// three), so a forged count cannot reserve memory the input does not
    /// pay for; the node and edge lists are adopted as the graph's own only
    /// once the whole input has been validated.
    ///
    /// # Errors
    /// Truncated input, trailing bytes, a count larger than the input could
    /// hold, a node list that is not strictly ascending, a node listed as
    /// both internal and external, out-of-domain attribute flags, a
    /// distance outside `i16` and edge endpoints outside the node lists all
    /// surface as [`DecodeError`] — never a panic.
    pub fn decode_with(
        bytes: &[u8],
        mut node: impl FnMut(u64) -> Result<N, DecodeError>,
    ) -> Result<DepGraph<N>, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let mut nodes: Vec<(N, bool)> = Vec::new();
        for (internal, list) in [
            (true, "depgraph: internal nodes"),
            (false, "depgraph: external nodes"),
        ] {
            let n = r.count(r.remaining(), list)?;
            let first = nodes.len();
            nodes.reserve(n);
            for _ in 0..n {
                let x = node(r.varint(list)?)?;
                // Strictly ascending, as the encoder writes them.
                if nodes[first..].last().is_some_and(|&(prev, _)| prev >= x) {
                    return Err(DecodeError::new(list));
                }
                if find(&nodes[..first], x).is_some() {
                    return Err(DecodeError::new("depgraph: external overlaps"));
                }
                nodes.push((x, internal));
            }
        }
        // Two ascending, disjoint runs: sorting merges them.
        nodes.sort_unstable();
        // An edge takes at least three bytes, and its position must fit an
        // `EdgeId`.
        let most = (r.remaining() / 3).min(u32::MAX as usize);
        let n_edges = r.count(most, "depgraph: edge count")?;
        let mut edges = Vec::with_capacity(n_edges);
        // Each endpoint is searched for once, as it is read.
        let mut ends: Vec<[u32; 2]> = Vec::with_capacity(n_edges);
        let slot = |n| match find(&nodes, n) {
            Some(slot) => Ok(slot as u32),
            None => Err(DecodeError::new("depgraph: edge endpoint unknown")),
        };
        for _ in 0..n_edges {
            let src = node(r.varint("depgraph: edge src")?)?;
            let dst = node(r.varint("depgraph: edge dst")?)?;
            ends.push([slot(src)?, slot(dst)?]);
            let flags = r.u8("depgraph: edge flags")?;
            if flags & !0x3f != 0 {
                return Err(DecodeError::new("depgraph: edge flags"));
            }
            let kind = match flags & 0x3 {
                0 => DepKind::Control,
                1 => DepKind::Data(DataDepKind::Raw),
                2 => DepKind::Data(DataDepKind::War),
                _ => DepKind::Data(DataDepKind::Waw),
            };
            let distance = if flags & 0x20 != 0 {
                let d = r.ivarint("depgraph: edge distance")?;
                let d =
                    i16::try_from(d).map_err(|_| DecodeError::new("depgraph: edge distance"))?;
                Some(d)
            } else {
                None
            };
            edges.push(DepEdge {
                src,
                dst,
                attrs: EdgeAttrs {
                    kind,
                    memory: flags & 0x4 != 0,
                    must: flags & 0x8 != 0,
                    loop_carried: flags & 0x10 != 0,
                    distance,
                },
            });
        }
        r.finish("depgraph: trailing bytes")?;
        let index = csr(nodes.len(), ends.iter().map(|&end| Some(end)))
            .ok_or_else(|| DecodeError::new("depgraph: edge endpoint unknown"))?;
        Ok(DepGraph::assemble(nodes, edges, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph over `internal` with the given `(src, dst, attrs)` edges.
    fn graph(
        internal: impl IntoIterator<Item = u32>,
        edges: &[(u32, u32, EdgeAttrs)],
    ) -> DepGraph<u32> {
        let edges = edges
            .iter()
            .map(|&(src, dst, attrs)| DepEdge { src, dst, attrs })
            .collect();
        DepGraph::from_edges(internal, edges)
    }

    #[test]
    fn internal_external_split() {
        let g = graph(
            [2, 1, 2], // unsorted, repeated: the node table sorts and dedups
            &[
                (0, 1, EdgeAttrs::register()), // 0 is not internal: external
                (1, 2, EdgeAttrs::register()),
                (2, 9, EdgeAttrs::register()),
            ],
        );
        assert_eq!(g.num_internal(), 2);
        assert_eq!(g.internal_nodes().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(g.external_nodes().collect::<Vec<_>>(), vec![0, 9]);
        assert!(g.is_internal(1) && !g.is_internal(0) && !g.is_internal(7));
        assert_eq!(g.incoming_externals(), BTreeSet::from([0]));
        assert_eq!(g.outgoing_externals(), BTreeSet::from([9]));
    }

    #[test]
    fn adjacency_queries() {
        let g = graph(
            [],
            &[
                (1, 2, EdgeAttrs::register()),
                (1, 3, EdgeAttrs::control()),
                (2, 3, EdgeAttrs::memory(DataDepKind::Waw)),
            ],
        );
        assert_eq!(g.dependents_of(1), BTreeSet::from([2, 3]));
        assert_eq!(g.dependences_of(3), BTreeSet::from([1, 2]));
        assert_eq!(g.edges_from(1).count(), 2);
        assert_eq!(g.edges_to(3).filter(|e| e.attrs.is_control()).count(), 1);
        assert_eq!(g.edges_to(3).filter(|e| e.attrs.is_data()).count(), 1);
        // A node the graph does not have has no edges.
        assert_eq!(g.edges_from(7).count() + g.edges_to(7).count(), 0);
    }

    #[test]
    fn memory_dep_membership_is_direction_agnostic() {
        let g = graph(
            [],
            &[
                (1, 2, EdgeAttrs::register()),
                (2, 3, EdgeAttrs::memory(DataDepKind::War)),
            ],
        );
        assert_eq!(g.edges_between(1, 2).count(), 1);
        assert_eq!(g.edges_between(2, 1).count(), 0);
        // Register edges don't count as memory coverage.
        assert!(!g.has_memory_dep_between(1, 2));
        // Memory edges count regardless of orientation.
        assert!(g.has_memory_dep_between(2, 3));
        assert!(g.has_memory_dep_between(3, 2));
        assert!(!g.has_memory_dep_between(1, 3));
    }

    #[test]
    fn subgraph_carves_region() {
        let g = graph(
            0..5,
            &[
                (0, 1, EdgeAttrs::register()),
                (1, 2, EdgeAttrs::register()),
                (2, 3, EdgeAttrs::register()),
                (3, 4, EdgeAttrs::register()),
            ],
        );
        let keep = BTreeSet::from([1, 2]);
        let sub = g.subgraph(&keep);
        assert_eq!(sub.num_internal(), 2);
        // Crossing edges kept, with boundary nodes external.
        assert_eq!(sub.edges().len(), 3);
        assert_eq!(sub.incoming_externals(), BTreeSet::from([0]));
        assert_eq!(sub.outgoing_externals(), BTreeSet::from([3]));
        // Fully-outside edge dropped.
        assert!(sub
            .edges()
            .iter()
            .all(|e| keep.contains(&e.src) || keep.contains(&e.dst)));
    }

    #[test]
    fn subgraph_preserves_edge_order() {
        let g = graph(
            0..6,
            &[
                (5, 1, EdgeAttrs::control()),
                (0, 1, EdgeAttrs::register()),
                (2, 1, EdgeAttrs::memory(DataDepKind::Raw)),
                (3, 4, EdgeAttrs::register()), // untouched by keep
                (1, 5, EdgeAttrs::register()),
            ],
        );
        let keep = BTreeSet::from([1]);
        let sub = g.subgraph(&keep);
        // The indexed carve yields touching edges in edge-list order,
        // exactly as a full edge scan would.
        let expect: Vec<(u32, u32)> = g
            .edges()
            .iter()
            .filter(|e| keep.contains(&e.src) || keep.contains(&e.dst))
            .map(|e| (e.src, e.dst))
            .collect();
        let got: Vec<(u32, u32)> = sub.edges().iter().map(|e| (e.src, e.dst)).collect();
        assert_eq!(got, expect);
    }

    fn query_fingerprint(g: &DepGraph<u32>) -> String {
        let mut s = String::new();
        let nodes: Vec<u32> = g.internal_nodes().chain(g.external_nodes()).collect();
        for &n in &nodes {
            s.push_str(&format!(
                "{n}: out={:?} in={:?}\n",
                g.edges_from(n).map(|e| (e.src, e.dst)).collect::<Vec<_>>(),
                g.edges_to(n).map(|e| (e.src, e.dst)).collect::<Vec<_>>(),
            ));
        }
        s.push_str(&format!(
            "ext_in={:?} ext_out={:?}\n",
            g.incoming_externals(),
            g.outgoing_externals()
        ));
        s
    }

    fn sample() -> DepGraph<u32> {
        let mut carried = EdgeAttrs::memory(DataDepKind::War).carried();
        carried.distance = Some(-3);
        graph(
            0..4,
            &[
                (9, 0, EdgeAttrs::control()),
                (0, 1, EdgeAttrs::register()),
                (0, 2, EdgeAttrs::memory(DataDepKind::Raw)),
                (2, 1, EdgeAttrs::register()),
                (1, 3, EdgeAttrs::register()),
                (3, 8, EdgeAttrs::memory(DataDepKind::Waw)),
                (1, 2, carried),
            ],
        )
    }

    #[test]
    fn index_lists_each_nodes_edges_in_edge_list_order() {
        let g = sample();
        assert_eq!(
            query_fingerprint(&g),
            "0: out=[(0, 1), (0, 2)] in=[(9, 0)]\n\
             1: out=[(1, 3), (1, 2)] in=[(0, 1), (2, 1)]\n\
             2: out=[(2, 1)] in=[(0, 2), (1, 2)]\n\
             3: out=[(3, 8)] in=[(1, 3)]\n\
             8: out=[] in=[(3, 8)]\n\
             9: out=[(9, 0)] in=[]\n\
             ext_in={9} ext_out={8}\n"
        );
        assert!(g.approx_heap_bytes() > std::mem::size_of_val(g.edges()));
    }

    #[test]
    fn arena_ids_resolve_through_the_table_to_the_same_index_a_search_builds() {
        // Externals below, between and above the internal nodes (the table
        // has to grow for 40), an internal node listed twice, a self edge.
        let internal = [7u32, 3, 5, 7];
        let edges = [(5, 3), (1, 5), (7, 40), (3, 3), (4, 7), (40, 1), (5, 7)];
        let searched = graph(internal, &edges.map(|(s, d)| (s, d, EdgeAttrs::register())));
        let dense = DepGraph::from_edges(
            internal.map(InstId),
            edges
                .map(|(s, d)| DepEdge {
                    src: InstId(s),
                    dst: InstId(d),
                    attrs: EdgeAttrs::register(),
                })
                .to_vec(),
        );
        let ids = |nodes: &[(InstId, bool)]| -> Vec<(u32, bool)> {
            nodes.iter().map(|&(n, internal)| (n.0, internal)).collect()
        };
        assert_eq!(ids(&dense.nodes), searched.nodes);
        assert_eq!(
            searched.nodes,
            [1, 3, 4, 5, 7, 40].map(|n| (n, internal.contains(&n)))
        );
        assert_eq!(dense.off, searched.off);
        assert_eq!(dense.ids, searched.ids);
        assert_eq!(
            dense.encode_with(|n| u64::from(n.0)),
            searched.encode_with(u64::from)
        );
    }

    #[test]
    fn attrs_builders() {
        let r = EdgeAttrs::register();
        assert!(r.must && !r.memory && r.is_data());
        let m = EdgeAttrs::memory(DataDepKind::War).carried();
        assert!(m.memory && m.loop_carried && !m.must);
        let c = EdgeAttrs::control();
        assert!(c.is_control() && !c.is_data());
    }

    fn decode_u32(bytes: &[u8]) -> Result<DepGraph<u32>, DecodeError> {
        DepGraph::decode_with(bytes, |v| {
            u32::try_from(v).map_err(|_| DecodeError::new("test: node"))
        })
    }

    /// Encode a graph by hand: node lists and `(src, dst, flags)` edges.
    fn raw(internal: &[u64], external: &[u64], edges: &[(u64, u64, u8)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for list in [internal, external] {
            w.varint(list.len() as u64);
            list.iter().for_each(|&n| w.varint(n));
        }
        w.varint(edges.len() as u64);
        for &(src, dst, flags) in edges {
            w.varint(src);
            w.varint(dst);
            w.u8(flags);
        }
        w.into_bytes()
    }

    #[test]
    fn codec_round_trips_and_is_stable() {
        let g = sample();
        let bytes = g.encode_with(u64::from);
        let d = decode_u32(&bytes).unwrap();
        assert_eq!(query_fingerprint(&d), query_fingerprint(&g));
        assert_eq!(d.edges(), g.edges());
        // Re-encoding the decoded graph is byte-identical.
        assert_eq!(d.encode_with(u64::from), bytes);
        // The format itself, pinned on a graph small enough to read.
        let g = graph([1], &[(1, 4, EdgeAttrs::register())]);
        assert_eq!(g.encode_with(u64::from), raw(&[1], &[4], &[(1, 4, 0b1001)]));
    }

    #[test]
    fn an_edge_is_sixteen_bytes() {
        assert_eq!(size_of::<DepEdge<InstId>>(), 16);
    }

    #[test]
    fn codec_refuses_a_distance_outside_i16() {
        // One carried edge with a distance: the flags byte, then the
        // distance as a zigzag varint.
        let forged = |d: i64| {
            let mut bytes = raw(&[0, 1], &[], &[(0, 1, 0b10_0001)]);
            let mut w = ByteWriter::new();
            w.ivarint(d);
            bytes.extend_from_slice(&w.into_bytes());
            bytes
        };
        let distance = |d| decode_u32(&forged(d)).map(|g| g.edges()[0].attrs.distance);
        for d in [0, -3, i64::from(i16::MIN), i64::from(i16::MAX)] {
            assert_eq!(distance(d), Ok(Some(d as i16)));
        }
        for d in [40_000, -40_000, i64::from(i16::MAX) + 1, i64::MIN] {
            let refused = Err(DecodeError::new("depgraph: edge distance"));
            assert_eq!(distance(d), refused, "{d}");
        }
    }

    #[test]
    fn codec_empty_graph() {
        let g = graph([], &[]);
        let bytes = g.encode_with(u64::from);
        assert_eq!(bytes, [0, 0, 0]);
        let d = decode_u32(&bytes).unwrap();
        assert_eq!(d.num_internal(), 0);
        assert_eq!(d.edges().len(), 0);
    }

    #[test]
    fn codec_rejects_malformed() {
        let bytes = sample().encode_with(u64::from);
        // Truncation at every cut is an error, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode_u32(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_u32(&long).is_err());
        assert!(decode_u32(&raw(&[0], &[], &[(0, 0, 1)])).is_ok());
        // An edge endpoint outside the node lists.
        assert!(decode_u32(&raw(&[0], &[], &[(0, 7, 1)])).is_err());
        // Reserved flag bits.
        assert!(decode_u32(&raw(&[0], &[], &[(0, 0, 0x40)])).is_err());
        // A node both internal and external.
        assert!(decode_u32(&raw(&[0], &[0], &[])).is_err());
        // Node lists the encoder could not have written: descending,
        // repeated.
        assert!(decode_u32(&raw(&[2, 1], &[], &[])).is_err());
        assert!(decode_u32(&raw(&[1], &[3, 3], &[])).is_err());
        // Counts the input is too short to honour, in each position.
        for bomb in [
            &[0xff, 0xff, 0xff, 0x7f][..],
            &[0, 0xff, 0xff, 0xff, 0x7f],
            &[0, 0, 0xff, 0xff, 0xff, 0x7f],
        ] {
            assert!(decode_u32(bomb).is_err());
        }
    }
}
