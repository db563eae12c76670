//! Loop instances of the supergraph.
//!
//! VIVU gives one loop several supergraph copies of its header: one per
//! call string, per outer-loop iteration class and per peeled iteration
//! of the loop itself. A loop *instance* groups the header copies that
//! differ only in the loop's own iteration class — the unit the
//! loop-bound analysis bounds, the path ILP constrains and the path
//! sampler budgets. [`Icfg::loop_instances`] decides this grouping once
//! for all of them.

use std::collections::{BTreeMap, HashSet};

use stamp_cfg::BlockId;

use crate::context::Frame;
use crate::icfg::{IEdgeId, IEdgeKind, Icfg, NodeId};

/// Identifies one loop instance: the loop header together with the
/// context surrounding the loop (call string and outer-loop frames),
/// i.e. a header node's context with the header's own trailing loop
/// frame stripped.
pub type LoopKey = (BlockId, Vec<Frame>);

/// One loop instance and the supergraph edges into its header nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopInstance {
    /// The instance key.
    pub key: LoopKey,
    /// The header nodes of this instance, ascending.
    pub nodes: Vec<NodeId>,
    /// Edges into the header nodes that are not back edges of the loop
    /// (intra entry edges, and call or return edges into a header),
    /// ascending.
    pub entries: Vec<IEdgeId>,
    /// Back edges of the loop into the header nodes, ascending.
    pub backs: Vec<IEdgeId>,
}

/// Every loop instance of an [`Icfg`], sorted by key, with a per-edge
/// lookup. Build with [`Icfg::loop_instances`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopInstances {
    instances: Vec<LoopInstance>,
    /// Per edge index: the instance whose header node the edge enters,
    /// and whether it is one of that instance's back edges.
    of_edge: Vec<Option<(usize, bool)>>,
}

impl LoopInstances {
    /// All instances, sorted by key.
    pub fn all(&self) -> &[LoopInstance] {
        &self.instances
    }

    /// The instances of the loop headed at `header`, sorted by key.
    pub fn of_header(&self, header: BlockId) -> &[LoopInstance] {
        let lo = self.instances.partition_point(|i| i.key.0 < header);
        let hi = self.instances.partition_point(|i| i.key.0 <= header);
        &self.instances[lo..hi]
    }

    /// `(instance index into [`LoopInstances::all`], is_back)` when `e`
    /// enters a loop-header node.
    pub fn of_edge(&self, e: IEdgeId) -> Option<(usize, bool)> {
        self.of_edge[e.index()]
    }
}

impl Icfg {
    /// Groups the header nodes of every loop into instances, in one pass
    /// over the nodes and one over the edges. Not persisted: a decoded
    /// supergraph yields the same table.
    ///
    /// A block heads a loop when a back edge targets it or, under
    /// virtual unrolling, when its nodes carry their own loop frame.
    /// Without unrolling, a loop closed only through a call's
    /// fall-through edge leaves neither trace and is not listed.
    pub fn loop_instances(&self) -> LoopInstances {
        let mut headers: HashSet<BlockId> = HashSet::new();
        for e in self.edges() {
            if let IEdgeKind::Intra { back_edge_of: Some(h), .. } = e.kind {
                headers.insert(h);
            }
        }
        let mut groups: BTreeMap<(BlockId, &[Frame]), Vec<NodeId>> = BTreeMap::new();
        for nd in self.nodes() {
            // The strip rule: a header node's own trailing loop frame is
            // its iteration class, not part of the instance key.
            let frames = self.ctxs().get(nd.ctx).frames();
            let own =
                matches!(frames.last(), Some(Frame::Loop { header, .. }) if *header == nd.block);
            if !own && !headers.contains(&nd.block) {
                continue;
            }
            let outer = &frames[..frames.len() - usize::from(own)];
            groups.entry((nd.block, outer)).or_default().push(nd.id);
        }

        let mut node_instance: Vec<Option<usize>> = vec![None; self.nodes().len()];
        let mut instances: Vec<LoopInstance> = Vec::with_capacity(groups.len());
        for (i, ((header, outer), nodes)) in groups.into_iter().enumerate() {
            for n in &nodes {
                node_instance[n.index()] = Some(i);
            }
            instances.push(LoopInstance {
                key: (header, outer.to_vec()),
                nodes,
                entries: Vec::new(),
                backs: Vec::new(),
            });
        }
        let mut of_edge = vec![None; self.edges().len()];
        for e in self.edges() {
            let Some(i) = node_instance[e.to.index()] else { continue };
            let inst = &mut instances[i];
            let is_back =
                matches!(e.kind, IEdgeKind::Intra { back_edge_of: Some(h), .. } if h == inst.key.0);
            if is_back {
                inst.backs.push(e.id);
            } else {
                inst.entries.push(e.id);
            }
            of_edge[e.id.index()] = Some((i, is_back));
        }
        LoopInstances { instances, of_edge }
    }
}
