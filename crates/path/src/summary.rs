//! Modular path analysis: series-parallel decomposition of the IPET ILP
//! with memoized segment summaries.
//!
//! The monolithic ILP of [`crate::analyze_reference`] grows
//! super-linearly in the supergraph, and the exact branch-and-bound
//! solver pays for it: on the generated scaling series it would dominate
//! total analysis time by two orders of magnitude at the largest sizes.
//! This module restores the modularity the paper attributes to
//! per-procedure analysis: it cuts the supergraph at *series points* —
//! nodes that every execution passes exactly once — solves each
//! segment's ILP independently, and composes the segment optima by
//! addition. Because identical procedure bodies expand to isomorphic
//! segments, each segment is reduced to a canonical byte string and
//! solved **once**; further call sites recall the solved segment from
//! the analysis-local [`LocalMemo`] instead of re-solving.
//!
//! # Cut points
//!
//! A node `c` is a valid cut when
//!
//! 1. `c` dominates every exit (so every source→sink path passes it),
//! 2. `c` lies on no cycle (so circulations never touch it), and
//! 3. `c` carries no [`Frame::Loop`] in its context (so every
//!    loop-instance constraint stays within one segment — any node
//!    between a loop's first-iteration and steady-state contexts carries
//!    that loop's frame).
//!
//! (1) and (2) force `count(c) = 1` in *every* feasible integer flow:
//! a unit of flow from the virtual source to the single fired sink
//! decomposes into one path — which passes every dominator of the exits
//! — plus circulations, which avoid acyclic nodes. Splitting at `c`
//! therefore loses nothing: the restriction of a global optimum is
//! feasible per segment, and gluing per-segment optima (each boundary
//! fires exactly once on both sides) is feasible globally, so the sum of
//! segment optima equals the global optimum exactly.
//!
//! The candidate cuts are the common dominators of all exits — the
//! dominator-tree chain of their nearest common dominator — filtered by
//! (2) and (3); this aligns segments with the call structure, so a
//! procedure called from ten sites yields ten isomorphic segments and
//! one solve.
//!
//! # Safety net
//!
//! Decomposition is *validated, not trusted*: after assigning every node
//! a segment, the module checks that edge ownership is consistent, that
//! every loop instance and infeasibility pin falls inside one segment,
//! and that each segment's traversal covers all its edges. Any violation
//! abandons decomposition for that program and [`crate::analyze`] solves
//! the monolithic ILP instead — the summarized path can only ever
//! reproduce the exact monolithic optimum or step aside.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use stamp_ai::{Frame, IEdge, IEdgeId, Icfg, NodeId};
use stamp_cfg::digraph::{DomTree, Sccs};
use stamp_ilp::{CmpOp, LpProblem};

use crate::{Formula, InstanceRule, PathError};

/// The solved optimum of one canonical segment ILP: the segment's
/// contribution to the WCET objective and the witness assignment in
/// canonical variable order (source, then edges in traversal order,
/// then sinks).
struct SegmentSummary {
    objective: i64,
    values: Vec<i64>,
}

/// The segment-summary memo of one path analysis: isomorphic segments
/// (repeated procedure bodies, further call sites) are solved once and
/// recalled by their canonical byte form. It also counts its own solves
/// and recalls, which the analyzer reports as the procedure-summary
/// statistics.
#[derive(Default)]
pub struct LocalMemo {
    cache: RefCell<HashMap<Vec<u8>, Arc<SegmentSummary>>>,
    computed: Cell<u64>,
    reused: Cell<u64>,
}

impl LocalMemo {
    /// Segments this memo solved.
    pub fn computed(&self) -> u64 {
        self.computed.get()
    }

    /// Segments this memo recalled instead of solving.
    pub fn reused(&self) -> u64 {
        self.reused.get()
    }

    /// Returns the summary of `seglp`, solving it on a miss. Solve
    /// errors are not cached.
    fn summarize(&self, seglp: &SegLp) -> Result<Arc<SegmentSummary>, PathError> {
        let canonical = seglp.canonical_bytes();
        if let Some(hit) = self.cache.borrow().get(&canonical) {
            self.reused.set(self.reused.get() + 1);
            return Ok(hit.clone());
        }
        let summary = Arc::new(seglp.solve()?);
        self.computed.set(self.computed.get() + 1);
        self.cache.borrow_mut().insert(canonical, summary.clone());
        Ok(summary)
    }
}

/// One canonical constraint: `(op, rhs, terms)` with terms as
/// `(variable, coefficient)` pairs sorted by variable.
type SegConstraint = (CmpOp, i64, Vec<(u32, i64)>);

/// One segment's ILP in canonical form: variable 0 is the segment
/// source, variables `1..=edges.len()` are the owned edges in traversal
/// order, and any remaining variables are sinks. `constraints` hold
/// canonical variable indices with terms sorted by variable.
struct SegLp {
    obj: Vec<i64>,
    constraints: Vec<SegConstraint>,
    /// Global edge behind each canonical edge variable.
    edges: Vec<IEdgeId>,
}

impl SegLp {
    /// Serializes the segment ILP into its canonical byte form — the
    /// memo key. Isomorphic segments (same shape, same objective
    /// coefficients, same bounds) produce identical bytes regardless of
    /// where in the supergraph they sit.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut e = stamp_codec::Enc::new();
        e.u8(1); // canonical-form version
        e.u32(self.edges.len() as u32);
        e.u32(self.obj.len() as u32);
        for &c in &self.obj {
            e.u64(c as u64);
        }
        e.u32(self.constraints.len() as u32);
        for (op, rhs, terms) in &self.constraints {
            e.u8(match op {
                CmpOp::Eq => 0,
                CmpOp::Le => 1,
                CmpOp::Ge => 2,
            });
            e.u64(*rhs as u64);
            e.u32(terms.len() as u32);
            for &(v, c) in terms {
                e.u32(v);
                e.u64(c as u64);
            }
        }
        e.into_bytes()
    }

    /// Builds and solves the concrete ILP for this segment.
    fn solve(&self) -> Result<SegmentSummary, PathError> {
        let mut lp = LpProblem::new();
        for (i, &c) in self.obj.iter().enumerate() {
            lp.add_var(format!("v{i}"), c);
        }
        for (op, rhs, terms) in &self.constraints {
            lp.add_constraint(
                terms.iter().map(|&(v, c)| (stamp_ilp::VarId(v as usize), c)),
                *op,
                *rhs,
            );
        }
        let sol = lp.maximize_integer()?;
        Ok(SegmentSummary { objective: sol.objective, values: sol.values })
    }
}

/// Does this node's calling context carry any loop frame? Such nodes
/// sit between a loop's peeled and steady-state contexts (or inside a
/// callee invoked from a loop body); cutting there would split that
/// loop's instance constraint across segments.
fn in_loop_context(icfg: &Icfg, node: u32) -> bool {
    let ctx = icfg.node(NodeId(node)).ctx;
    icfg.ctxs().get(ctx).frames().iter().any(|f| matches!(f, Frame::Loop { .. }))
}

/// Attempts the summarized solve: decompose at series cuts, solve each
/// segment through `memo`, compose. Returns `Ok(None)` when the program
/// offers no valid decomposition (the caller then solves the monolithic
/// ILP) and `Ok(Some((objective, edge_values)))` on success, with
/// `edge_values` indexed densely by supergraph edge.
pub(crate) fn solve_summarized(
    icfg: &Icfg,
    formula: &Formula,
    memo: &LocalMemo,
) -> Result<Option<(i64, Vec<i64>)>, PathError> {
    let n = icfg.nodes().len();
    let exits = icfg.exits();
    if exits.is_empty() || n == 0 {
        return Ok(None);
    }
    // A node unreachable from the entry makes decomposition step aside.
    let succs = |u: u32| icfg.succs(NodeId(u)).map(|e| e.to.0);
    let entry = icfg.entry().0;
    let dom = DomTree::new(n, entry, succs);
    if dom.rpo().len() != n {
        return Ok(None);
    }
    // A node lies on a cycle when its strongly connected component has
    // two or more members or it carries a self-loop.
    let mut cyclic: Vec<bool> =
        icfg.nodes().iter().map(|nd| icfg.succs(nd.id).any(|e| e.to == nd.id)).collect();
    for members in Sccs::new(n, succs).iter().filter(|m| m.len() > 1) {
        members.iter().for_each(|&u| cyclic[u as usize] = true);
    }
    let mut is_exit = vec![false; n];
    for &x in exits {
        is_exit[x.index()] = true;
    }

    // Candidate cuts: the dominator chain of the exits' nearest common
    // dominator, entry-side first, filtered to valid series points.
    let mut ncd = exits[0].0;
    for &x in &exits[1..] {
        ncd = dom.nearest_common_dominator(ncd, x.0).expect("every node is reachable");
    }
    let mut chain: Vec<u32> = Vec::new();
    let mut c = ncd;
    while let Some(d) = dom.idom(c) {
        chain.push(c);
        c = d;
    }
    chain.reverse();
    let cuts: Vec<u32> = chain
        .into_iter()
        .filter(|&c| !cyclic[c as usize] && !is_exit[c as usize] && !in_loop_context(icfg, c))
        .collect();
    if cuts.is_empty() {
        return Ok(None);
    }
    let k = cuts.len();

    // Segment index per node: one more than the number of cuts strictly
    // dominating it. Cut j itself lands in segment j (its in-edges close
    // segment j; its out-edges open segment j+1).
    let mut cut_no = vec![usize::MAX; n];
    for (j, &c) in cuts.iter().enumerate() {
        cut_no[c as usize] = j;
    }
    let mut seg = vec![0usize; n];
    for &u in &dom.rpo()[1..] {
        let d = dom.idom(u).expect("reachable") as usize;
        seg[u as usize] = seg[d] + usize::from(cut_no[d] != usize::MAX);
    }

    // An edge belongs to the segment of its target; a cut's out-edges
    // must open the next segment and every other edge must stay inside
    // its source's segment — otherwise the decomposition is invalid.
    let owner = |e: &IEdge| seg[e.to.index()];
    for e in icfg.edges() {
        let f = e.from.index();
        let expected = if cut_no[f] != usize::MAX { cut_no[f] + 1 } else { seg[f] };
        if owner(e) != expected {
            return Ok(None);
        }
    }
    if exits.iter().any(|x| seg[x.index()] != k) {
        return Ok(None);
    }
    // Every loop instance and every infeasibility pin must fall within
    // a single segment.
    for inst in &formula.instances {
        let mut edges = inst.entries.iter().chain(inst.backs.iter());
        let first = match edges.next() {
            Some(&e) => seg[icfg.edge(e).to.index()],
            None => continue,
        };
        if edges.any(|&e| seg[icfg.edge(e).to.index()] != first) {
            return Ok(None);
        }
    }
    let mut owned_edges = vec![0usize; k + 1];
    for e in icfg.edges() {
        owned_edges[owner(e)] += 1;
    }

    let mut total_objective: i64 = 0;
    let mut edge_values = vec![0i64; icfg.edges().len()];
    for i in 0..=k {
        let boundary = if i == 0 { entry } else { cuts[i - 1] };
        let sink_boundary = if i < k { Some(cuts[i]) } else { None };
        let Some(seglp) =
            build_segment(icfg, formula, i, boundary, sink_boundary, &seg, &cut_no, owned_edges[i])
        else {
            return Ok(None);
        };
        let summary = memo.summarize(&seglp)?;
        total_objective += summary.objective;
        for (j, &eid) in seglp.edges.iter().enumerate() {
            edge_values[eid.index()] = summary.values[1 + j];
        }
    }
    Ok(Some((total_objective, edge_values)))
}

/// Builds segment `i`'s canonical ILP: breadth-first traversal from the
/// boundary over owned edges fixes the canonical numbering, then the
/// constraints are emitted in a fixed order. Returns `None` when the
/// traversal fails to cover every owned edge.
#[allow(clippy::too_many_arguments)]
fn build_segment(
    icfg: &Icfg,
    formula: &Formula,
    i: usize,
    boundary: u32,
    sink_boundary: Option<u32>,
    seg: &[usize],
    cut_no: &[usize],
    owned_edges: usize,
) -> Option<SegLp> {
    let n = icfg.nodes().len();
    let mut canon_node = vec![u32::MAX; n];
    let mut visit_order: Vec<u32> = vec![boundary];
    canon_node[boundary as usize] = 0;
    let mut edges: Vec<IEdgeId> = Vec::new();
    let mut canon_edge: HashMap<IEdgeId, u32> = HashMap::new();
    let mut queue: VecDeque<u32> = VecDeque::from([boundary]);
    while let Some(u) = queue.pop_front() {
        // A cut's out-edges belong to the next segment.
        if cut_no[u as usize] != usize::MAX && u != boundary {
            continue;
        }
        for e in icfg.succs(NodeId(u)) {
            if seg[e.to.index()] != i {
                continue;
            }
            canon_edge.insert(e.id, edges.len() as u32);
            edges.push(e.id);
            let v = e.to.index();
            if canon_node[v] == u32::MAX {
                canon_node[v] = visit_order.len() as u32;
                visit_order.push(v as u32);
                queue.push_back(v as u32);
            }
        }
    }
    if edges.len() != owned_edges {
        return None;
    }

    // Variables: 0 = source, 1..=E = edges, then sinks (last segment).
    let source = 0u32;
    let evar = |eid: IEdgeId| 1 + canon_edge[&eid];
    let mut obj: Vec<i64> = Vec::with_capacity(1 + edges.len());
    obj.push(if i == 0 { formula.entry_time } else { 0 });
    for &eid in &edges {
        obj.push(formula.coeff[eid.index()]);
    }
    let mut sinks: Vec<(u32, u32)> = Vec::new(); // (node, var)
    if sink_boundary.is_none() {
        let mut xs: Vec<u32> = icfg.exits().iter().map(|x| x.index() as u32).collect();
        xs.sort_by_key(|&x| canon_node[x as usize]);
        for x in xs {
            if canon_node[x as usize] == u32::MAX {
                return None;
            }
            sinks.push((x, obj.len() as u32));
            obj.push(0);
        }
    }
    let sink_of: HashMap<u32, u32> = sinks.iter().copied().collect();

    let mut cons: Vec<SegConstraint> = Vec::new();
    let push = |cons: &mut Vec<SegConstraint>, mut terms: Vec<(u32, i64)>, op: CmpOp, rhs: i64| {
        terms.sort_by_key(|&(v, _)| v);
        cons.push((op, rhs, terms));
    };

    // The segment source fires exactly once.
    push(&mut cons, vec![(source, 1)], CmpOp::Eq, 1);
    // Conservation, boundary first, then interior nodes in canonical
    // order. The boundary receives the source; in segment 0 the entry
    // may also have (owned) in-edges. The sink boundary's conservation
    // belongs to the next segment; here its inflow is pinned to one.
    for &u in &visit_order {
        if Some(u) == sink_boundary {
            let terms: Vec<(u32, i64)> = icfg.preds(NodeId(u)).map(|e| (evar(e.id), 1)).collect();
            push(&mut cons, terms, CmpOp::Eq, 1);
            continue;
        }
        let mut terms: Vec<(u32, i64)> = Vec::new();
        if u == boundary {
            terms.push((source, 1));
            if i == 0 {
                for e in icfg.preds(NodeId(u)) {
                    terms.push((evar(e.id), 1));
                }
            }
        } else {
            for e in icfg.preds(NodeId(u)) {
                terms.push((evar(e.id), 1));
            }
        }
        for e in icfg.succs(NodeId(u)) {
            terms.push((evar(e.id), -1));
        }
        if let Some(&s) = sink_of.get(&u) {
            terms.push((s, -1));
        }
        push(&mut cons, terms, CmpOp::Eq, 0);
    }
    // Exactly one sink fires (last segment only).
    if sink_boundary.is_none() && !sinks.is_empty() {
        push(&mut cons, sinks.iter().map(|&(_, v)| (v, 1i64)).collect(), CmpOp::Eq, 1);
    }

    // Owned loop instances, ordered by their smallest canonical edge so
    // isomorphic segments emit identical constraint sequences.
    let mut owned: Vec<&crate::Instance> = formula
        .instances
        .iter()
        .filter(|inst| {
            inst.entries
                .iter()
                .chain(inst.backs.iter())
                .next()
                .is_some_and(|&e| seg[icfg.edge(e).to.index()] == i)
        })
        .collect();
    owned.sort_by_key(|inst| inst.entries.iter().chain(inst.backs.iter()).map(|&e| evar(e)).min());
    for inst in owned {
        match inst.rule {
            InstanceRule::Bound(bound) => {
                let mut terms: Vec<(u32, i64)> = inst.backs.iter().map(|&b| (evar(b), 1)).collect();
                let mul = bound.saturating_sub(1).min(i64::MAX as u64) as i64;
                for &en in &inst.entries {
                    terms.push((evar(en), -mul));
                }
                push(&mut cons, terms, CmpOp::Le, 0);
            }
            InstanceRule::PinUnreachable => {
                let mut pinned: Vec<u32> =
                    inst.entries.iter().chain(inst.backs.iter()).map(|&e| evar(e)).collect();
                pinned.sort_unstable();
                for v in pinned {
                    push(&mut cons, vec![(v, 1)], CmpOp::Le, 0);
                }
            }
        }
    }
    // Owned infeasibility pins, by canonical edge.
    let mut pins: Vec<u32> = formula
        .pins
        .iter()
        .filter(|&&e| seg[icfg.edge(e).to.index()] == i)
        .map(|&e| evar(e))
        .collect();
    pins.sort_unstable();
    for v in pins {
        push(&mut cons, vec![(v, 1)], CmpOp::Le, 0);
    }

    Some(SegLp { obj, constraints: cons, edges })
}
