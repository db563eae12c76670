//! Natural-loop detection and the loop nesting forest.

use std::collections::{BTreeSet, HashMap};

use crate::build::CfgError;
use crate::digraph::Sccs;
use crate::dom::Dominators;
use crate::graph::{BlockId, Cfg, EdgeId, FuncId};

/// Index of a loop within a [`LoopForest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

impl LoopId {
    /// The loop index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// This loop's id.
    pub id: LoopId,
    /// The unique header block (dominates every block in `body`).
    pub header: BlockId,
    /// All blocks of the loop, including the header.
    pub body: BTreeSet<BlockId>,
    /// Back edges `latch → header`.
    pub back_edges: Vec<EdgeId>,
    /// Edges leaving the loop (source in `body`, target outside).
    pub exit_edges: Vec<EdgeId>,
    /// Edges entering the header from outside the loop.
    pub entry_edges: Vec<EdgeId>,
    /// The directly enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
}

/// The loop nesting forest of one function.
#[derive(Clone, Debug)]
pub struct LoopForest {
    loops: Vec<Loop>,
    /// Innermost loop containing each block of the function, indexed
    /// from the function's first block id `base`.
    innermost: Vec<Option<LoopId>>,
    base: u32,
    /// The dominator tree the loops were found with.
    dom: Dominators,
}

impl Cfg {
    /// Detects the natural loops of function `f` and arranges them into a
    /// nesting forest.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::Irreducible`] if a cycle without a dominating
    /// header exists (loop-bound analysis would be unsound on it).
    pub fn loop_forest(&self, f: FuncId) -> Result<LoopForest, CfgError> {
        let dom = self.dominators(f);
        let func = self.func(f);

        // Collect back edges: u→h with h dominating u. Any other cycle
        // edge makes the graph irreducible (checked below).
        let mut back_edges: HashMap<BlockId, Vec<EdgeId>> = HashMap::new();
        for &b in &func.blocks {
            for (eid, e) in self.succs(b) {
                if dom.dominates(e.to, e.from) {
                    back_edges.entry(e.to).or_default().push(eid);
                }
            }
        }
        let mut headers: Vec<(BlockId, Vec<EdgeId>)> = back_edges.into_iter().collect();
        headers.sort_by_key(|(h, _)| self.block(*h).start);

        // Natural loop of each header: backwards closure from the latches.
        let mut loops = Vec::new();
        for (i, (header, back_edges)) in headers.iter().enumerate() {
            let mut body: BTreeSet<BlockId> = BTreeSet::from([*header]);
            let mut work: Vec<BlockId> = back_edges.iter().map(|&e| self.edge(e).from).collect();
            while let Some(b) = work.pop() {
                if body.insert(b) {
                    for (_, e) in self.preds(b) {
                        work.push(e.from);
                    }
                }
            }
            let mut exit_edges = Vec::new();
            for &b in &body {
                for (eid, e) in self.succs(b) {
                    if !body.contains(&e.to) {
                        exit_edges.push(eid);
                    }
                }
            }
            let mut entry_edges = Vec::new();
            for (eid, e) in self.preds(*header) {
                if !body.contains(&e.from) {
                    entry_edges.push(eid);
                }
            }
            loops.push(Loop {
                id: LoopId(i as u32),
                header: *header,
                body,
                back_edges: back_edges.clone(),
                exit_edges,
                entry_edges,
                parent: None,
                depth: 1,
            });
        }

        // Irreducibility check: removing the back edges (those whose
        // target dominates their source) must leave the graph acyclic,
        // i.e. without a strongly connected component of two or more
        // blocks (self-loops are always back edges).
        let (base, n, _) = self.local_graph(f);
        let forward = Sccs::new(n, |u| {
            self.succs(BlockId(base + u))
                .filter(|(_, e)| !dom.dominates(e.to, e.from))
                .map(|(_, e)| e.to.0 - base)
        });
        if forward.iter().any(|members| members.len() > 1) {
            return Err(CfgError::Irreducible { func_entry: func.entry_addr });
        }

        // Nesting. Natural loops with distinct headers are disjoint or
        // nested, so a loop's parent is the smallest other loop holding
        // its header. Visiting loops largest first, the last loop to
        // claim a block is the smallest one containing it.
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(loops[i].body.len()));
        let mut innermost: Vec<Option<LoopId>> = vec![None; n];
        for i in order {
            let parent = innermost[(loops[i].header.0 - base) as usize];
            loops[i].parent = parent;
            loops[i].depth = parent.map_or(1, |p| loops[p.index()].depth + 1);
            for &b in &loops[i].body {
                innermost[(b.0 - base) as usize] = Some(loops[i].id);
            }
        }
        Ok(LoopForest { loops, innermost, base, dom })
    }
}

impl LoopForest {
    /// All loops (outer loops first within a nest is *not* guaranteed;
    /// use [`Loop::depth`]).
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// One loop.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.index()]
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost(&self, b: BlockId) -> Option<LoopId> {
        self.innermost.get(b.0.wrapping_sub(self.base) as usize).copied().flatten()
    }

    /// The function's dominator tree, from which the loops were built.
    pub fn dominators(&self) -> &Dominators {
        &self.dom
    }

    /// The loop headed exactly at `b`, if any.
    pub fn loop_with_header(&self, b: BlockId) -> Option<&Loop> {
        self.loops.iter().find(|l| l.header == b)
    }
}

#[cfg(test)]
mod tests {
    use crate::CfgBuilder;
    use stamp_isa::asm::assemble;

    #[test]
    fn single_loop_detected() {
        let src = ".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let lf = cfg.loop_forest(cfg.functions()[0].id).unwrap();
        assert_eq!(lf.loops().len(), 1);
        let l = &lf.loops()[0];
        assert_eq!(l.depth, 1);
        assert_eq!(l.back_edges.len(), 1);
        assert_eq!(l.entry_edges.len(), 1);
        assert_eq!(l.exit_edges.len(), 1);
        assert_eq!(l.body.len(), 1); // header == latch
    }

    #[test]
    fn nested_loops_have_depths() {
        let src = "\
            .text
            main:  li r1, 3
            outer: li r2, 4
            inner: addi r2, r2, -1
                   bnez r2, inner
                   addi r1, r1, -1
                   bnez r1, outer
                   halt
        ";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let lf = cfg.loop_forest(cfg.functions()[0].id).unwrap();
        assert_eq!(lf.loops().len(), 2);
        let inner_hdr = cfg.block_at(p.symbols.addr_of("inner").unwrap()).unwrap();
        let outer_hdr = cfg.block_at(p.symbols.addr_of("outer").unwrap()).unwrap();
        let inner = lf.loop_with_header(inner_hdr).unwrap();
        let outer = lf.loop_with_header(outer_hdr).unwrap();
        assert_eq!(inner.depth, 2);
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.body.is_superset(&inner.body));
        assert_eq!(lf.innermost(inner_hdr), Some(inner.id));
    }

    #[test]
    fn no_loops_in_dag() {
        let src = ".text\nmain: beq r1, r0, a\nb: halt\na: halt\n";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let lf = cfg.loop_forest(cfg.functions()[0].id).unwrap();
        assert!(lf.loops().is_empty());
    }

    #[test]
    fn irreducible_graph_rejected() {
        // Two blocks jumping into each other's middle without a dominating
        // header: entry branches to a or b; a → b; b → a.
        let src = "\
            .text
            main: beq r1, r0, a
            b:    beq r2, r0, a
                  halt
            a:    beq r3, r0, b
                  halt
        ";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let err = cfg.loop_forest(cfg.functions()[0].id).unwrap_err();
        assert!(matches!(err, crate::CfgError::Irreducible { .. }));
    }

    #[test]
    fn do_while_shape() {
        // Loop whose header is also the body start (classic do-while).
        let src = "\
            .text
            main: li r1, 8
            body: addi r1, r1, -1
                  mul r2, r1, r1
                  bnez r1, body
                  halt
        ";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let lf = cfg.loop_forest(cfg.functions()[0].id).unwrap();
        assert_eq!(lf.loops().len(), 1);
        assert_eq!(lf.loops()[0].body.len(), 1);
    }
}
