//! Dominator trees of single functions.

use crate::digraph::DomTree;
use crate::graph::{BlockId, Cfg, FuncId};

/// The dominator tree of one function.
///
/// Built with [`Cfg::dominators`]. Block `a` dominates `b` when every path
/// from the function entry to `b` passes through `a`.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// The function's first block id: its blocks are `base..base + n`,
    /// numbered `0..n` in `tree`.
    base: u32,
    tree: DomTree,
}

impl Cfg {
    /// Computes the dominator tree of function `f`, touching only that
    /// function's blocks.
    pub fn dominators(&self, f: FuncId) -> Dominators {
        let (base, n, entry) = self.local_graph(f);
        Dominators { base, tree: DomTree::new(n, entry, |u| self.local_succs(base, u)) }
    }
}

impl Dominators {
    /// The function-local number of `b`, if `b` belongs to the function.
    fn local(&self, b: BlockId) -> Option<u32> {
        let u = b.0.wrapping_sub(self.base);
        ((u as usize) < self.tree.node_count()).then_some(u)
    }

    /// The immediate dominator of `b` (`None` for the entry or blocks of
    /// other functions).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.local(b).and_then(|u| self.tree.idom(u)).map(|d| BlockId(self.base + d))
    }

    /// Returns `true` if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        match (self.local(a), self.local(b)) {
            (Some(a), Some(b)) => self.tree.dominates(a, b),
            _ => a == b,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::CfgBuilder;
    use stamp_isa::asm::assemble;

    #[test]
    fn diamond_dominators() {
        // entry → {a, b} → join
        let src = "\
            .text
            main: beq r1, r0, a
            b:    addi r2, r0, 1
                  j join
            a:    addi r2, r0, 2
            join: halt
        ";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let f = cfg.functions()[0].id;
        let dom = cfg.dominators(f);
        let entry = cfg.functions()[0].entry;
        let a = cfg.block_at(p.symbols.addr_of("a").unwrap()).unwrap();
        let b = cfg.block_at(p.symbols.addr_of("b").unwrap()).unwrap();
        let join = cfg.block_at(p.symbols.addr_of("join").unwrap()).unwrap();
        assert!(dom.dominates(entry, join));
        assert!(!dom.dominates(a, join));
        assert!(!dom.dominates(b, join));
        assert_eq!(dom.idom(join), Some(entry));
        assert_eq!(dom.idom(a), Some(entry));
        assert!(dom.dominates(join, join));
    }

    #[test]
    fn loop_header_dominates_body() {
        let src = "\
            .text
            main: li r1, 4
            head: beqz r1, done
            body: addi r1, r1, -1
                  j head
            done: halt
        ";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let dom = cfg.dominators(cfg.functions()[0].id);
        let head = cfg.block_at(p.symbols.addr_of("head").unwrap()).unwrap();
        let body = cfg.block_at(p.symbols.addr_of("body").unwrap()).unwrap();
        assert!(dom.dominates(head, body));
        assert!(!dom.dominates(body, head));
    }
}
