//! CFG reconstruction from a binary program image.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;

use stamp_isa::{Flow, Program};

use crate::graph::{
    BasicBlock, BlockId, CallSite, Callee, Cfg, Edge, EdgeId, EdgeKind, FuncId, Function,
};

/// Errors raised during CFG reconstruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CfgError {
    /// An address on a discovered path does not decode to an instruction.
    Decode { addr: u32, message: String },
    /// The same code address was reached from two different function
    /// entries — the reconstruction assumes functions do not share code.
    SharedCode { addr: u32, first: u32, second: u32 },
    /// A control-flow cycle without a unique dominating header was found;
    /// loop-bound analysis requires reducible control flow.
    Irreducible { func_entry: u32 },
    /// An indirect jump had no targets and `allow_unresolved` was off.
    Unresolved { addr: u32 },
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::Decode { addr, message } => {
                write!(f, "cannot decode instruction at {addr:#010x}: {message}")
            }
            CfgError::SharedCode { addr, first, second } => write!(
                f,
                "code at {addr:#010x} is shared by functions at {first:#010x} and {second:#010x}"
            ),
            CfgError::Irreducible { func_entry } => {
                write!(f, "irreducible control flow in function at {func_entry:#010x}")
            }
            CfgError::Unresolved { addr } => {
                write!(f, "unresolved indirect jump at {addr:#010x}")
            }
        }
    }
}

impl Error for CfgError {}

/// Reconstructs a [`Cfg`] from a [`Program`].
///
/// # Example
///
/// ```
/// use stamp_isa::asm::assemble;
/// use stamp_cfg::CfgBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble(".text\nmain: call f\nhalt\nf: ret\n")?;
/// let cfg = CfgBuilder::new(&p).build()?;
/// assert_eq!(cfg.functions().len(), 2);
/// assert_eq!(cfg.call_sites().len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct CfgBuilder<'p> {
    program: &'p Program,
    indirect_targets: BTreeMap<u32, Vec<u32>>,
    allow_unresolved: bool,
}

impl<'p> CfgBuilder<'p> {
    /// Creates a builder for `program`.
    pub fn new(program: &'p Program) -> CfgBuilder<'p> {
        CfgBuilder { program, indirect_targets: BTreeMap::new(), allow_unresolved: true }
    }

    /// Supplies possible targets for the indirect jump/call at `addr`
    /// (from annotations or value-analysis refinement).
    pub fn indirect_targets(
        &mut self,
        addr: u32,
        targets: impl IntoIterator<Item = u32>,
    ) -> &mut Self {
        let e = self.indirect_targets.entry(addr).or_default();
        for t in targets {
            if !e.contains(&t) {
                e.push(t);
            }
        }
        e.sort_unstable();
        self
    }

    /// When `false`, unresolved indirect jumps abort the build instead of
    /// being recorded in [`Cfg::unresolved_indirects`]. Default `true`.
    pub fn allow_unresolved(&mut self, allow: bool) -> &mut Self {
        self.allow_unresolved = allow;
        self
    }

    /// Runs the reconstruction.
    ///
    /// # Errors
    ///
    /// See [`CfgError`]. Note that unresolved indirect jumps are *not*
    /// errors by default; callers must check
    /// [`Cfg::unresolved_indirects`].
    pub fn build(&self) -> Result<Cfg, CfgError> {
        Discovery::run(self.program, &self.indirect_targets, self.allow_unresolved)
    }
}

/// Per-function discovery state.
struct FnInfo {
    entry: u32,
    /// All instruction addresses of this function.
    addrs: BTreeSet<u32>,
    /// Block leader addresses.
    leaders: BTreeSet<u32>,
    /// Call address → direct targets, for calls in this function.
    calls: BTreeMap<u32, Vec<u32>>,
}

struct Discovery<'p> {
    program: &'p Program,
    indirect: &'p BTreeMap<u32, Vec<u32>>,
    allow_unresolved: bool,
    /// Function entry → dense function index.
    func_ids: BTreeMap<u32, usize>,
    funcs: Vec<FnInfo>,
    /// Code address → owning function entry (for shared-code detection).
    owner: BTreeMap<u32, u32>,
    unresolved: BTreeSet<u32>,
}

impl<'p> Discovery<'p> {
    fn run(
        program: &'p Program,
        indirect: &'p BTreeMap<u32, Vec<u32>>,
        allow_unresolved: bool,
    ) -> Result<Cfg, CfgError> {
        let mut d = Discovery {
            program,
            indirect,
            allow_unresolved,
            func_ids: BTreeMap::new(),
            funcs: Vec::new(),
            owner: BTreeMap::new(),
            unresolved: BTreeSet::new(),
        };
        let mut queue = VecDeque::new();
        d.register_func(program.entry, &mut queue);
        while let Some(entry) = queue.pop_front() {
            d.trace_function(entry, &mut queue)?;
        }
        d.assemble()
    }

    fn register_func(&mut self, entry: u32, queue: &mut VecDeque<u32>) -> usize {
        if let Some(&i) = self.func_ids.get(&entry) {
            return i;
        }
        let i = self.funcs.len();
        self.func_ids.insert(entry, i);
        self.funcs.push(FnInfo {
            entry,
            addrs: BTreeSet::new(),
            leaders: BTreeSet::from([entry]),
            calls: BTreeMap::new(),
        });
        queue.push_back(entry);
        i
    }

    fn trace_function(&mut self, entry: u32, queue: &mut VecDeque<u32>) -> Result<(), CfgError> {
        let fi = self.func_ids[&entry];
        let mut work = vec![entry];
        while let Some(addr) = work.pop() {
            if self.funcs[fi].addrs.contains(&addr) {
                continue;
            }
            if let Some(&first) = self.owner.get(&addr) {
                if first != entry {
                    return Err(CfgError::SharedCode { addr, first, second: entry });
                }
            }
            self.owner.insert(addr, entry);
            self.funcs[fi].addrs.insert(addr);

            let insn = self
                .program
                .decode_at(addr)
                .map_err(|e| CfgError::Decode { addr, message: e.to_string() })?;
            match insn.flow(addr) {
                Flow::Seq => work.push(addr + 4),
                Flow::Branch { target } => {
                    let f = &mut self.funcs[fi];
                    f.leaders.insert(target);
                    f.leaders.insert(addr + 4);
                    work.push(target);
                    work.push(addr + 4);
                }
                Flow::Jump { target } => {
                    self.funcs[fi].leaders.insert(target);
                    work.push(target);
                }
                Flow::Call { target } => {
                    self.register_func(target, queue);
                    let f = &mut self.funcs[fi];
                    f.leaders.insert(addr + 4);
                    f.calls.insert(addr, vec![target]);
                    work.push(addr + 4);
                }
                Flow::IndirectCall => {
                    let targets = self.indirect.get(&addr).cloned().unwrap_or_default();
                    if targets.is_empty() {
                        if !self.allow_unresolved {
                            return Err(CfgError::Unresolved { addr });
                        }
                        self.unresolved.insert(addr);
                    }
                    for &t in &targets {
                        self.register_func(t, queue);
                    }
                    let f = &mut self.funcs[fi];
                    f.leaders.insert(addr + 4);
                    f.calls.insert(addr, targets);
                    work.push(addr + 4);
                }
                Flow::IndirectJump => {
                    let targets = self.indirect.get(&addr).cloned().unwrap_or_default();
                    if targets.is_empty() {
                        if !self.allow_unresolved {
                            return Err(CfgError::Unresolved { addr });
                        }
                        self.unresolved.insert(addr);
                    }
                    let f = &mut self.funcs[fi];
                    for &t in &targets {
                        f.leaders.insert(t);
                        work.push(t);
                    }
                }
                Flow::Return | Flow::Halt => {}
            }
        }
        Ok(())
    }

    fn assemble(self) -> Result<Cfg, CfgError> {
        let program = self.program;
        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut functions: Vec<Function> = Vec::new();
        let mut block_at: BTreeMap<u32, BlockId> = BTreeMap::new();
        let mut call_sites: Vec<CallSite> = Vec::new();

        // Build blocks function by function, in discovery order.
        for (fidx, info) in self.funcs.iter().enumerate() {
            let fid = FuncId(fidx as u32);
            let name = program
                .symbols
                .name_at(info.entry)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("fn_{:x}", info.entry));
            let mut func = Function {
                id: fid,
                entry_addr: info.entry,
                entry: BlockId(0), // fixed up below
                name,
                blocks: Vec::new(),
                returns: Vec::new(),
                halts: Vec::new(),
            };

            let mut current: Option<BasicBlock> = None;
            let mut prev_ends = true;
            for &addr in &info.addrs {
                let insn = program.decode_at(addr).expect("decoded during discovery");
                let start_new = info.leaders.contains(&addr) || prev_ends || current.is_none();
                if start_new {
                    if let Some(b) = current.take() {
                        finish_block(b, &mut blocks, &mut block_at, &mut func);
                    }
                    current = Some(BasicBlock {
                        id: BlockId(blocks.len() as u32), // provisional; fixed in finish
                        func: fid,
                        start: addr,
                        insns: Vec::new(),
                    });
                }
                let cur = current.as_mut().expect("block started");
                cur.insns.push((addr, insn));
                let flow = insn.flow(addr);
                prev_ends = !matches!(flow, Flow::Seq);
                // Non-contiguous addresses also force a new block.
                if !prev_ends && !info.addrs.contains(&(addr + 4)) {
                    prev_ends = true;
                }
            }
            if let Some(b) = current.take() {
                finish_block(b, &mut blocks, &mut block_at, &mut func);
            }
            func.entry = block_at[&info.entry];
            functions.push(func);
        }

        // Classify exits and connect edges.
        let mut edges: Vec<Edge> = Vec::new();
        let mut succs: Vec<Vec<EdgeId>> = vec![Vec::new(); blocks.len()];
        let mut preds: Vec<Vec<EdgeId>> = vec![Vec::new(); blocks.len()];
        let add_edge = |edges: &mut Vec<Edge>,
                        succs: &mut Vec<Vec<EdgeId>>,
                        preds: &mut Vec<Vec<EdgeId>>,
                        from: BlockId,
                        to: BlockId,
                        kind: EdgeKind| {
            let id = EdgeId(edges.len() as u32);
            edges.push(Edge { from, to, kind });
            succs[from.index()].push(id);
            preds[to.index()].push(id);
        };

        for b in &blocks {
            let (last_addr, last) = match b.last() {
                Some(x) => x,
                None => continue,
            };
            let next = last_addr + 4;
            match last.flow(last_addr) {
                Flow::Seq => {
                    if let Some(&to) = block_at.get(&next) {
                        add_edge(&mut edges, &mut succs, &mut preds, b.id, to, EdgeKind::Fall);
                    }
                }
                Flow::Branch { target } => {
                    let t = block_at[&target];
                    add_edge(&mut edges, &mut succs, &mut preds, b.id, t, EdgeKind::Taken);
                    if let Some(&to) = block_at.get(&next) {
                        add_edge(&mut edges, &mut succs, &mut preds, b.id, to, EdgeKind::Fall);
                    }
                }
                Flow::Jump { target } => {
                    let t = block_at[&target];
                    add_edge(&mut edges, &mut succs, &mut preds, b.id, t, EdgeKind::Taken);
                }
                Flow::Call { .. } | Flow::IndirectCall => {
                    let info = &self.funcs[b.func.index()];
                    let targets = &info.calls[&last_addr];
                    let return_to = block_at.get(&next).copied();
                    if let Some(to) = return_to {
                        add_edge(&mut edges, &mut succs, &mut preds, b.id, to, EdgeKind::CallFall);
                    }
                    let fids: Vec<FuncId> =
                        targets.iter().map(|t| FuncId(self.func_ids[t] as u32)).collect();
                    let callee = if matches!(last.flow(last_addr), Flow::Call { .. }) {
                        Callee::Direct(fids[0])
                    } else {
                        Callee::Indirect(fids)
                    };
                    call_sites.push(CallSite { block: b.id, addr: last_addr, callee, return_to });
                }
                Flow::IndirectJump => {
                    if let Some(targets) = self.indirect.get(&last_addr) {
                        for &t in targets {
                            let to = block_at[&t];
                            add_edge(&mut edges, &mut succs, &mut preds, b.id, to, EdgeKind::Taken);
                        }
                    }
                }
                Flow::Return => functions[b.func.index()].returns.push(b.id),
                Flow::Halt => functions[b.func.index()].halts.push(b.id),
            }
        }

        Ok(Cfg {
            blocks,
            functions,
            edges,
            succs,
            preds,
            call_sites,
            block_at,
            entry_func: FuncId(0),
            unresolved: self.unresolved.into_iter().collect(),
        })
    }
}

fn finish_block(
    mut b: BasicBlock,
    blocks: &mut Vec<BasicBlock>,
    block_at: &mut BTreeMap<u32, BlockId>,
    func: &mut Function,
) {
    let id = BlockId(blocks.len() as u32);
    b.id = id;
    block_at.insert(b.start, id);
    func.blocks.push(id);
    blocks.push(b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_isa::asm::assemble;

    fn cfg_of(src: &str) -> Cfg {
        let p = assemble(src).expect("assembles");
        CfgBuilder::new(&p).build().expect("builds")
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg = cfg_of(".text\nmain: nop\nnop\nhalt\n");
        assert_eq!(cfg.functions().len(), 1);
        assert_eq!(cfg.blocks().len(), 1);
        assert_eq!(cfg.block(BlockId(0)).len(), 3);
        assert_eq!(cfg.functions()[0].halts.len(), 1);
    }

    #[test]
    fn branch_splits_blocks() {
        let cfg = cfg_of(
            ".text\nmain: beq r1, r2, yes\nno: addi r3, r0, 1\nhalt\nyes: addi r3, r0, 2\nhalt\n",
        );
        // main / no / yes = 3 blocks.
        assert_eq!(cfg.blocks().len(), 3);
        let entry = cfg.functions()[0].entry;
        let succ_kinds: Vec<EdgeKind> = cfg.succs(entry).map(|(_, e)| e.kind).collect();
        assert!(succ_kinds.contains(&EdgeKind::Taken));
        assert!(succ_kinds.contains(&EdgeKind::Fall));
    }

    #[test]
    fn loop_has_back_edge_target_split() {
        let cfg = cfg_of(".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n");
        // Blocks: [li], [addi, bnez], [halt].
        assert_eq!(cfg.blocks().len(), 3);
        let loop_block = cfg.block_at(4).unwrap();
        assert!(cfg
            .succs(loop_block)
            .any(|(_, e)| e.to == loop_block && e.kind == EdgeKind::Taken));
    }

    #[test]
    fn call_discovers_function_and_callfall_edge() {
        let cfg = cfg_of(".text\nmain: call f\nhalt\nf: addi r1, r0, 1\nret\n");
        assert_eq!(cfg.functions().len(), 2);
        assert_eq!(cfg.functions()[1].name, "f");
        let cs = &cfg.call_sites()[0];
        assert_eq!(cs.callee.targets().len(), 1);
        let ret_to = cs.return_to.unwrap();
        assert!(cfg.succs(cs.block).any(|(_, e)| e.to == ret_to && e.kind == EdgeKind::CallFall));
        // Callee has one return block.
        let f1 = &cfg.functions()[1];
        assert_eq!(f1.returns.len(), 1);
    }

    #[test]
    fn unresolved_indirect_is_reported() {
        let src = ".text\nmain: la r1, main\njalr r0, r1, 0\n";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        assert_eq!(cfg.unresolved_indirects().len(), 1);
        // Strict mode errors instead.
        let err = CfgBuilder::new(&p).allow_unresolved(false).build().unwrap_err();
        assert!(matches!(err, CfgError::Unresolved { .. }));
    }

    #[test]
    fn indirect_targets_create_edges() {
        // A two-way computed jump.
        let src = "\
            .text
            main:
                la   r1, a
                jalr r0, r1, 0
            a:  halt
            b:  halt
        ";
        let p = assemble(src).unwrap();
        let a = p.symbols.addr_of("a").unwrap();
        let b = p.symbols.addr_of("b").unwrap();
        let jalr_addr = a - 4;
        let mut builder = CfgBuilder::new(&p);
        builder.indirect_targets(jalr_addr, [a, b]);
        let cfg = builder.build().unwrap();
        assert!(cfg.unresolved_indirects().is_empty());
        let jb = cfg.block_containing(jalr_addr).unwrap();
        let targets: Vec<BlockId> = cfg.succs(jb).map(|(_, e)| e.to).collect();
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn rpo_starts_at_entry() {
        let cfg = cfg_of(".text\nmain: beq r0, r0, x\ny: halt\nx: j y\n");
        let f = cfg.functions()[0].id;
        let order = cfg.rpo(f);
        assert_eq!(order[0], cfg.functions()[0].entry);
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn block_containing_mid_block_address() {
        let cfg = cfg_of(".text\nmain: nop\nnop\nhalt\n");
        assert_eq!(cfg.block_containing(4), Some(BlockId(0)));
        assert_eq!(cfg.block_containing(0x40), None);
    }

    #[test]
    fn decode_error_surfaces() {
        // Jump into the middle of nowhere is prevented by the assembler;
        // construct a program whose entry points at data instead.
        let p = assemble(".text\nmain: j main\n").unwrap();
        let mut bad = p.clone();
        bad.entry = 0x100; // outside .text
        let err = CfgBuilder::new(&bad).build().unwrap_err();
        assert!(matches!(err, CfgError::Decode { .. }));
    }
}
