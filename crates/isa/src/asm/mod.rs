//! A two-pass assembler for EVA32.
//!
//! The assembler turns textual assembly into a linked [`Program`] image:
//! pass 1 expands pseudo-instructions, lays out sections and assigns
//! addresses to labels; pass 2 resolves symbols and encodes machine words.
//!
//! # Syntax overview
//!
//! ```text
//!         .equ  N, 16            ; assembly-time constant
//!         .text
//! main:   addi  sp, sp, -8       ; comments: ';', '#', '//'
//!         li    r1, N*0 + 10     ; li/la/mov/ret/call/b..z pseudos
//!         la    r2, buf
//! loop:   sw    r1, 0(r2)
//!         addi  r1, r1, -1
//!         bnez  r1, loop
//!         halt
//!         .rodata
//! tbl:    .word main, loop       ; labels allowed in data
//!         .data
//! buf:    .space 64
//! ```
//!
//! Sections are laid out as `.text` then `.rodata` in ROM (from
//! [`AsmOptions::text_base`]) and `.data` then `.bss` in RAM (from
//! [`AsmOptions::data_base`]). The entry point is the `.entry` symbol,
//! else `main`, else `_start`, else the start of `.text`.

mod expr;
mod parse;

use std::collections::{BTreeMap, HashSet};
use std::error::Error;
use std::fmt;

use crate::codec::encode;
use crate::{AluOp, Insn, Program, Reg, Section, SectionKind, SymbolTable};

pub use expr::{parse_number, Atom, Expr};

use parse::{parse_line, DataItem, SectionSel, Slot, Stmt};

/// An assembly error with its source line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    line: u32,
    message: String,
}

impl AsmError {
    /// Creates an error at `line` (0 means "no specific line").
    pub fn new(line: u32, message: impl Into<String>) -> AsmError {
        AsmError { line, message: message.into() }
    }

    /// The 1-based source line, or 0 if not line-specific.
    pub fn line(&self) -> u32 {
        self.line
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl Error for AsmError {}

/// Layout options for [`assemble_with`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmOptions {
    /// Base address of `.text` (ROM). Default `0x0000_0000`.
    pub text_base: u32,
    /// Base address of `.data` (RAM). Default `0x1000_0000`.
    pub data_base: u32,
}

impl Default for AsmOptions {
    fn default() -> AsmOptions {
        AsmOptions { text_base: 0x0000_0000, data_base: 0x1000_0000 }
    }
}

/// Assembles `src` with default layout options.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered (with its line number).
///
/// # Example
///
/// ```
/// let p = stamp_isa::asm::assemble(".text\nmain: halt\n")?;
/// assert_eq!(p.entry, 0);
/// # Ok::<(), stamp_isa::asm::AsmError>(())
/// ```
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    assemble_with(src, &AsmOptions::default())
}

#[derive(Debug)]
enum Placed {
    Slots { sel: SectionSel, offset: u32, slots: Vec<Slot>, line: u32 },
    Data { sel: SectionSel, offset: u32, item: DataItem, line: u32 },
}

/// Assembles `src` into a [`Program`] using explicit layout options.
///
/// # Errors
///
/// Returns an [`AsmError`] for syntax errors, duplicate or undefined
/// symbols, out-of-range immediates, or misplaced statements (e.g. code
/// outside `.text`).
pub fn assemble_with(src: &str, opts: &AsmOptions) -> Result<Program, AsmError> {
    // ------------------------------------------------------------ parse
    let mut stmts = Vec::new();
    for (i, line) in src.lines().enumerate() {
        stmts.extend(parse_line(line, (i + 1) as u32)?);
    }

    // ----------------------------------------------------------- pass 1
    let mut cur = SectionSel::Text;
    let mut offsets: BTreeMap<SectionSel, u32> = BTreeMap::new();
    let mut placed: Vec<Placed> = Vec::new();
    let mut labels: Vec<(String, SectionSel, u32, u32)> = Vec::new();
    let mut consts: BTreeMap<String, i64> = BTreeMap::new();
    // Every label and constant name defined so far.
    let mut symbols: HashSet<String> = HashSet::new();
    let mut entry_sym: Option<(String, u32)> = None;

    for stmt in stmts {
        let off = offsets.entry(cur).or_insert(0);
        match stmt {
            Stmt::Section(sel) => cur = sel,
            Stmt::Label { name, line } => {
                if !symbols.insert(name.clone()) {
                    return Err(AsmError::new(line, format!("duplicate symbol `{name}`")));
                }
                labels.push((name, cur, *off, line));
            }
            Stmt::Equ { name, value } => {
                let line = value.line;
                if !symbols.insert(name.clone()) {
                    return Err(AsmError::new(line, format!("duplicate symbol `{name}`")));
                }
                let v = value.eval(&consts)?;
                consts.insert(name, v);
            }
            Stmt::Entry { name, line } => entry_sym = Some((name, line)),
            Stmt::Li { rd, value, line } => {
                if cur != SectionSel::Text {
                    return Err(AsmError::new(line, "instructions must be in .text"));
                }
                let v = value.eval(&consts).map_err(|_| {
                    AsmError::new(
                        line,
                        "`li` requires an assembly-time constant; use `la` for addresses",
                    )
                })?;
                if !(-(1i64 << 31)..(1i64 << 32)).contains(&v) {
                    return Err(AsmError::new(line, format!("`li` value {v} out of 32-bit range")));
                }
                let slots = expand_li(rd, v as u32);
                let n = slots.len() as u32;
                placed.push(Placed::Slots { sel: cur, offset: *off, slots, line });
                *off += 4 * n;
            }
            Stmt::Insn { slots, line } => {
                if cur != SectionSel::Text {
                    return Err(AsmError::new(line, "instructions must be in .text"));
                }
                let n = slots.len() as u32;
                placed.push(Placed::Slots { sel: cur, offset: *off, slots, line });
                *off += 4 * n;
            }
            Stmt::Data { item, line } => {
                if cur == SectionSel::Text && !matches!(item, DataItem::Align(_)) {
                    return Err(AsmError::new(
                        line,
                        "data directives are not allowed in .text (use .rodata)",
                    ));
                }
                if cur == SectionSel::Bss
                    && !matches!(item, DataItem::Space(_) | DataItem::Align(_))
                {
                    return Err(AsmError::new(line, "only .space/.align are allowed in .bss"));
                }
                let size = match &item {
                    DataItem::Word(es) => 4 * es.len() as u32,
                    DataItem::Half(es) => 2 * es.len() as u32,
                    DataItem::Byte(es) => es.len() as u32,
                    DataItem::Space(n) => *n,
                    DataItem::Ascii(b) => b.len() as u32,
                    DataItem::Align(n) => {
                        if cur == SectionSel::Text && *n % 4 != 0 {
                            return Err(AsmError::new(
                                line,
                                ".align in .text must be a multiple of 4",
                            ));
                        }
                        off.next_multiple_of(*n) - *off
                    }
                };
                placed.push(Placed::Data { sel: cur, offset: *off, item, line });
                *off += size;
            }
        }
    }

    // ------------------------------------------------- section layout
    let size = |sel: SectionSel| offsets.get(&sel).copied().unwrap_or(0);
    let text_base = opts.text_base;
    let rodata_base = (text_base + size(SectionSel::Text)).next_multiple_of(16);
    let data_base = opts.data_base;
    let bss_base = (data_base + size(SectionSel::Data)).next_multiple_of(16);
    if rodata_base + size(SectionSel::RoData) > data_base
        && size(SectionSel::RoData) + size(SectionSel::Text) > 0
    {
        // ROM running into RAM means the image is simply too large.
        if rodata_base.checked_add(size(SectionSel::RoData)).is_none_or(|end| end > data_base) {
            return Err(AsmError::new(0, "ROM image overlaps the RAM base; increase data_base"));
        }
    }
    let base_of = |sel: SectionSel| match sel {
        SectionSel::Text => text_base,
        SectionSel::RoData => rodata_base,
        SectionSel::Data => data_base,
        SectionSel::Bss => bss_base,
    };

    // ------------------------------------------------- symbol binding
    let mut symbols: BTreeMap<String, i64> = consts;
    let mut table = SymbolTable::new();
    for (name, sel, off, _line) in &labels {
        let addr = base_of(*sel) + off;
        symbols.insert(name.clone(), addr as i64);
        table.insert(name.clone(), addr);
    }

    // ----------------------------------------------------------- pass 2
    let mut bufs: BTreeMap<SectionSel, Vec<u8>> = BTreeMap::new();
    for p in &placed {
        match p {
            Placed::Slots { sel, offset, slots, line } => {
                let base = base_of(*sel);
                let buf = bufs.entry(*sel).or_default();
                pad_text(buf, *offset);
                for (k, slot) in slots.iter().enumerate() {
                    let pc = base + offset + 4 * k as u32;
                    let insn = resolve_slot(slot, pc, &symbols, *line)?;
                    let word = encode(&insn).map_err(|e| AsmError::new(*line, e.to_string()))?;
                    buf.extend_from_slice(&word.to_le_bytes());
                }
            }
            Placed::Data { sel, offset, item, line } => {
                if *sel == SectionSel::Bss {
                    continue; // no image bytes
                }
                let buf = bufs.entry(*sel).or_default();
                if *sel == SectionSel::Text {
                    pad_text(buf, *offset);
                } else {
                    buf.resize(*offset as usize, 0);
                }
                emit_data(buf, item, &symbols, *line)?;
            }
        }
    }

    // ------------------------------------------------- build sections
    let mut sections = Vec::new();
    let mut push = |sel: SectionSel, name: &str, kind: SectionKind| {
        let sz = size(sel);
        if sz == 0 {
            return;
        }
        let mut data = bufs.remove(&sel).unwrap_or_default();
        if kind != SectionKind::Bss {
            if sel == SectionSel::Text {
                pad_text(&mut data, sz);
            } else {
                data.resize(sz as usize, 0);
            }
        } else {
            data.clear();
        }
        sections.push(Section { name: name.into(), base: base_of(sel), kind, data, size: sz });
    };
    push(SectionSel::Text, ".text", SectionKind::Text);
    push(SectionSel::RoData, ".rodata", SectionKind::RoData);
    push(SectionSel::Data, ".data", SectionKind::Data);
    push(SectionSel::Bss, ".bss", SectionKind::Bss);
    if size(SectionSel::Text) == 0 {
        return Err(AsmError::new(0, "program has no .text section"));
    }

    // ---------------------------------------------------------- entry
    let entry = if let Some((name, line)) = entry_sym {
        table
            .addr_of(&name)
            .ok_or_else(|| AsmError::new(line, format!("undefined entry symbol `{name}`")))?
    } else {
        table.addr_of("main").or_else(|| table.addr_of("_start")).unwrap_or(text_base)
    };

    Ok(Program::new(entry, sections, table))
}

/// Pads a `.text` buffer with `nop` words up to `offset`.
fn pad_text(buf: &mut Vec<u8>, offset: u32) {
    let nop = encode(&Insn::nop()).expect("nop encodes");
    while (buf.len() as u32) < offset {
        buf.extend_from_slice(&nop.to_le_bytes());
    }
    debug_assert_eq!(buf.len() as u32, offset.max(buf.len() as u32));
}

fn expand_li(rd: Reg, v: u32) -> Vec<Slot> {
    let sv = v as i32;
    if (-0x8000..=0x7fff).contains(&sv) {
        vec![Slot::Fixed(Insn::AluImm { op: AluOp::Add, rd, rs1: Reg::ZERO, imm: sv })]
    } else if v & 0xffff == 0 {
        vec![Slot::Fixed(Insn::Lui { rd, imm: (v >> 16) as u16 })]
    } else {
        vec![
            Slot::Fixed(Insn::Lui { rd, imm: (v >> 16) as u16 }),
            Slot::Fixed(Insn::AluImm { op: AluOp::Or, rd, rs1: rd, imm: (v & 0xffff) as i32 }),
        ]
    }
}

fn resolve_slot(
    slot: &Slot,
    pc: u32,
    symbols: &BTreeMap<String, i64>,
    line: u32,
) -> Result<Insn, AsmError> {
    let imm32 = |e: &Expr| -> Result<i32, AsmError> {
        let v = e.eval(symbols)?;
        i32::try_from(v)
            .or_else(|_| {
                // Allow unsigned 32-bit values to pass through unchanged.
                u32::try_from(v).map(|u| u as i32)
            })
            .map_err(|_| AsmError::new(line, format!("value {v} out of 32-bit range")))
    };
    let rel_words = |e: &Expr| -> Result<i32, AsmError> {
        let target = e.eval(symbols)?;
        let delta = target - pc as i64;
        if delta % 4 != 0 {
            return Err(AsmError::new(line, "branch target is not word-aligned"));
        }
        Ok((delta / 4) as i32)
    };
    let insn = match slot {
        Slot::Fixed(i) => *i,
        Slot::AluImm { op, rd, rs1, imm } => {
            Insn::AluImm { op: *op, rd: *rd, rs1: *rs1, imm: imm32(imm)? }
        }
        Slot::Lui { rd, imm } => {
            let v = imm32(imm)?;
            if !(0..=0xffff).contains(&v) {
                return Err(AsmError::new(line, format!("`lui` immediate {v} out of range")));
            }
            Insn::Lui { rd: *rd, imm: v as u16 }
        }
        Slot::LuiHi { rd, value } => {
            let v = imm32(value)? as u32;
            Insn::Lui { rd: *rd, imm: (v >> 16) as u16 }
        }
        Slot::OriLo { rd, rs, value } => {
            let v = imm32(value)? as u32;
            Insn::AluImm { op: AluOp::Or, rd: *rd, rs1: *rs, imm: (v & 0xffff) as i32 }
        }
        Slot::Load { width, signed, rd, base, offset } => Insn::Load {
            width: *width,
            signed: *signed,
            rd: *rd,
            base: *base,
            offset: imm32(offset)?,
        },
        Slot::Store { width, src, base, offset } => {
            Insn::Store { width: *width, src: *src, base: *base, offset: imm32(offset)? }
        }
        Slot::Branch { cond, rs1, rs2, target } => {
            Insn::Branch { cond: *cond, rs1: *rs1, rs2: *rs2, offset: rel_words(target)? }
        }
        Slot::Jump { target, link } => {
            let offset = rel_words(target)?;
            if *link {
                Insn::Jal { offset }
            } else {
                Insn::Jump { offset }
            }
        }
        Slot::Jalr { rd, rs1, offset } => Insn::Jalr { rd: *rd, rs1: *rs1, offset: imm32(offset)? },
    };
    Ok(insn)
}

fn emit_data(
    buf: &mut Vec<u8>,
    item: &DataItem,
    symbols: &BTreeMap<String, i64>,
    line: u32,
) -> Result<(), AsmError> {
    let eval_to = |e: &Expr, bits: u32| -> Result<u64, AsmError> {
        let v = e.eval(symbols)?;
        let umax = (1i64 << bits) - 1;
        let smin = -(1i64 << (bits - 1));
        if v < smin || v > umax {
            return Err(AsmError::new(line, format!("data value {v} does not fit {bits} bits")));
        }
        Ok((v as u64) & ((1u64 << bits) - 1))
    };
    match item {
        DataItem::Word(es) => {
            for e in es {
                buf.extend_from_slice(&(eval_to(e, 32)? as u32).to_le_bytes());
            }
        }
        DataItem::Half(es) => {
            for e in es {
                buf.extend_from_slice(&(eval_to(e, 16)? as u16).to_le_bytes());
            }
        }
        DataItem::Byte(es) => {
            for e in es {
                buf.push(eval_to(e, 8)? as u8);
            }
        }
        DataItem::Space(n) => buf.extend(std::iter::repeat_n(0u8, *n as usize)),
        DataItem::Ascii(bytes) => buf.extend_from_slice(bytes),
        DataItem::Align(_) => {} // padding handled by offset bookkeeping
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cond, MemWidth};

    #[test]
    fn end_to_end_small_program() {
        let p = assemble(
            r#"
                .equ N, 3
                .text
            main:
                li   r1, N
                la   r2, buf
            loop:
                sw   r1, 0(r2)
                addi r1, r1, -1
                bnez r1, loop
                halt
                .rodata
            tbl:
                .word main, loop, N
                .data
            buf:
                .space 16
            "#,
        )
        .unwrap();

        assert_eq!(p.entry, 0);
        // li N fits in 16 bits → single addi.
        assert_eq!(
            p.decode_at(0).unwrap(),
            Insn::AluImm { op: AluOp::Add, rd: Reg::new(1), rs1: Reg::ZERO, imm: 3 }
        );
        // la expands to lui+ori of the buffer address.
        assert_eq!(p.decode_at(4).unwrap(), Insn::Lui { rd: Reg::new(2), imm: 0x1000 });
        match p.decode_at(8).unwrap() {
            Insn::AluImm { op: AluOp::Or, rd, imm, .. } => {
                assert_eq!(rd, Reg::new(2));
                assert_eq!(imm, 0);
            }
            other => panic!("unexpected {other}"),
        }
        // Branch back to `loop` (at 0xc): bnez at 0x14 → offset -2 words.
        match p.decode_at(0x14).unwrap() {
            Insn::Branch { cond: Cond::Ne, offset, .. } => assert_eq!(offset, -2),
            other => panic!("unexpected {other}"),
        }
        // Jump table in .rodata resolves labels.
        let tbl = p.symbols.addr_of("tbl").unwrap();
        assert_eq!(p.rom_value(tbl, MemWidth::W), Some(0)); // main
        assert_eq!(p.rom_value(tbl + 4, MemWidth::W), Some(0xc)); // loop
        assert_eq!(p.rom_value(tbl + 8, MemWidth::W), Some(3)); // N

        // Data section placed at the default RAM base.
        assert_eq!(p.symbols.addr_of("buf"), Some(0x1000_0000));
    }

    #[test]
    fn li_expansion_sizes() {
        let p =
            assemble(".text\nmain: li r1, 5\nli r2, 0x12345678\nli r3, 0x70000\nhalt\n").unwrap();
        // 1 + 2 + 1 (0x70000 = lui only) + 1 instructions.
        assert_eq!(p.insn_count(), 5);
        assert_eq!(p.decode_at(4).unwrap(), Insn::Lui { rd: Reg::new(2), imm: 0x1234 });
        assert_eq!(p.decode_at(4 * 3).unwrap(), Insn::Lui { rd: Reg::new(3), imm: 0x7 });
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = assemble(".text\na: nop\na: halt\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn undefined_symbol_rejected() {
        let err = assemble(".text\nmain: j nowhere\n").unwrap_err();
        assert!(err.to_string().contains("undefined"));
    }

    #[test]
    fn code_outside_text_rejected() {
        let err = assemble(".data\nnop\n").unwrap_err();
        assert!(err.to_string().contains(".text"));
    }

    #[test]
    fn data_in_text_rejected() {
        let err = assemble(".text\nmain: .word 1\n").unwrap_err();
        assert!(err.to_string().contains("not allowed in .text"));
    }

    #[test]
    fn entry_directive_overrides_main() {
        let p = assemble(".entry task\n.text\nmain: nop\ntask: halt\n").unwrap();
        assert_eq!(p.entry, 4);
    }

    #[test]
    fn align_pads_text_with_nops() {
        let p = assemble(".text\nmain: nop\n.align 16\nrest: halt\n").unwrap();
        assert_eq!(p.symbols.addr_of("rest"), Some(16));
        for a in (4..16).step_by(4) {
            assert_eq!(p.decode_at(a).unwrap(), Insn::nop());
        }
    }

    #[test]
    fn label_arithmetic_in_data() {
        let p =
            assemble(".text\nmain: halt\n.rodata\nstart:\n.word 1, 2, 3\nend:\n.word end-start\n")
                .unwrap();
        let end = p.symbols.addr_of("end").unwrap();
        assert_eq!(p.rom_value(end, MemWidth::W), Some(12));
    }

    #[test]
    fn custom_bases() {
        let opts = AsmOptions { text_base: 0x8000, data_base: 0x2000_0000 };
        let p = assemble_with(".text\nmain: halt\n.data\nv: .word 0\n", &opts).unwrap();
        assert_eq!(p.entry, 0x8000);
        assert_eq!(p.symbols.addr_of("v"), Some(0x2000_0000));
    }
}
