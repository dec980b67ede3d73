//! The WAM instruction set.
//!
//! The set follows Warren's 1983 classification into `get`, `put`, `unify`,
//! procedural and indexing instructions, with two small, documented
//! deviations from the original design:
//!
//! * `put_variable Yn` allocates the fresh cell on the **heap** (not the
//!   environment), so no variable is ever "unsafe" and `put_unsafe_value` /
//!   `unify_local_value` are unnecessary;
//! * `[]` is an ordinary constant (`get_constant`/`unify_constant` handle
//!   it), so there are no dedicated `*_nil` instructions.

use crate::compile::{CodePools, CompiledProgram};
use prolog_syntax::{Interner, Symbol};
use std::fmt;

/// Number of X (argument/temporary) registers of the machine frame.
/// The compiler refuses a clause that needs more, and the `.wam` loader
/// refuses a register operand at or above it. The largest clause in the
/// workspace, a data fact of the hosted analyzer's log10 program, needs
/// 290.
pub const NUM_REGISTERS: usize = 512;

/// A register operand: temporary (`X`, shared with argument registers) or
/// permanent (`Y`, in the current environment).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Slot {
    /// Temporary/argument register `Xn` (0-based; `A1` is `X0`).
    X(u16),
    /// Permanent register `Yn` in the current environment (0-based).
    Y(u16),
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::X(n) => write!(f, "X{}", n + 1),
            Slot::Y(n) => write!(f, "Y{}", n + 1),
        }
    }
}

/// A functor: name plus arity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Functor {
    /// Functor name.
    pub name: Symbol,
    /// Number of arguments (always ≥ 1 in instructions).
    pub arity: u16,
}

impl Functor {
    /// Render as `name/arity`.
    pub fn display(&self, interner: &Interner) -> String {
        format!("{}/{}", interner.resolve(self.name), self.arity)
    }
}

/// An `i64` stored as two `u32` halves, so that a [`WamConst`] (and
/// with it an [`Instr`]) needs only 4-byte alignment. The full `i64`
/// range is kept.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct WamInt([u32; 2]);

impl WamInt {
    /// Store `value`.
    pub const fn new(value: i64) -> WamInt {
        WamInt([value as u32, (value >> 32) as u32])
    }

    /// The stored value.
    pub const fn get(self) -> i64 {
        ((self.0[1] as i64) << 32) | self.0[0] as i64
    }
}

impl fmt::Debug for WamInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl fmt::Display for WamInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// A constant operand (12 bytes, 4-byte aligned).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WamConst {
    /// An atom (including `[]`).
    Atom(Symbol),
    /// An integer.
    Int(WamInt),
}

impl WamConst {
    /// The constant for the integer `value`.
    pub const fn int(value: i64) -> WamConst {
        WamConst::Int(WamInt::new(value))
    }

    /// Render using `interner` for atom names.
    pub fn display(&self, interner: &Interner) -> String {
        match self {
            WamConst::Atom(a) => interner.resolve(*a).to_owned(),
            WamConst::Int(i) => i.to_string(),
        }
    }
}

/// Index of a predicate in the [`crate::CompiledProgram`] predicate table.
pub type PredIdx = u32;

/// A resolved code address.
pub type CodeAddr = u32;

/// A run of entries in one of a program's operand pools
/// ([`crate::CodePools`]): `start .. start + len`.
///
/// The `u32` start is stored as two `u16` halves, so a span needs only
/// 2-byte alignment and fits beside a functor in a 16-byte [`Instr`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    start: [u16; 2],
    len: u16,
}

impl Span {
    /// The longest run a span can name.
    pub const MAX_LEN: usize = u16::MAX as usize;

    /// The span `start .. start + len`, or `None` when either bound does
    /// not fit (`start` past `u32::MAX`, `len` past [`Span::MAX_LEN`]).
    pub(crate) fn new(start: usize, len: usize) -> Option<Span> {
        let start = u32::try_from(start).ok()?;
        let len = u16::try_from(len).ok()?;
        Some(Span {
            start: [start as u16, (start >> 16) as u16],
            len,
        })
    }

    /// The first pool index.
    pub fn start(self) -> usize {
        (usize::from(self.start[1]) << 16) | usize::from(self.start[0])
    }

    /// The number of entries.
    pub fn len(self) -> usize {
        usize::from(self.len)
    }

    /// Whether the run is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The pool indices, `start .. start + len`.
    pub fn range(self) -> std::ops::Range<usize> {
        self.start()..self.start() + self.len()
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.range())
    }
}

/// The four targets of a `switch_on_term`, one per tag of `A1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TermSwitch {
    /// Where to go when `A1` is unbound.
    pub var: CodeAddr,
    /// Where to go for constants.
    pub con: CodeAddr,
    /// Where to go for cons cells.
    pub lis: CodeAddr,
    /// Where to go for other structures.
    pub str_: CodeAddr,
}

/// One constituent of a fused unify run (see [`Instr::GetStructureSeq`]).
///
/// These are the four `unify_*` instructions with their operands, minus the
/// instruction-stream framing: a fused `get_structure`/`get_list` head names
/// its whole argument run in the program's unify-op pool
/// ([`crate::CodePools::unify_run`]), so the executor pays a single
/// fetch/decode for the entire sequence.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum UnifyOp {
    /// `unify_variable Vn`.
    Variable(Slot),
    /// `unify_value Vn`.
    Value(Slot),
    /// `unify_constant c`.
    Constant(WamConst),
    /// `unify_void n`.
    Void(u16),
}

impl UnifyOp {
    /// The plain [`Instr`] this operand stands for.
    pub fn to_instr(self) -> Instr {
        match self {
            UnifyOp::Variable(v) => Instr::UnifyVariable(v),
            UnifyOp::Value(v) => Instr::UnifyValue(v),
            UnifyOp::Constant(c) => Instr::UnifyConstant(c),
            UnifyOp::Void(n) => Instr::UnifyVoid(n),
        }
    }

    /// The opcode index of the constituent instruction — used by the
    /// executor to attribute fused executions back to the plain opcodes in
    /// dynamic histograms.
    #[inline]
    pub fn opcode_index(self) -> usize {
        match self {
            UnifyOp::Variable(_) => 10,
            UnifyOp::Value(_) => 11,
            UnifyOp::Constant(_) => 12,
            UnifyOp::Void(_) => 13,
        }
    }

    /// Try to view a plain instruction as a fusable unify operand.
    pub fn from_instr(instr: Instr) -> Option<UnifyOp> {
        match instr {
            Instr::UnifyVariable(v) => Some(UnifyOp::Variable(v)),
            Instr::UnifyValue(v) => Some(UnifyOp::Value(v)),
            Instr::UnifyConstant(c) => Some(UnifyOp::Constant(c)),
            Instr::UnifyVoid(n) => Some(UnifyOp::Void(n)),
            _ => None,
        }
    }
}

/// One WAM instruction: 16 bytes, `Copy`.
///
/// Argument-register operands are raw `u16` X-register indices (0-based).
/// The six instructions whose operands vary in length — the three fused
/// superinstructions and the three switches — name a run of one of the
/// program's operand pools ([`crate::CodePools`]) instead of owning it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Instr {
    // ----- get (head argument) instructions -----
    /// `get_variable Vn, Ai` — store `Ai` into fresh variable slot.
    GetVariable(Slot, u16),
    /// `get_value Vn, Ai` — unify `Vn` with `Ai`.
    GetValue(Slot, u16),
    /// `get_constant c, Ai`.
    GetConstant(WamConst, u16),
    /// `get_list Ai`.
    GetList(u16),
    /// `get_structure f/n, Ai`.
    GetStructure(Functor, u16),

    // ----- put (body argument) instructions -----
    /// `put_variable Vn, Ai` — fresh unbound cell into both.
    PutVariable(Slot, u16),
    /// `put_value Vn, Ai`.
    PutValue(Slot, u16),
    /// `put_constant c, Ai`.
    PutConstant(WamConst, u16),
    /// `put_list Ai` — begin writing a cons cell, args follow as `unify_*`.
    PutList(u16),
    /// `put_structure f/n, Ai`.
    PutStructure(Functor, u16),

    // ----- unify (subterm) instructions -----
    /// `unify_variable Vn`.
    UnifyVariable(Slot),
    /// `unify_value Vn`.
    UnifyValue(Slot),
    /// `unify_constant c`.
    UnifyConstant(WamConst),
    /// `unify_void n` — skip/write `n` anonymous subterms.
    UnifyVoid(u16),

    // ----- procedural instructions -----
    /// `allocate n` — push an environment with `n` permanent slots.
    Allocate(u16),
    /// `deallocate` — pop the current environment.
    Deallocate,
    /// `call p/n` — invoke a user predicate.
    Call(PredIdx),
    /// `execute p/n` — tail-call a user predicate.
    Execute(PredIdx),
    /// `proceed` — return from a fact/chain clause.
    Proceed,
    /// Invoke an inline builtin with arguments in `A1..An`.
    CallBuiltin(crate::builtins::Builtin),

    // ----- cut -----
    /// `neck_cut` — discard choice points created since the call.
    NeckCut,
    /// `get_level Yn` — save the cut barrier into `Yn`.
    GetLevel(u16),
    /// `cut Yn` — cut back to the barrier saved in `Yn`.
    CutLevel(u16),

    // ----- indexing instructions -----
    /// `try_me_else L` — push a choice point; on failure resume at `L`.
    TryMeElse(CodeAddr),
    /// `retry_me_else L` — update the alternative of the current choice point.
    RetryMeElse(CodeAddr),
    /// `trust_me` — pop the current choice point.
    TrustMe,
    /// `try L` — push a choice point (alternative = next instruction), jump to `L`.
    Try(CodeAddr),
    /// `retry L` — update alternative to next instruction, jump to `L`.
    Retry(CodeAddr),
    /// `trust L` — pop the choice point, jump to `L`.
    Trust(CodeAddr),
    /// `switch_on_term Lv, Lc, Ll, Ls` — dispatch on the tag of `A1`; the
    /// operand indexes the program's targets
    /// ([`crate::CodePools::term_switch`]).
    SwitchOnTerm(u32),
    /// `switch_on_constant` — second-level dispatch on a constant value,
    /// over a pooled table ([`crate::CodePools::const_table`]).
    SwitchOnConstant(Span),
    /// `switch_on_structure` — second-level dispatch on a functor, over a
    /// pooled table ([`crate::CodePools::struct_table`]).
    SwitchOnStructure(Span),
    /// Unconditional failure (backtrack).
    Fail,

    // ----- fused superinstructions (emitted by `crate::fuse`) -----
    /// `get_structure f/n, Ai` fused with its trailing `unify_*` run. The
    /// functor is spelled out as name and arity so that it packs beside
    /// the span.
    GetStructureSeq {
        /// Functor name.
        name: Symbol,
        /// Functor arity.
        arity: u16,
        /// Argument register `Ai`.
        arg: u16,
        /// The pooled run ([`crate::CodePools::unify_run`]).
        ops: Span,
    },
    /// `get_list Ai` fused with its trailing, pooled `unify_*` run
    /// ([`crate::CodePools::unify_run`]).
    GetListSeq(u16, Span),
    /// A run of two or more consecutive `put_value Vn, Ai` moves, pooled
    /// ([`crate::CodePools::move_run`]).
    PutValueSeq(Span),
}

// Every instruction of the code area is 16 bytes: operands that vary in
// length live in the program's operand pools.
const _: () = assert!(std::mem::size_of::<Instr>() == 16);

/// Number of distinct opcodes in [`Instr`].
pub const NUM_OPCODES: usize = 36;

/// Opcode index of the first fused superinstruction. Indices `>=` this are
/// superinstructions whose dynamic executions are attributed back to their
/// constituents (indices `< FIRST_FUSED_OPCODE`) in opcode histograms.
pub const FIRST_FUSED_OPCODE: usize = 33;

/// Opcode mnemonics, indexed by [`Instr::opcode_index`].
pub const OPCODE_NAMES: [&str; NUM_OPCODES] = [
    "get_variable",
    "get_value",
    "get_constant",
    "get_list",
    "get_structure",
    "put_variable",
    "put_value",
    "put_constant",
    "put_list",
    "put_structure",
    "unify_variable",
    "unify_value",
    "unify_constant",
    "unify_void",
    "allocate",
    "deallocate",
    "call",
    "execute",
    "proceed",
    "call_builtin",
    "neck_cut",
    "get_level",
    "cut",
    "try_me_else",
    "retry_me_else",
    "trust_me",
    "try",
    "retry",
    "trust",
    "switch_on_term",
    "switch_on_constant",
    "switch_on_structure",
    "fail",
    "get_structure_seq",
    "get_list_seq",
    "put_value_seq",
];

impl Instr {
    /// A dense opcode index in `0..NUM_OPCODES`, ignoring operands.
    /// [`OPCODE_NAMES`] maps it back to the mnemonic.
    pub fn opcode_index(&self) -> usize {
        use Instr::*;
        match self {
            GetVariable(..) => 0,
            GetValue(..) => 1,
            GetConstant(..) => 2,
            GetList(..) => 3,
            GetStructure(..) => 4,
            PutVariable(..) => 5,
            PutValue(..) => 6,
            PutConstant(..) => 7,
            PutList(..) => 8,
            PutStructure(..) => 9,
            UnifyVariable(..) => 10,
            UnifyValue(..) => 11,
            UnifyConstant(..) => 12,
            UnifyVoid(..) => 13,
            Allocate(..) => 14,
            Deallocate => 15,
            Call(..) => 16,
            Execute(..) => 17,
            Proceed => 18,
            CallBuiltin(..) => 19,
            NeckCut => 20,
            GetLevel(..) => 21,
            CutLevel(..) => 22,
            TryMeElse(..) => 23,
            RetryMeElse(..) => 24,
            TrustMe => 25,
            Try(..) => 26,
            Retry(..) => 27,
            Trust(..) => 28,
            SwitchOnTerm(..) => 29,
            SwitchOnConstant(..) => 30,
            SwitchOnStructure(..) => 31,
            Fail => 32,
            GetStructureSeq { .. } => 33,
            GetListSeq(..) => 34,
            PutValueSeq(..) => 35,
        }
    }

    /// Whether this is a fused superinstruction.
    pub fn is_fused(&self) -> bool {
        self.opcode_index() >= FIRST_FUSED_OPCODE
    }

    /// The constituent plain instructions, with fused runs read from
    /// `pools`. A fused superinstruction expands to the sequence it
    /// replaces; every other instruction expands to itself. `unfuse`,
    /// static opcode coverage, and `disasm` all rely on this being the
    /// exact inverse of the fusion pass.
    pub fn expand(self, pools: &CodePools) -> Vec<Instr> {
        use Instr::*;
        match self {
            GetStructureSeq {
                name,
                arity,
                arg,
                ops,
            } => std::iter::once(GetStructure(Functor { name, arity }, arg))
                .chain(pools.unify_run(ops).iter().map(|op| op.to_instr()))
                .collect(),
            GetListSeq(a, ops) => std::iter::once(GetList(a))
                .chain(pools.unify_run(ops).iter().map(|op| op.to_instr()))
                .collect(),
            PutValueSeq(moves) => pools
                .move_run(moves)
                .iter()
                .map(|&(v, a)| PutValue(v, a))
                .collect(),
            other => vec![other],
        }
    }

    /// Display the instruction with symbolic names resolved and pooled
    /// operands read from `program`.
    pub fn display(&self, program: &CompiledProgram) -> String {
        use Instr::*;
        let interner = &program.interner;
        let pools = &program.pools;
        match *self {
            GetVariable(v, a) => format!("get_variable {v}, A{}", a + 1),
            GetValue(v, a) => format!("get_value {v}, A{}", a + 1),
            GetConstant(c, a) => format!("get_constant {}, A{}", c.display(interner), a + 1),
            GetList(a) => format!("get_list A{}", a + 1),
            GetStructure(f, a) => {
                format!("get_structure {}, A{}", f.display(interner), a + 1)
            }
            PutVariable(v, a) => format!("put_variable {v}, A{}", a + 1),
            PutValue(v, a) => format!("put_value {v}, A{}", a + 1),
            PutConstant(c, a) => format!("put_constant {}, A{}", c.display(interner), a + 1),
            PutList(a) => format!("put_list A{}", a + 1),
            PutStructure(f, a) => {
                format!("put_structure {}, A{}", f.display(interner), a + 1)
            }
            UnifyVariable(v) => format!("unify_variable {v}"),
            UnifyValue(v) => format!("unify_value {v}"),
            UnifyConstant(c) => format!("unify_constant {}", c.display(interner)),
            UnifyVoid(n) => format!("unify_void {n}"),
            Allocate(n) => format!("allocate {n}"),
            Deallocate => "deallocate".into(),
            Call(p) => format!("call pred#{p}"),
            Execute(p) => format!("execute pred#{p}"),
            Proceed => "proceed".into(),
            CallBuiltin(b) => format!("builtin {b}"),
            NeckCut => "neck_cut".into(),
            GetLevel(y) => format!("get_level Y{}", y + 1),
            CutLevel(y) => format!("cut Y{}", y + 1),
            TryMeElse(l) => format!("try_me_else {l}"),
            RetryMeElse(l) => format!("retry_me_else {l}"),
            TrustMe => "trust_me".into(),
            Try(l) => format!("try {l}"),
            Retry(l) => format!("retry {l}"),
            Trust(l) => format!("trust {l}"),
            SwitchOnTerm(t) => {
                let TermSwitch {
                    var,
                    con,
                    lis,
                    str_,
                } = pools.term_switch(t);
                format!("switch_on_term {var}, {con}, {lis}, {str_}")
            }
            SwitchOnConstant(table) => {
                let entries: Vec<String> = pools
                    .const_table(table)
                    .iter()
                    .map(|(c, l)| format!("{}→{l}", c.display(interner)))
                    .collect();
                format!("switch_on_constant [{}]", entries.join(", "))
            }
            SwitchOnStructure(table) => {
                let entries: Vec<String> = pools
                    .struct_table(table)
                    .iter()
                    .map(|(f, l)| format!("{}→{l}", f.display(interner)))
                    .collect();
                format!("switch_on_structure [{}]", entries.join(", "))
            }
            Fail => "fail".into(),
            // Fused superinstructions render as their constituent expansion
            // joined inline, so listings stay readable and static-coverage
            // greps keep seeing the plain mnemonics.
            GetStructureSeq { .. } | GetListSeq(..) | PutValueSeq(..) => {
                let parts: Vec<String> = self
                    .expand(pools)
                    .iter()
                    .map(|i| i.display(program))
                    .collect();
                parts.join(" + ")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_indices_are_dense_and_named() {
        let empty = Span::new(0, 0).unwrap();
        let samples = [
            (Instr::GetVariable(Slot::X(0), 0), "get_variable"),
            (Instr::Proceed, "proceed"),
            (Instr::SwitchOnConstant(empty), "switch_on_constant"),
            (Instr::Fail, "fail"),
            (Instr::GetListSeq(0, empty), "get_list_seq"),
        ];
        for (instr, name) in samples {
            let idx = instr.opcode_index();
            assert!(idx < NUM_OPCODES);
            assert_eq!(OPCODE_NAMES[idx], name);
        }
        assert_eq!(Instr::Fail.opcode_index(), FIRST_FUSED_OPCODE - 1);
        assert_eq!(Instr::PutValueSeq(empty).opcode_index(), NUM_OPCODES - 1);
        assert!(Instr::GetStructureSeq {
            name: prolog_syntax::Interner::new().intern("f"),
            arity: 1,
            arg: 0,
            ops: empty,
        }
        .is_fused());
        assert!(!Instr::Fail.is_fused());
    }

    #[test]
    fn operands_keep_their_full_range_in_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<WamConst>(), 12);
        assert_eq!(std::mem::align_of::<WamConst>(), 4);
        for i in [0, 1, -1, 7, i64::MIN, i64::MAX, 1 << 40, -(1 << 40) + 3] {
            assert_eq!(WamInt::new(i).get(), i);
            assert_eq!(WamConst::int(i), WamConst::Int(WamInt::new(i)));
        }
        for (start, len) in [
            (0, 0),
            (5, 3),
            (70_000, 2),
            (u32::MAX as usize, Span::MAX_LEN),
        ] {
            let span = Span::new(start, len).unwrap();
            assert_eq!((span.start(), span.len()), (start, len));
        }
        assert_eq!(Span::new(0, Span::MAX_LEN + 1), None);
        assert_eq!(Span::new(u32::MAX as usize + 1, 0), None);
    }

    #[test]
    fn fused_expansion_and_display() {
        let mut interner = Interner::new();
        let f = Functor {
            name: interner.intern("foo"),
            arity: 2,
        };
        let mut program = CompiledProgram::empty(interner);
        program.pools.unify_ops = vec![
            UnifyOp::Variable(Slot::X(3)),
            UnifyOp::Constant(WamConst::int(7)),
        ];
        let fused = Instr::GetStructureSeq {
            name: f.name,
            arity: f.arity,
            arg: 0,
            ops: Span::new(0, 2).unwrap(),
        };
        assert_eq!(
            fused.expand(&program.pools),
            vec![
                Instr::GetStructure(f, 0),
                Instr::UnifyVariable(Slot::X(3)),
                Instr::UnifyConstant(WamConst::int(7)),
            ]
        );
        assert_eq!(
            fused.display(&program),
            "get_structure foo/2, A1 + unify_variable X4 + unify_constant 7"
        );
        // Plain instructions expand to themselves.
        assert_eq!(Instr::Proceed.expand(&program.pools), vec![Instr::Proceed]);
        // Round trip through UnifyOp is lossless.
        for op in [
            UnifyOp::Variable(Slot::Y(1)),
            UnifyOp::Value(Slot::X(0)),
            UnifyOp::Constant(WamConst::int(3)),
            UnifyOp::Void(2),
        ] {
            assert_eq!(UnifyOp::from_instr(op.to_instr()), Some(op));
            assert_eq!(op.opcode_index(), op.to_instr().opcode_index());
        }
    }

    #[test]
    fn slot_display_is_one_based() {
        assert_eq!(Slot::X(0).to_string(), "X1");
        assert_eq!(Slot::Y(2).to_string(), "Y3");
    }

    #[test]
    fn instruction_display() {
        let mut interner = Interner::new();
        let f = Functor {
            name: interner.intern("foo"),
            arity: 2,
        };
        let program = CompiledProgram::empty(interner);
        assert_eq!(
            Instr::GetStructure(f, 0).display(&program),
            "get_structure foo/2, A1"
        );
        assert_eq!(
            Instr::GetVariable(Slot::X(3), 1).display(&program),
            "get_variable X4, A2"
        );
        assert_eq!(
            Instr::UnifyConstant(WamConst::int(7)).display(&program),
            "unify_constant 7"
        );
    }
}
