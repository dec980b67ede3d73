//! Top-level compilation: normalize, classify, generate and link.

use crate::codegen::{compile_clause, CodegenError};
use crate::index::{emit_predicate, first_arg_class, FirstArg};
use crate::instr::{CodeAddr, Functor, Instr, Slot, Span, TermSwitch, UnifyOp, WamConst};
use crate::norm::{normalize_program, NormError};
use prolog_syntax::{Interner, PredKey, Program};
use std::collections::HashMap;
use std::fmt;

/// Index of a predicate in [`CompiledProgram::predicates`].
pub type PredId = usize;

/// An error produced by [`compile_program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// Clause normalization failed.
    Norm(NormError),
    /// Code generation failed.
    Codegen(CodegenError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Norm(e) => write!(f, "{e}"),
            CompileError::Codegen(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Norm(e) => Some(e),
            CompileError::Codegen(e) => Some(e),
        }
    }
}

impl From<NormError> for CompileError {
    fn from(e: NormError) -> Self {
        CompileError::Norm(e)
    }
}

impl From<CodegenError> for CompileError {
    fn from(e: CodegenError) -> Self {
        CompileError::Codegen(e)
    }
}

/// One predicate in the compiled code area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredEntry {
    /// The predicate's name/arity.
    pub key: PredKey,
    /// Entry address used by the concrete machine (indexing included).
    pub entry: CodeAddr,
    /// This predicate's run of [`CompiledProgram::clauses`]: its first
    /// index and length.
    first_clause: u32,
    num_clauses: u32,
}

impl PredEntry {
    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses as usize
    }

    fn clause_range(&self) -> std::ops::Range<usize> {
        let start = self.first_clause as usize;
        start..start + self.num_clauses()
    }
}

/// The operand pools of a code area: every operand run whose length
/// varies, one pool per operand kind, so that each [`Instr`] stays 16
/// bytes and names its run by a [`Span`] (or, for `switch_on_term`, an
/// index). Each pool is laid out in code order, so two equal programs
/// have equal pools. Only the compiler, the fusion pass and the `.wam`
/// loader add runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodePools {
    /// The `unify_*` runs of [`Instr::GetStructureSeq`] and
    /// [`Instr::GetListSeq`].
    pub(crate) unify_ops: Vec<UnifyOp>,
    /// The `put_value` moves of [`Instr::PutValueSeq`].
    pub(crate) moves: Vec<(Slot, u16)>,
    /// The targets of every [`Instr::SwitchOnTerm`].
    pub(crate) term_switches: Vec<TermSwitch>,
    /// The tables of [`Instr::SwitchOnConstant`].
    pub(crate) const_cases: Vec<(WamConst, CodeAddr)>,
    /// The tables of [`Instr::SwitchOnStructure`].
    pub(crate) struct_cases: Vec<(Functor, CodeAddr)>,
}

/// Append `items` to `pool` (one of a program's [`CodePools`]) as one
/// run. `None`, with `pool` unchanged, when the run is longer than
/// [`Span::MAX_LEN`] or would start past `u32::MAX`.
pub(crate) fn push_run<T>(pool: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> Option<Span> {
    let start = pool.len();
    pool.extend(items);
    let span = Span::new(start, pool.len() - start);
    if span.is_none() {
        pool.truncate(start);
    }
    span
}

impl CodePools {
    /// The `unify_*` run `span` names.
    pub fn unify_run(&self, span: Span) -> &[UnifyOp] {
        &self.unify_ops[span.range()]
    }

    /// The `put_value` moves `span` names.
    pub fn move_run(&self, span: Span) -> &[(Slot, u16)] {
        &self.moves[span.range()]
    }

    /// The `switch_on_constant` table `span` names.
    pub fn const_table(&self, span: Span) -> &[(WamConst, CodeAddr)] {
        &self.const_cases[span.range()]
    }

    /// The `switch_on_structure` table `span` names.
    pub fn struct_table(&self, span: Span) -> &[(Functor, CodeAddr)] {
        &self.struct_cases[span.range()]
    }

    /// The `switch_on_term` targets at `index`.
    pub fn term_switch(&self, index: u32) -> TermSwitch {
        self.term_switches[index as usize]
    }

    /// Append a `switch_on_term`'s targets; returns their index.
    pub(crate) fn push_term_switch(&mut self, targets: TermSwitch) -> u32 {
        let index = u32::try_from(self.term_switches.len()).expect("under 4 Gi switches");
        self.term_switches.push(targets);
        index
    }

    /// Every code address the pools hold, for rewriting.
    pub(crate) fn addrs_mut(&mut self) -> impl Iterator<Item = &mut CodeAddr> {
        self.term_switches
            .iter_mut()
            .flat_map(|t| [&mut t.var, &mut t.con, &mut t.lis, &mut t.str_])
            .chain(self.const_cases.iter_mut().map(|(_, l)| l))
            .chain(self.struct_cases.iter_mut().map(|(_, l)| l))
    }

    fn shrink_to_fit(&mut self) {
        self.unify_ops.shrink_to_fit();
        self.moves.shrink_to_fit();
        self.term_switches.shrink_to_fit();
        self.const_cases.shrink_to_fit();
        self.struct_cases.shrink_to_fit();
    }
}

/// A compiled program: one flat code area with its operand pools, plus
/// the predicate table.
///
/// The same `CompiledProgram` is executed by the concrete machine
/// (`wam-machine`) and reinterpreted by the abstract analyzer
/// (`awam-core`).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The instruction area.
    pub code: Vec<Instr>,
    /// The variable-length operands the instructions name.
    pub pools: CodePools,
    /// Predicate table; [`Instr::Call`]/[`Instr::Execute`] operands index
    /// into it.
    pub predicates: Vec<PredEntry>,
    /// Every predicate's clause entry addresses, predicate after
    /// predicate in table order; each [`PredEntry`] names its run.
    pub(crate) clause_entries: Vec<CodeAddr>,
    /// Predicate ids sorted by key, for [`CompiledProgram::predicate`]
    /// and [`CompiledProgram::pred_id`].
    pred_index: Vec<u32>,
    /// Interner covering every symbol in the code (including auxiliary
    /// predicates invented during normalization).
    pub interner: Interner,
}

impl CompiledProgram {
    /// A program with no code and no predicates over `interner`.
    pub(crate) fn empty(interner: Interner) -> CompiledProgram {
        CompiledProgram {
            code: Vec::new(),
            pools: CodePools::default(),
            predicates: Vec::new(),
            clause_entries: Vec::new(),
            pred_index: Vec::new(),
            interner,
        }
    }

    /// Append a predicate to the table: its key, entry address and
    /// per-clause body entry addresses in source order. Returns its id,
    /// or `None` (table unchanged) when `key` is already in the table.
    pub(crate) fn add_predicate(
        &mut self,
        key: PredKey,
        entry: CodeAddr,
        clauses: &[CodeAddr],
    ) -> Option<PredId> {
        let at = self
            .pred_index
            .partition_point(|&id| self.predicates[id as usize].key < key);
        if self
            .pred_index
            .get(at)
            .is_some_and(|&id| self.predicates[id as usize].key == key)
        {
            return None;
        }
        let id = self.predicates.len();
        let count = |n: usize| u32::try_from(n).expect("under 4 Gi clauses");
        self.predicates.push(PredEntry {
            key,
            entry,
            first_clause: count(self.clause_entries.len()),
            num_clauses: count(clauses.len()),
        });
        self.clause_entries.extend_from_slice(clauses);
        self.pred_index.insert(at, count(id));
        Some(id)
    }

    /// The clause body entry addresses of predicate `pred`, in source
    /// order; the abstract machine's `call` reinterpretation iterates
    /// these directly.
    pub fn clauses(&self, pred: PredId) -> &[CodeAddr] {
        &self.clause_entries[self.predicates[pred].clause_range()]
    }

    /// Look up a predicate by key.
    pub fn pred_id(&self, key: PredKey) -> Option<PredId> {
        self.pred_index
            .binary_search_by(|&id| self.predicates[id as usize].key.cmp(&key))
            .ok()
            .map(|at| self.pred_index[at] as usize)
    }

    /// Look up a predicate by source name and arity.
    pub fn predicate(&self, name: &str, arity: usize) -> Option<PredId> {
        let name = self.interner.lookup(name)?;
        self.pred_id(PredKey { name, arity })
    }

    /// Static code size in instructions (the `Size` column of Table 1).
    pub fn code_size(&self) -> usize {
        self.code.len()
    }

    /// Release every spare capacity: the code area, its pools, the
    /// predicate table and the symbol table end at exact size.
    pub fn shrink_to_fit(&mut self) {
        self.code.shrink_to_fit();
        self.pools.shrink_to_fit();
        self.predicates.shrink_to_fit();
        self.clause_entries.shrink_to_fit();
        self.pred_index.shrink_to_fit();
        self.interner.shrink_to_fit();
    }

    /// A human-readable assembly listing.
    pub fn listing(&self) -> String {
        let mut starts: HashMap<CodeAddr, String> = HashMap::new();
        for (id, pred) in self.predicates.iter().enumerate() {
            let min = self
                .clauses(id)
                .iter()
                .copied()
                .chain([pred.entry])
                .min()
                .expect("non-empty");
            starts.insert(min, pred.key.display(&self.interner));
        }
        let mut out = String::new();
        for (addr, instr) in self.code.iter().enumerate() {
            if let Some(name) = starts.get(&(addr as CodeAddr)) {
                out.push_str(&format!("\n{name}:\n"));
            }
            out.push_str(&format!("  {addr:4}  {}\n", instr.display(self)));
        }
        out
    }
}

/// Compile a parsed program to WAM code.
///
/// # Errors
///
/// Returns [`CompileError`] for non-callable goals, calls to undefined
/// predicates, and clauses that need more than
/// [`crate::NUM_REGISTERS`] registers.
///
/// # Examples
///
/// ```
/// let program = prolog_syntax::parse_program("p(0). p(s(X)) :- p(X).")?;
/// let compiled = wam::compile_program(&program)?;
/// assert!(compiled.predicate("p", 1).is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile_program(program: &Program) -> Result<CompiledProgram, CompileError> {
    let norm = normalize_program(program)?;
    // The compiler's own lookup while it compiles; the program keeps a
    // sorted index instead.
    let resolve: HashMap<PredKey, PredId> = norm
        .predicates
        .iter()
        .enumerate()
        .map(|(i, (key, _))| (*key, i))
        .collect();
    let mut compiled = CompiledProgram::empty(norm.interner);
    for (key, clauses) in &norm.predicates {
        let blocks: Vec<Vec<Instr>> = clauses
            .iter()
            .map(|c| compile_clause(c, &resolve, &compiled.interner))
            .collect::<Result<_, _>>()?;
        let first_args: Vec<FirstArg> = clauses
            .iter()
            .map(|c| first_arg_class(c, &compiled.interner))
            .collect();
        let pc = emit_predicate(&mut compiled.code, &mut compiled.pools, blocks, &first_args);
        compiled
            .add_predicate(*key, pc.entry, &pc.clause_entries)
            .expect("normalization groups clauses by predicate");
    }
    // Collapse hot instruction runs into superinstructions (see
    // `crate::fuse`). Analyses that want the plain stream back call
    // `fuse::unfuse_program` — the exact inverse.
    crate::fuse::fuse_program(&mut compiled);
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prolog_syntax::parse_program;

    fn compile(src: &str) -> CompiledProgram {
        compile_program(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn append_compiles() {
        let c = compile("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).");
        assert_eq!(c.predicates.len(), 1);
        let p = c.predicate("app", 3).unwrap();
        assert_eq!(c.predicates[p].num_clauses(), 2);
        assert!(c.code_size() > 5);
    }

    #[test]
    fn recursive_call_resolves_to_self() {
        let c = compile("loop(X) :- loop(X).");
        let p = c.predicate("loop", 1).unwrap();
        assert!(c
            .code
            .iter()
            .any(|i| matches!(i, Instr::Execute(t) if *t as usize == p)));
    }

    #[test]
    fn undefined_predicate_reported() {
        let program = parse_program("p :- missing(1).").unwrap();
        let err = compile_program(&program).unwrap_err();
        assert!(matches!(err, CompileError::Codegen(_)));
        assert!(err.to_string().contains("missing/1"));
    }

    #[test]
    fn aux_predicates_compiled_too() {
        let c = compile("p(X) :- (q(X) ; r(X)). q(1). r(2).");
        assert_eq!(c.predicates.len(), 4);
        // The aux predicate must be reachable via a call from p/1.
        let p = c.predicate("p", 1).unwrap();
        let entry = c.predicates[p].entry;
        let has_call = c.code[entry as usize..]
            .iter()
            .take(10)
            .any(|i| matches!(i, Instr::Call(_) | Instr::Execute(_)));
        assert!(has_call);
    }

    #[test]
    fn listing_renders() {
        let c = compile("nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R). app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).");
        let listing = c.listing();
        assert!(listing.contains("nrev/2:"), "{listing}");
        assert!(listing.contains("app/3:"), "{listing}");
        assert!(listing.contains("switch_on_term"), "{listing}");
    }

    #[test]
    fn clauses_and_lookups_read_the_flat_table() {
        let c = compile("b(1). b(2). a. b(3) :- a. c(X, Y) :- b(X), b(Y).");
        let keys: Vec<String> = c
            .predicates
            .iter()
            .map(|p| p.key.display(&c.interner))
            .collect();
        assert_eq!(keys, ["b/1", "a/0", "c/2"], "table keeps source order");
        for (id, p) in c.predicates.iter().enumerate() {
            assert_eq!(c.clauses(id).len(), p.num_clauses());
            assert_eq!(c.predicate(&keys[id][..1], p.key.arity), Some(id));
            assert_eq!(c.pred_id(p.key), Some(id));
        }
        assert_eq!(c.clauses(0).len(), 3);
        assert_eq!(c.predicate("b", 2), None);
        assert_eq!(c.predicate("nosuch", 0), None);
        let mut twice = c.clone();
        let key = twice.predicates[0].key;
        assert_eq!(twice.add_predicate(key, 0, &[0]), None);
        assert_eq!(twice.predicates.len(), 3);
    }

    #[test]
    fn clauses_needing_too_many_registers_are_refused() {
        let n = crate::NUM_REGISTERS;
        let args: Vec<String> = (0..=n).map(|i| format!("X{i}")).collect();
        let items: Vec<String> = (0..=n).map(|i| i.to_string()).collect();
        for src in [
            format!("p({}).", args.join(", ")),
            format!("p([{}]).", items.join(", ")),
        ] {
            let err = compile_program(&parse_program(&src).unwrap()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CompileError::Codegen(CodegenError::TooManyRegisters { needed, .. }) if needed > n
                ),
                "{err}"
            );
        }
        // Exactly the limit compiles.
        let fits: Vec<String> = (0..n).map(|i| format!("X{i}")).collect();
        assert!(
            compile_program(&parse_program(&format!("p({}).", fits.join(", "))).unwrap()).is_ok()
        );
    }

    #[test]
    fn code_size_counts_instructions() {
        let c = compile("p(a).");
        assert_eq!(c.code_size(), c.code.len());
    }
}
