//! Incremental re-analysis: clause-level edits with dependency-driven
//! extension-table invalidation.
//!
//! The extension table is a memo structure, and the machine records, for
//! every entry, which other entries its last exploration read
//! ([`ExtensionTable::deps`]). That makes the table *editable*: when a
//! clause changes, only the entries whose predicate changed — plus
//! everything that transitively depends on them through the reverse of
//! those edges — can be stale. Everything else is part of a converged
//! fixpoint whose inputs did not move, so it survives verbatim, and a
//! seeded worklist run ([`crate::machine::AbstractMachine::run_repair`])
//! re-derives just the invalidated cone. See DESIGN.md §3.10 for the
//! full algorithm and the correctness argument.
//!
//! Two layers build on [`migrate_parts`], the table-migration core:
//!
//! * [`Workspace`] — an owning source + analyzer + session bundle with
//!   [`Workspace::apply_edit`] / [`Workspace::update_source`] (the
//!   `awam watch` subcommand is a thin loop around it);
//! * the serve daemon's `update` protocol op, which migrates every
//!   parked warm session of a registered program in place.
//!
//! # Examples
//!
//! ```
//! use awam_core::incremental::{ProgramEdit, Workspace};
//!
//! let mut ws = Workspace::from_source(
//!     "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).",
//! )?;
//! ws.analyze("app", &["glist", "glist", "var"])?;
//! let stats = ws.apply_edit(&ProgramEdit::AddClause {
//!     clause: "app([a], L, [a|L]).".to_owned(),
//! })?;
//! assert_eq!(stats.entries_before, stats.entries_kept + stats.entries_reset);
//! ws.analyze("app", &["glist", "glist", "var"])?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::analyzer::{Analysis, Analyzer, AnalyzerBuilder, PredAnalysis};
use crate::machine::{AbstractMachine, AnalysisError};
use crate::session::{Session, SessionParts};
use crate::table::{Derivation, DerivationOrigin, ExtensionTable, LubStep};
use absdom::{PNode, Pattern, PatternId, SessionInterner};
use awam_obs::{InvalidationStats, MachineStats, OpcodeCounts};
use prolog_syntax::{
    parse_program, pretty, Clause, Interner, ParseError, PredKey, Program, Symbol, Term, VarId,
};
use std::collections::{HashSet, VecDeque};
use wam::CompileError;

/// A clause-level edit against a parsed program.
///
/// Edits are applied *textually*: the current program's clauses are
/// pretty-printed, the edit splices that clause list, and the result is
/// re-parsed as a whole — so the incremental path and a cold re-analysis
/// see byte-identical source, which is what makes the differential
/// oracle's byte-equality claim meaningful. Clause indices count within
/// the predicate, in source order, starting at 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramEdit {
    /// Append a clause (given as source text, e.g. `"p(a)."`) at the end
    /// of the program.
    AddClause {
        /// The clause source text, terminated with `.`.
        clause: String,
    },
    /// Remove the `clause`-th clause of `pred/arity`.
    RemoveClause {
        /// Predicate name.
        pred: String,
        /// Predicate arity.
        arity: usize,
        /// Clause index within the predicate (source order, 0-based).
        clause: usize,
    },
    /// Replace the `clause`-th clause of `pred/arity` with new text.
    ReplaceClause {
        /// Predicate name.
        pred: String,
        /// Predicate arity.
        arity: usize,
        /// Clause index within the predicate (source order, 0-based).
        clause: usize,
        /// Replacement clause source text, terminated with `.`.
        text: String,
    },
    /// Append a block of source text (one or more clauses, typically a
    /// whole new predicate) at the end of the program.
    AddPredicate {
        /// The source text to append.
        source: String,
    },
    /// Remove every clause of `pred/arity`.
    RemovePredicate {
        /// Predicate name.
        pred: String,
        /// Predicate arity.
        arity: usize,
    },
}

/// Why a [`ProgramEdit`] could not be applied to a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// The edit names a predicate the program does not define.
    UnknownPredicate {
        /// `name/arity` of the missing predicate.
        pred: String,
    },
    /// The edit names a clause index past the predicate's clause count.
    NoSuchClause {
        /// `name/arity` of the predicate.
        pred: String,
        /// The out-of-range clause index.
        clause: usize,
    },
    /// The program contains directives, which the textual splice cannot
    /// round-trip.
    Directives,
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::UnknownPredicate { pred } => {
                write!(f, "edit names unknown predicate {pred}")
            }
            EditError::NoSuchClause { pred, clause } => {
                write!(f, "{pred} has no clause {clause}")
            }
            EditError::Directives => {
                write!(f, "programs with directives cannot be edited clause-wise")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// Why an incremental update failed end to end.
#[derive(Debug)]
pub enum UpdateError {
    /// The edit did not apply to the current program.
    Edit(EditError),
    /// The edited source failed to parse.
    Parse(ParseError),
    /// The edited program failed to compile (e.g. a removed predicate is
    /// still called).
    Compile(CompileError),
    /// The seeded re-fixpoint hit a resource bound.
    Analysis(AnalysisError),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Edit(e) => write!(f, "{e}"),
            UpdateError::Parse(e) => write!(f, "parse error: {e}"),
            UpdateError::Compile(e) => write!(f, "compile error: {e}"),
            UpdateError::Analysis(e) => write!(f, "re-analysis error: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<EditError> for UpdateError {
    fn from(e: EditError) -> UpdateError {
        UpdateError::Edit(e)
    }
}

impl From<ParseError> for UpdateError {
    fn from(e: ParseError) -> UpdateError {
        UpdateError::Parse(e)
    }
}

impl From<CompileError> for UpdateError {
    fn from(e: CompileError) -> UpdateError {
        UpdateError::Compile(e)
    }
}

impl From<AnalysisError> for UpdateError {
    fn from(e: AnalysisError) -> UpdateError {
        UpdateError::Analysis(e)
    }
}

/// The pretty-printed clause list of `program`, one clause per element,
/// in source order.
fn clause_lines(program: &Program) -> Vec<String> {
    program
        .clauses
        .iter()
        .map(|c| pretty::clause_to_string(c, &program.interner))
        .collect()
}

/// Source-order indices of the clauses of `pred/arity` in `program`.
fn clause_indices(program: &Program, pred: &str, arity: usize) -> Vec<usize> {
    program
        .clauses
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            let key = c.pred_key();
            key.arity == arity && program.interner.resolve(key.name) == pred
        })
        .map(|(i, _)| i)
        .collect()
}

impl ProgramEdit {
    /// Apply this edit to `program`, producing the edited program's
    /// source text (pretty-printed, one clause per line).
    ///
    /// # Errors
    ///
    /// [`EditError`] when the named predicate/clause does not exist or
    /// the program carries directives.
    pub fn apply(&self, program: &Program) -> Result<String, EditError> {
        if !program.directives.is_empty() {
            return Err(EditError::Directives);
        }
        let mut lines = clause_lines(program);
        match self {
            ProgramEdit::AddClause { clause } => lines.push(clause.trim().to_owned()),
            ProgramEdit::AddPredicate { source } => lines.push(source.trim().to_owned()),
            ProgramEdit::RemoveClause {
                pred,
                arity,
                clause,
            } => {
                let idx = locate_clause(program, pred, *arity, *clause)?;
                lines.remove(idx);
            }
            ProgramEdit::ReplaceClause {
                pred,
                arity,
                clause,
                text,
            } => {
                let idx = locate_clause(program, pred, *arity, *clause)?;
                lines[idx] = text.trim().to_owned();
            }
            ProgramEdit::RemovePredicate { pred, arity } => {
                let indices = clause_indices(program, pred, *arity);
                if indices.is_empty() {
                    return Err(EditError::UnknownPredicate {
                        pred: format!("{pred}/{arity}"),
                    });
                }
                for idx in indices.into_iter().rev() {
                    lines.remove(idx);
                }
            }
        }
        let mut out = lines.join("\n");
        out.push('\n');
        Ok(out)
    }
}

/// Resolve `(pred, arity, clause)` to a global clause index.
fn locate_clause(
    program: &Program,
    pred: &str,
    arity: usize,
    clause: usize,
) -> Result<usize, EditError> {
    let indices = clause_indices(program, pred, arity);
    if indices.is_empty() {
        return Err(EditError::UnknownPredicate {
            pred: format!("{pred}/{arity}"),
        });
    }
    indices
        .get(clause)
        .copied()
        .ok_or_else(|| EditError::NoSuchClause {
            pred: format!("{pred}/{arity}"),
            clause,
        })
}

/// The predicate-level difference between two parsed programs. Two
/// predicates are the same when their clause lists are: equal in length
/// and clause by clause equal as terms, comparing symbols by name and
/// variables by the name the pretty-printer gives them. So whitespace
/// and comment changes produce an empty diff, as does a round trip
/// through [`ProgramEdit::apply`] (an anonymous `_` at variable *n*
/// prints as `_G<n>`), while renaming a variable is a change.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgramDiff {
    /// Predicates whose clause list differs between the two programs
    /// (edited, or newly added), as `(name, arity)`, sorted.
    pub changed: Vec<(String, usize)>,
    /// Predicates present in the old program but absent from the new
    /// one, as `(name, arity)`, sorted.
    pub removed: Vec<(String, usize)>,
}

/// An old→new symbol renumbering across an edit: entry `i` is the new
/// interner's symbol named like the old interner's symbol `i`, or `None`
/// when the new interner lacks the name. Built by name, once between the
/// parsed programs for the diff and once between the compiled programs
/// for the table migration; both then compare and rewrite symbols by
/// index.
struct SymbolMap(Vec<Option<Symbol>>);

impl SymbolMap {
    fn between(old: &Interner, new: &Interner) -> SymbolMap {
        SymbolMap(
            (0..old.len())
                .map(|i| new.lookup(old.resolve(Symbol::from_index(i))))
                .collect(),
        )
    }

    fn get(&self, old: Symbol) -> Option<Symbol> {
        self.0.get(old.index()).copied().flatten()
    }
}

/// A program's clause indices grouped by predicate and sorted by key;
/// each group keeps source order.
fn clause_groups(program: &Program) -> Vec<(PredKey, Vec<usize>)> {
    let mut groups = program.predicate_index();
    groups.sort_unstable_by_key(|&(key, _)| key);
    groups
}

/// Term equality across two programs, as their pretty-printed text
/// would compare.
struct SameText<'a> {
    symbols: &'a SymbolMap,
    old_vars: &'a [String],
    new_vars: &'a [String],
}

impl SameText<'_> {
    fn clauses(symbols: &SymbolMap, old: &Clause, new: &Clause) -> bool {
        let same = SameText {
            symbols,
            old_vars: &old.var_names,
            new_vars: &new.var_names,
        };
        same.terms(&old.head, &new.head) && same.terms(&old.body, &new.body)
    }

    fn terms(&self, old: &Term, new: &Term) -> bool {
        match (old, new) {
            (Term::Var(x), Term::Var(y)) => {
                match (var_name(self.old_vars, *x), var_name(self.new_vars, *y)) {
                    (Some(a), Some(b)) => a == b,
                    (None, None) => x == y,
                    (Some(name), None) => is_generated_name(name, *y),
                    (None, Some(name)) => is_generated_name(name, *x),
                }
            }
            (Term::Int(x), Term::Int(y)) => x == y,
            (Term::Atom(x), Term::Atom(y)) => self.symbols.get(*x) == Some(*y),
            (Term::Struct(f, xs), Term::Struct(g, ys)) => {
                self.symbols.get(*f) == Some(*g)
                    && xs.len() == ys.len()
                    && xs.iter().zip(ys).all(|(x, y)| self.terms(x, y))
            }
            _ => false,
        }
    }
}

/// The source name the pretty-printer gives variable `v`, or `None` when
/// it prints the generated `_G<v>` (anonymous or unnamed variables).
fn var_name(names: &[String], v: VarId) -> Option<&str> {
    names
        .get(v.index())
        .map(String::as_str)
        .filter(|name| *name != "_")
}

/// Whether `name` is exactly the generated name `_G<v>`.
fn is_generated_name(name: &str, v: VarId) -> bool {
    name.strip_prefix("_G").is_some_and(|digits| {
        digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'))
            && digits.parse::<u32>() == Ok(v.0)
    })
}

impl ProgramDiff {
    /// Diff `old` against `new` at the predicate level.
    pub fn between(old: &Program, new: &Program) -> ProgramDiff {
        let symbols = SymbolMap::between(&old.interner, &new.interner);
        let new_groups = clause_groups(new);
        let mut matched = vec![false; new_groups.len()];
        let mut changed = Vec::new();
        let mut removed = Vec::new();
        let name = |program: &Program, key: PredKey| {
            (program.interner.resolve(key.name).to_owned(), key.arity)
        };
        for (key, old_clauses) in clause_groups(old) {
            let found = symbols.get(key.name).and_then(|name| {
                let key = PredKey { name, ..key };
                new_groups.binary_search_by(|(k, _)| k.cmp(&key)).ok()
            });
            let Some(at) = found else {
                removed.push(name(old, key));
                continue;
            };
            matched[at] = true;
            let new_clauses = &new_groups[at].1;
            let same = old_clauses.len() == new_clauses.len()
                && old_clauses
                    .iter()
                    .zip(new_clauses)
                    .all(|(&a, &b)| SameText::clauses(&symbols, &old.clauses[a], &new.clauses[b]));
            if !same {
                changed.push(name(old, key));
            }
        }
        for ((key, _), _) in new_groups.iter().zip(&matched).filter(|(_, &m)| !m) {
            changed.push(name(new, *key));
        }
        changed.sort_unstable();
        removed.sort_unstable();
        ProgramDiff { changed, removed }
    }

    /// Whether the two programs have identical clause lists.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.removed.is_empty()
    }
}

/// How one pattern of the old session interner crosses an edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Carry {
    /// Not looked at yet.
    Unseen,
    /// Every symbol keeps its id: the pattern moves as it is.
    Same,
    /// Some symbol is renumbered: the pattern is rewritten.
    Renamed,
    /// Some symbol has no name in the new program.
    Gone,
    /// Interned into the new interner under this id.
    Done(PatternId),
}

/// The old session interner's patterns, carried into the new interner
/// through the [`SymbolMap`], each at most once. Renumbering symbols
/// keeps a canonical pattern canonical (the numbering is by position),
/// so no pattern is re-canonicalized; one whose symbols keep their ids
/// is interned by reference, copied only if the new arena lacks it.
struct PatternCarrier<'a> {
    old: &'a SessionInterner,
    symbols: &'a SymbolMap,
    carry: Vec<Carry>,
}

impl<'a> PatternCarrier<'a> {
    fn new(old: &'a SessionInterner, symbols: &'a SymbolMap) -> PatternCarrier<'a> {
        PatternCarrier {
            old,
            symbols,
            carry: vec![Carry::Unseen; old.len()],
        }
    }

    /// Whether the pattern survives the edit (all its symbols map).
    fn maps(&mut self, id: PatternId) -> bool {
        if self.carry[id.index()] == Carry::Unseen {
            let mut carry = Carry::Same;
            for node in self.old.resolve(id).nodes() {
                if let PNode::Atom(s) | PNode::Struct(s, _) = node {
                    match self.symbols.get(*s) {
                        None => {
                            carry = Carry::Gone;
                            break;
                        }
                        Some(t) if t != *s => carry = Carry::Renamed,
                        Some(_) => {}
                    }
                }
            }
            self.carry[id.index()] = carry;
        }
        self.carry[id.index()] != Carry::Gone
    }

    /// The new interner's id for an old pattern that [`Self::maps`].
    fn intern(&mut self, id: PatternId, new: &mut SessionInterner) -> PatternId {
        assert!(self.maps(id), "interning a pattern the edit removed");
        let new_id = match self.carry[id.index()] {
            Carry::Done(new_id) => return new_id,
            Carry::Same => new.intern_ref(self.old.resolve(id)),
            _ => {
                let old = self.old.resolve(id);
                let rename = |s| self.symbols.get(s).expect("checked by maps");
                let mut graph = old.clone().into_builder();
                for (n, &node) in old.nodes().iter().enumerate() {
                    match node {
                        PNode::Atom(s) => graph.set(n, PNode::Atom(rename(s))),
                        PNode::Struct(s, span) => graph.set(n, PNode::Struct(rename(s), span)),
                        _ => {}
                    }
                }
                new.intern(Pattern::from_canonical(graph))
            }
        };
        self.carry[id.index()] = Carry::Done(new_id);
        new_id
    }
}

/// Migrate a suspended session across a program edit: partition its
/// extension table into kept / reset / dropped entries, rebuild the
/// survivors against `new_analyzer`'s interners, and run a seeded
/// re-fixpoint from the reset frontier so the returned parts are
/// converged and safe to query.
///
/// The partition is computed from the recorded dependency edges: the
/// *stale* set is the reverse-transitive closure of every entry whose
/// predicate changed or vanished (aux `$`-predicates, whose numbering is
/// global across the compile, are conservatively treated as changed
/// whenever the diff is non-empty). Stale entries of surviving
/// predicates are reset to an unexplored state and re-derived; entries
/// of removed predicates (or whose patterns mention symbols absent from
/// the new program) are dropped.
///
/// # Errors
///
/// Propagates [`AnalysisError`] from the re-fixpoint (budget, iteration
/// bound). The session state is consumed either way — on error the
/// caller must discard it, exactly like a failed [`Session`] query.
pub fn migrate_parts(
    old_program: &Program,
    new_program: &Program,
    old_analyzer: &Analyzer,
    new_analyzer: &Analyzer,
    parts: SessionParts,
    budget: Option<u64>,
) -> Result<(SessionParts, InvalidationStats), AnalysisError> {
    let diff = ProgramDiff::between(old_program, new_program);
    migrate(&diff, old_analyzer, new_analyzer, parts, budget)
}

/// [`migrate_parts`] given the diff between the two parsed programs.
fn migrate(
    diff: &ProgramDiff,
    old_analyzer: &Analyzer,
    new_analyzer: &Analyzer,
    parts: SessionParts,
    budget: Option<u64>,
) -> Result<(SessionParts, InvalidationStats), AnalysisError> {
    let old_compiled = old_analyzer.program();
    let new_compiled = new_analyzer.program();
    let old_names = &old_compiled.interner;
    let symbols = SymbolMap::between(old_names, &new_compiled.interner);
    let (old_table, old_interner, session_stats) = parts.into_inner();

    let mut stats = InvalidationStats {
        entries_before: old_table.len() as u64,
        preds_changed: diff.changed.len() as u64,
        preds_removed: diff.removed.len() as u64,
        ..InvalidationStats::default()
    };

    // Classify every old predicate: its id in the new compiled program
    // (None = removed) and whether its clause list changed. Aux
    // predicates (`$dsj_N`, `$ite_N`) are numbered by one global counter
    // during WAM normalization, so any edit can shift which source
    // construct a given aux name denotes — treat them all as changed
    // whenever anything changed at all.
    let num_old_preds = old_compiled.predicates.len();
    let mut pred_map: Vec<Option<usize>> = Vec::with_capacity(num_old_preds);
    let mut pred_changed: Vec<bool> = Vec::with_capacity(num_old_preds);
    for entry in &old_compiled.predicates {
        let name = old_names.resolve(entry.key.name);
        let arity = entry.key.arity;
        pred_map.push(
            symbols
                .get(entry.key.name)
                .and_then(|name| new_compiled.pred_id(PredKey { name, arity })),
        );
        let changed = diff
            .changed
            .binary_search_by(|(n, a)| (n.as_str(), *a).cmp(&(name, arity)))
            .is_ok();
        pred_changed.push(changed || (!diff.is_empty() && name.starts_with('$')));
    }

    // Entries are numbered flat, predicate by predicate.
    let mut first: Vec<usize> = Vec::with_capacity(num_old_preds + 1);
    let mut keys: Vec<(usize, usize)> = Vec::with_capacity(old_table.len());
    for pred in 0..num_old_preds {
        first.push(keys.len());
        keys.extend((0..old_table.entries(pred).len()).map(|idx| (pred, idx)));
    }
    first.push(keys.len());
    let flat = |(pred, idx): (usize, usize)| first[pred] + idx;

    // Check every entry's patterns up front; a failure (vanished symbol)
    // marks the entry for dropping, and — like a removed predicate — it
    // must seed the stale closure so its dependents are reset.
    let mut carrier = PatternCarrier::new(&old_interner, &symbols);
    let mut dropped = vec![false; keys.len()];
    let mut stale = vec![false; keys.len()];
    let mut queue: Vec<usize> = Vec::new();
    for (f, &(pred, idx)) in keys.iter().enumerate() {
        let entry = old_table.entry(pred, idx);
        dropped[f] = pred_map[pred].is_none()
            || !carrier.maps(entry.call)
            || entry.success.is_some_and(|s| !carrier.maps(s));
        if dropped[f] || pred_changed[pred] {
            stale[f] = true;
            queue.push(f);
        }
    }

    // Reverse-transitive closure over the recorded dependency edges.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); keys.len()];
    for (f, &(pred, idx)) in keys.iter().enumerate() {
        for &dep in old_table.deps(pred, idx) {
            rev[flat(dep)].push(f);
        }
    }
    while let Some(f) = queue.pop() {
        for &d in &rev[f] {
            if !stale[d] {
                stale[d] = true;
                queue.push(d);
            }
        }
    }

    // Rebuild the table against the new analyzer: kept entries carry
    // their summaries; stale survivors are reset to unexplored (the
    // re-fixpoint frontier); dropped entries vanish.
    let mut new_interner = new_analyzer.new_session_interner();
    let mut new_table = ExtensionTable::new(new_compiled.predicates.len());
    if new_analyzer.provenance_enabled() {
        new_table.enable_provenance();
    }
    let mut index_map: Vec<Option<(usize, usize)>> = vec![None; keys.len()];
    let mut frontier: Vec<(usize, usize)> = Vec::new();
    let mut kept: Vec<usize> = Vec::new();
    for (f, &(pred, idx)) in keys.iter().enumerate() {
        let Some(new_pred) = pred_map[pred] else {
            stats.entries_dropped += 1;
            continue;
        };
        if dropped[f] {
            stats.entries_dropped += 1;
            continue;
        }
        let entry = old_table.entry(pred, idx);
        let call_id = carrier.intern(entry.call, &mut new_interner);
        let new_idx = if stale[f] {
            stats.entries_reset += 1;
            let new_idx = new_table.seed_entry(new_pred, call_id, None, 0);
            frontier.push((new_pred, new_idx));
            new_idx
        } else {
            stats.entries_kept += 1;
            let success_id = entry.success.map(|s| carrier.intern(s, &mut new_interner));
            kept.push(f);
            new_table.seed_entry(new_pred, call_id, success_id, 1)
        };
        index_map[f] = Some((new_pred, new_idx));
    }

    // Kept entries keep their dependency edges (remapped to new
    // indices) and their derivation records. A kept entry's targets are
    // all kept: anything depending on a stale or dropped entry is itself
    // stale by closure.
    for f in kept {
        let (pred, idx) = keys[f];
        let (new_pred, new_idx) = index_map[f].expect("kept entries are rebuilt");
        let deps: Vec<(usize, usize)> = old_table
            .deps(pred, idx)
            .iter()
            .filter_map(|&dep| index_map[flat(dep)])
            .collect();
        new_table.set_deps(new_pred, new_idx, deps);
        if let Some(derivation) = old_table.derivation(pred, idx) {
            let derivation =
                carry_derivation(derivation, &pred_map, &mut carrier, &mut new_interner);
            new_table.seed_derivation(new_pred, new_idx, derivation);
        }
    }
    stats.frontier = frontier.len() as u64;

    // Seed the repair worklist callees-first: a frontier entry whose
    // stale dependencies have already re-converged is explored against
    // their final summaries instead of being re-queued for every
    // upstream change. Post-order DFS over the recorded dependency
    // edges restricted to the stale set; back-edges from recursive
    // entries are skipped by the visited mark, so cycles degrade to
    // discovery order rather than looping.
    let frontier = {
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(frontier.len());
        let mut visited = vec![false; keys.len()];
        for start in 0..keys.len() {
            if !stale[start] || visited[start] {
                continue;
            }
            visited[start] = true;
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some((node, cursor)) = stack.last_mut() {
                let (pred, idx) = keys[*node];
                if let Some(&dep) = old_table.deps(pred, idx).get(*cursor) {
                    *cursor += 1;
                    let child = flat(dep);
                    if stale[child] && !visited[child] {
                        visited[child] = true;
                        stack.push((child, 0));
                    }
                } else {
                    order.extend(index_map[*node]);
                    stack.pop();
                }
            }
        }
        order
    };

    // Seeded re-fixpoint from the frontier: reset entries re-derive
    // their summaries, reading kept entries' summaries as-is; growth
    // propagates along freshly recorded reverse edges.
    let mut machine = AbstractMachine::with_table(
        new_compiled,
        new_analyzer.depth_k(),
        new_table,
        new_interner,
    );
    machine.set_domain_config(new_analyzer.domain_config());
    machine.set_strategy(new_analyzer.iteration_strategy());
    machine.set_step_budget(budget);
    stats.refix_explorations = machine.run_repair(&frontier)?;
    stats.refix_instructions = machine.exec_count();
    let (table, interner) = machine.into_parts();
    Ok((
        SessionParts::from_inner(table, interner, session_stats),
        stats,
    ))
}

/// Carry a kept entry's derivation record across the migration,
/// remapping predicate ids and patterns; fields that reference vanished
/// predicates or symbols degrade to `None`/empty rather than dropping
/// the whole record.
fn carry_derivation(
    derivation: &Derivation,
    pred_map: &[Option<usize>],
    carrier: &mut PatternCarrier<'_>,
    new_interner: &mut SessionInterner,
) -> Derivation {
    let origin = derivation.origin.and_then(|o| {
        pred_map
            .get(o.pred)
            .copied()
            .flatten()
            .map(|pred| DerivationOrigin {
                pred,
                clause: o.clause,
            })
    });
    let parent_call = derivation
        .parent_call
        .filter(|&id| carrier.maps(id))
        .map(|id| carrier.intern(id, new_interner));
    let mut lub_steps = Vec::with_capacity(derivation.lub_steps.len());
    for step in &derivation.lub_steps {
        if !(carrier.maps(step.input) && carrier.maps(step.result)) {
            lub_steps.clear();
            break;
        }
        lub_steps.push(LubStep {
            clause: step.clause,
            iter: step.iter,
            input: carrier.intern(step.input, new_interner),
            result: carrier.intern(step.result, new_interner),
        });
    }
    Derivation {
        origin,
        created_iter: derivation.created_iter,
        parent_call,
        lub_steps,
    }
}

/// An owning incremental-analysis workspace: source text, its parsed and
/// compiled forms, and a persistent session that survives edits.
///
/// Unlike [`Session`], which borrows its analyzer, a workspace owns the
/// whole chain — so [`Workspace::apply_edit`] / [`Workspace::update_source`]
/// can swap in a newly compiled analyzer and migrate the memo table in
/// place. This is the engine behind `awam watch`.
#[derive(Debug)]
pub struct Workspace {
    builder: AnalyzerBuilder,
    source: String,
    program: Program,
    analyzer: Analyzer,
    parts: Option<SessionParts>,
    budget: Option<u64>,
    last_invalidation: InvalidationStats,
}

impl Workspace {
    /// Open a workspace on `source` with the paper's default analyzer
    /// settings.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Parse`] / [`UpdateError::Compile`].
    pub fn from_source(source: &str) -> Result<Workspace, UpdateError> {
        Workspace::with_builder(AnalyzerBuilder::default(), source)
    }

    /// Open a workspace on `source` with explicit analyzer settings.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Parse`] / [`UpdateError::Compile`].
    pub fn with_builder(builder: AnalyzerBuilder, source: &str) -> Result<Workspace, UpdateError> {
        let program = parse_program(source)?;
        let analyzer = builder.compile(&program)?;
        let budget = analyzer.configured_step_budget();
        Ok(Workspace {
            builder,
            source: source.to_owned(),
            program,
            analyzer,
            parts: None,
            budget,
            last_invalidation: InvalidationStats::default(),
        })
    }

    /// The current source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The current parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The current compiled analyzer.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The invalidation counters of the most recent edit (all-default
    /// until the first edit).
    pub fn last_invalidation(&self) -> InvalidationStats {
        self.last_invalidation
    }

    /// Number of memo entries currently held by the workspace session.
    pub fn memo_len(&self) -> usize {
        self.parts.as_ref().map_or(0, SessionParts::memo_len)
    }

    /// Cap subsequent fixpoint and re-fixpoint runs at `budget` abstract
    /// instructions (`None` = the analyzer's configured budget).
    pub fn set_step_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// Analyze `name` with an entry pattern given as spec strings,
    /// through the workspace's persistent session (so repeat queries hit
    /// the memo table).
    ///
    /// # Errors
    ///
    /// Same as [`Session::analyze_query`].
    pub fn analyze(&mut self, name: &str, specs: &[&str]) -> Result<Analysis, AnalysisError> {
        let parts = self
            .parts
            .take()
            .unwrap_or_else(|| Session::new(&self.analyzer).into_parts());
        let mut session = Session::resume(&self.analyzer, parts);
        session.set_step_budget(self.budget);
        let result = session.analyze_query(name, specs);
        self.parts = Some(session.into_parts());
        result
    }

    /// Apply a clause-level edit: splice the clause list, re-parse, and
    /// migrate the session table (see [`migrate_parts`]). Returns the
    /// invalidation counters.
    ///
    /// # Errors
    ///
    /// [`UpdateError`]; on a re-fixpoint resource error the memo table
    /// is discarded (the workspace stays on the pre-edit program with an
    /// empty session, like a failed [`Session`] query).
    pub fn apply_edit(&mut self, edit: &ProgramEdit) -> Result<InvalidationStats, UpdateError> {
        let new_source = edit.apply(&self.program)?;
        self.update_source(&new_source)
    }

    /// Replace the whole source text, diffing against the current
    /// program and migrating the session table across the change. A
    /// clause-identical replacement (whitespace, comments) is a no-op:
    /// the memo table and compiled analyzer are untouched and the
    /// returned counters show zero invalidations.
    ///
    /// # Errors
    ///
    /// Same as [`Workspace::apply_edit`].
    pub fn update_source(&mut self, new_source: &str) -> Result<InvalidationStats, UpdateError> {
        let new_program = parse_program(new_source)?;
        let diff = ProgramDiff::between(&self.program, &new_program);
        if diff.is_empty() {
            let memo = self.memo_len() as u64;
            let stats = InvalidationStats {
                entries_before: memo,
                entries_kept: memo,
                ..InvalidationStats::default()
            };
            self.source = new_source.to_owned();
            self.program = new_program;
            self.last_invalidation = stats;
            return Ok(stats);
        }
        let new_analyzer = self.builder.compile(&new_program)?;
        let stats = match self.parts.take() {
            Some(parts) => {
                match migrate(&diff, &self.analyzer, &new_analyzer, parts, self.budget) {
                    Ok((parts, stats)) => {
                        self.parts = Some(parts);
                        stats
                    }
                    Err(e) => return Err(UpdateError::Analysis(e)),
                }
            }
            None => InvalidationStats {
                preds_changed: diff.changed.len() as u64,
                preds_removed: diff.removed.len() as u64,
                ..InvalidationStats::default()
            },
        };
        self.source = new_source.to_owned();
        self.program = new_program;
        self.analyzer = new_analyzer;
        self.last_invalidation = stats;
        Ok(stats)
    }

    /// Canonical serialization of the goal-reachable core of the
    /// session table: the entries reachable from the goal's entry along
    /// recorded dependency edges, one sorted line per entry
    /// (`name/arity call -> success`). Runs the query first (a memo hit
    /// when already analyzed), so the root entry exists.
    ///
    /// Incremental and cold tables can differ in transient entries
    /// (abandoned calling patterns from earlier fixpoint rounds or
    /// pre-edit exploration) and insertion order; the reachable core is
    /// the part that answers queries, and it is byte-identical between
    /// the two — the differential oracle's equality claim.
    ///
    /// # Errors
    ///
    /// Same as [`Workspace::analyze`].
    pub fn core_dump(&mut self, name: &str, specs: &[&str]) -> Result<String, AnalysisError> {
        let core = self.core_entries(name, specs)?;
        let interner = self.analyzer.interner();
        let parts = self.parts.as_ref().expect("analyze populated the session");
        let mut lines: Vec<String> = core
            .iter()
            .map(|&(pred, idx)| {
                let entry = parts.table().entry(pred, idx);
                let key = &self.analyzer.program().predicates[pred].key;
                let call = parts.interner().resolve(entry.call).display(interner);
                let success = entry
                    .success
                    .map(|s| parts.interner().resolve(s).display(interner))
                    .unwrap_or_else(|| "fail".to_owned());
                format!("{} {} -> {}", key.display(interner), call, success)
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        out.push('\n');
        Ok(out)
    }

    /// The human-readable report rendered from the goal-reachable core
    /// only (synthetic zeroed counters, entries sorted canonically), so
    /// incremental and cold sessions produce byte-identical text. See
    /// [`Workspace::core_dump`].
    ///
    /// # Errors
    ///
    /// Same as [`Workspace::analyze`].
    pub fn core_report(&mut self, name: &str, specs: &[&str]) -> Result<String, AnalysisError> {
        let core = self.core_entries(name, specs)?;
        let reachable: HashSet<(usize, usize)> = core.into_iter().collect();
        let parts = self.parts.as_ref().expect("analyze populated the session");
        let compiled = self.analyzer.program();
        let mut predicates = Vec::new();
        for (pred, entry) in compiled.predicates.iter().enumerate() {
            let mut entries: Vec<(Pattern, Option<Pattern>)> = parts
                .table()
                .entries(pred)
                .iter()
                .enumerate()
                .filter(|&(idx, _)| reachable.contains(&(pred, idx)))
                .map(|(_, e)| {
                    (
                        parts.interner().resolve(e.call).clone(),
                        e.success.map(|s| parts.interner().resolve(s).clone()),
                    )
                })
                .collect();
            entries.sort_by_key(|(call, _)| call.display(&compiled.interner));
            if !entries.is_empty() {
                predicates.push(PredAnalysis {
                    name: entry.key.display(&compiled.interner),
                    pred,
                    arity: entry.key.arity,
                    entries,
                });
            }
        }
        let analysis = Analysis {
            predicates,
            iterations: 0,
            instructions_executed: 0,
            table_stats: Default::default(),
            intern_stats: Default::default(),
            machine_stats: MachineStats::default(),
            opcodes: OpcodeCounts::new(wam::OPCODE_NAMES.len()),
            analyze_ns: 0,
            provenance: None,
            profile: None,
        };
        Ok(crate::report::render(&analysis, self.analyzer.interner()))
    }

    /// The `(pred, entry index)` set reachable from the goal's entry via
    /// recorded dependency edges (the goal entry included), after
    /// ensuring the goal has been analyzed.
    fn core_entries(
        &mut self,
        name: &str,
        specs: &[&str],
    ) -> Result<Vec<(usize, usize)>, AnalysisError> {
        self.analyze(name, specs)?;
        let entry =
            Pattern::from_spec(specs).ok_or_else(|| AnalysisError::BadSpec(specs.join(", ")))?;
        let (pred, entry) = self.analyzer.resolve_entry(name, &entry)?;
        let parts = self.parts.as_mut().expect("analyze populated the session");
        let entry_id = parts.interner_mut().intern(entry.clone());
        let root_idx = match parts.table().find_quiet(pred, entry_id) {
            Some(idx) => idx,
            // A memo hit can be answered by a *subsuming* entry without
            // the exact pattern existing; root there.
            None => parts
                .find_subsuming(pred, entry_id)
                .expect("analyze ensured a covering entry exists"),
        };
        let table = parts.table();
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        seen.insert((pred, root_idx));
        queue.push_back((pred, root_idx));
        while let Some((p, i)) = queue.pop_front() {
            for &dep in table.deps(p, i) {
                if seen.insert(dep) {
                    queue.push_back(dep);
                }
            }
        }
        let mut core: Vec<(usize, usize)> = seen.into_iter().collect();
        core.sort_unstable();
        Ok(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const APP: &str = "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n";

    #[test]
    fn noop_edit_keeps_everything() {
        let mut ws = Workspace::from_source(APP).unwrap();
        ws.analyze("app", &["glist", "glist", "var"]).unwrap();
        let before = ws.memo_len();
        assert!(before > 0);
        // Same clauses, different whitespace: empty diff, no recompile.
        let stats = ws.update_source(&APP.replace('\n', "\n\n")).unwrap();
        assert_eq!(stats.entries_before, before as u64);
        assert_eq!(stats.entries_kept, before as u64);
        assert_eq!(stats.entries_reset, 0);
        assert_eq!(stats.entries_dropped, 0);
        assert_eq!(stats.frontier, 0);
        assert_eq!(stats.refix_explorations, 0);
        assert_eq!(ws.memo_len(), before);
    }

    #[test]
    fn edit_invalidates_and_reconverges() {
        let mut ws = Workspace::from_source(APP).unwrap();
        let cold = ws.analyze("app", &["glist", "glist", "var"]).unwrap();
        assert!(cold.iterations > 0);
        let stats = ws
            .apply_edit(&ProgramEdit::AddClause {
                clause: "app([a], L, [a|L]).".to_owned(),
            })
            .unwrap();
        assert!(stats.entries_reset > 0, "app changed: its entries reset");
        assert_eq!(
            stats.entries_before,
            stats.entries_kept + stats.entries_reset + stats.entries_dropped
        );
        // The repaired table answers without a fixpoint run and matches
        // a cold analysis of the edited source.
        let warm = ws.analyze("app", &["glist", "glist", "var"]).unwrap();
        assert_eq!(warm.iterations, 0, "repair left a converged table");
        let mut cold_ws = Workspace::from_source(ws.source()).unwrap();
        assert_eq!(
            ws.core_dump("app", &["glist", "glist", "var"]).unwrap(),
            cold_ws
                .core_dump("app", &["glist", "glist", "var"])
                .unwrap()
        );
        assert_eq!(
            ws.core_report("app", &["glist", "glist", "var"]).unwrap(),
            cold_ws
                .core_report("app", &["glist", "glist", "var"])
                .unwrap()
        );
    }

    #[test]
    fn remove_predicate_drops_its_entries() {
        let src = "p(X) :- q(X).\nq(a).\nr(b).\n";
        let mut ws = Workspace::from_source(src).unwrap();
        ws.analyze("p", &["any"]).unwrap();
        ws.analyze("r", &["any"]).unwrap();
        let stats = ws
            .apply_edit(&ProgramEdit::RemovePredicate {
                pred: "p".to_owned(),
                arity: 1,
            })
            .unwrap();
        assert!(stats.entries_dropped > 0, "p's entries vanish");
        // r was untouched: still answered warm.
        let warm = ws.analyze("r", &["any"]).unwrap();
        assert_eq!(warm.iterations, 0);
        assert!(ws.analyze("p", &["any"]).is_err(), "p is gone");
    }

    #[test]
    fn bad_edits_are_reported() {
        let program = parse_program(APP).unwrap();
        let missing = ProgramEdit::RemoveClause {
            pred: "nope".to_owned(),
            arity: 3,
            clause: 0,
        };
        assert!(matches!(
            missing.apply(&program),
            Err(EditError::UnknownPredicate { .. })
        ));
        let out_of_range = ProgramEdit::ReplaceClause {
            pred: "app".to_owned(),
            arity: 3,
            clause: 7,
            text: "app(X, Y, Z).".to_owned(),
        };
        assert!(matches!(
            out_of_range.apply(&program),
            Err(EditError::NoSuchClause { .. })
        ));
    }

    #[test]
    fn edit_after_a_renumbering_reparse_matches_cold() {
        // Reordering the predicates is an empty diff, so the workspace
        // keeps its analyzer; but the reparse numbers symbols differently
        // (`q` now has `p`'s old number), and the next edit must still
        // carry the table across by name.
        let mut ws = Workspace::from_source("p(a).\nq(f(b)).\n").unwrap();
        ws.analyze("p", &["any"]).unwrap();
        ws.analyze("q", &["any"]).unwrap();
        let reordered = "q(f(b)).\np(a).\n";
        assert_eq!(ws.update_source(reordered).unwrap().entries_kept, 2);
        let stats = ws.update_source(&format!("{reordered}s.\n")).unwrap();
        assert_eq!((stats.entries_kept, stats.entries_reset), (2, 0));
        let mut cold = Workspace::from_source(ws.source()).unwrap();
        for pred in ["p", "q"] {
            assert_eq!(
                ws.core_dump(pred, &["any"]).unwrap(),
                cold.core_dump(pred, &["any"]).unwrap()
            );
        }
    }

    #[test]
    fn diff_sees_through_whitespace() {
        let a = parse_program("p(a).  p(b).\nq(X) :- p(X).").unwrap();
        let b = parse_program("p(a).\np(b).\n\nq(X) :- p(X).").unwrap();
        assert!(ProgramDiff::between(&a, &b).is_empty());
        let c = parse_program("p(a).\nq(X) :- p(X).").unwrap();
        let diff = ProgramDiff::between(&a, &c);
        assert_eq!(diff.changed, vec![("p".to_owned(), 1)]);
        assert!(diff.removed.is_empty());
    }
}
