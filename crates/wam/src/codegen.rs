//! Per-clause instruction selection.
//!
//! Head arguments compile to `get_*`/`unify_*` sequences in breadth-first
//! order (exactly the Figure 2 shape from the paper: nested structures are
//! deferred through fresh X registers). Body goal arguments compile
//! bottom-up with `put_*`/`unify_*` (children built into scratch registers
//! before their parent). Last-call optimization turns a final user call
//! into `execute`; clauses that need no continuation save get no
//! environment.

use crate::classify::{classify, Classified};
use crate::instr::{Functor, Instr, Slot, WamConst};
use crate::norm::{Goal, NormClause};
use prolog_syntax::{PredKey, Term, VarId};
use std::collections::HashMap;
use std::collections::HashSet;
use std::collections::VecDeque;

/// An error produced during code generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodegenError {
    /// A goal calls a predicate with no clauses in the program.
    UndefinedPredicate {
        /// `name/arity` of the missing predicate.
        pred: String,
    },
    /// A clause needs more X registers than the machine frame has
    /// ([`crate::NUM_REGISTERS`]).
    TooManyRegisters {
        /// `name/arity` of the clause's predicate.
        pred: String,
        /// Registers the clause needs.
        needed: usize,
    },
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::UndefinedPredicate { pred } => {
                write!(f, "call to undefined predicate {pred}")
            }
            CodegenError::TooManyRegisters { pred, needed } => write!(
                f,
                "a clause of {pred} needs {needed} registers, more than the {}",
                crate::NUM_REGISTERS
            ),
        }
    }
}

impl std::error::Error for CodegenError {}

/// Compile one normalized clause to instructions (no clause chaining).
pub fn compile_clause(
    clause: &NormClause,
    resolve: &HashMap<PredKey, usize>,
    interner: &prolog_syntax::Interner,
) -> Result<Vec<Instr>, CodegenError> {
    let classified = classify(clause);
    let mut gen = ClauseGen {
        clause,
        classified,
        resolve,
        interner,
        code: Vec::new(),
        seen: HashSet::new(),
        scratch: 0,
    };
    gen.scratch = gen.classified.layout.scratch_base;
    gen.run()?;
    let needed = registers_needed(&gen.code).max(clause.key.arity);
    if needed > crate::NUM_REGISTERS {
        return Err(CodegenError::TooManyRegisters {
            pred: clause.key.display(interner),
            needed,
        });
    }
    Ok(gen.code)
}

/// One past the highest X register `code` names (argument registers
/// included).
fn registers_needed(code: &[Instr]) -> usize {
    let x = |slot: Slot| match slot {
        Slot::X(n) => usize::from(n) + 1,
        Slot::Y(_) => 0,
    };
    code.iter()
        .map(|instr| match *instr {
            Instr::GetVariable(s, a)
            | Instr::GetValue(s, a)
            | Instr::PutVariable(s, a)
            | Instr::PutValue(s, a) => x(s).max(usize::from(a) + 1),
            Instr::GetConstant(_, a)
            | Instr::GetList(a)
            | Instr::GetStructure(_, a)
            | Instr::PutConstant(_, a)
            | Instr::PutList(a)
            | Instr::PutStructure(_, a) => usize::from(a) + 1,
            Instr::UnifyVariable(s) | Instr::UnifyValue(s) => x(s),
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

struct ClauseGen<'a> {
    clause: &'a NormClause,
    classified: Classified,
    resolve: &'a HashMap<PredKey, usize>,
    interner: &'a prolog_syntax::Interner,
    code: Vec<Instr>,
    /// Variables whose slot already holds a value.
    seen: HashSet<VarId>,
    /// Next scratch X register (reset before each head/goal).
    scratch: u16,
}

impl ClauseGen<'_> {
    fn layout(&self) -> &crate::classify::Layout {
        &self.classified.layout
    }

    fn run(&mut self) -> Result<(), CodegenError> {
        let needs_env = self.layout().needs_env;
        if needs_env {
            self.code.push(Instr::Allocate(self.layout().env_size));
            if let Some(y) = self.layout().cut_slot {
                self.code.push(Instr::GetLevel(y));
            }
        }
        self.compile_head();
        let goals = &self.clause.goals;
        let last_call_idx = goals.iter().rposition(Goal::is_call);
        let mut tail_emitted = false;
        for (i, goal) in goals.iter().enumerate() {
            match goal {
                Goal::Cut => match self.layout().cut_slot {
                    Some(y) if goals[..i].iter().any(Goal::is_call) => {
                        self.code.push(Instr::CutLevel(y));
                    }
                    _ => self.code.push(Instr::NeckCut),
                },
                Goal::Builtin(b, args) => {
                    self.compile_args(args);
                    self.code.push(Instr::CallBuiltin(*b));
                }
                Goal::Call(key, args) => {
                    let idx = self.resolve.get(key).copied().ok_or_else(|| {
                        CodegenError::UndefinedPredicate {
                            pred: key.display(self.interner),
                        }
                    })?;
                    let idx = crate::PredIdx::try_from(idx).expect("under 4 Gi predicates");
                    self.compile_args(args);
                    let is_last_goal = i + 1 == goals.len();
                    if is_last_goal && Some(i) == last_call_idx {
                        if needs_env {
                            self.code.push(Instr::Deallocate);
                        }
                        self.code.push(Instr::Execute(idx));
                        tail_emitted = true;
                    } else {
                        self.code.push(Instr::Call(idx));
                    }
                }
            }
        }
        if !tail_emitted {
            if needs_env {
                self.code.push(Instr::Deallocate);
            }
            self.code.push(Instr::Proceed);
        }
        Ok(())
    }

    // ----- head compilation (get/unify, breadth-first) -----

    fn compile_head(&mut self) {
        self.scratch = self.layout().scratch_base;
        let mut queue: VecDeque<(u16, Term)> = VecDeque::new();
        let head_args = self.clause.head_args.clone();
        for (i, arg) in head_args.iter().enumerate() {
            let a = i as u16;
            match arg {
                Term::Var(v) => {
                    if self.classified.voids.contains(v) {
                        // Ignored argument: no instruction needed.
                    } else if self.seen.insert(*v) {
                        self.code
                            .push(Instr::GetVariable(self.layout().slot(*v), a));
                    } else {
                        self.code.push(Instr::GetValue(self.layout().slot(*v), a));
                    }
                }
                Term::Int(i) => self.code.push(Instr::GetConstant(WamConst::int(*i), a)),
                Term::Atom(s) => self.code.push(Instr::GetConstant(WamConst::Atom(*s), a)),
                Term::Struct(f, args) if self.is_cons(*f, args.len()) => {
                    self.code.push(Instr::GetList(a));
                    self.emit_unify_args(args, &mut queue);
                }
                Term::Struct(f, args) => {
                    self.code.push(Instr::GetStructure(
                        Functor {
                            name: *f,
                            arity: args.len() as u16,
                        },
                        a,
                    ));
                    self.emit_unify_args(args, &mut queue);
                }
            }
        }
        // Breadth-first: deferred substructures.
        while let Some((reg, term)) = queue.pop_front() {
            match &term {
                Term::Struct(f, args) if self.is_cons(*f, args.len()) => {
                    self.code.push(Instr::GetList(reg));
                    self.emit_unify_args(args, &mut queue);
                }
                Term::Struct(f, args) => {
                    self.code.push(Instr::GetStructure(
                        Functor {
                            name: *f,
                            arity: args.len() as u16,
                        },
                        reg,
                    ));
                    self.emit_unify_args(args, &mut queue);
                }
                _ => unreachable!("only compound terms are queued"),
            }
        }
        self.merge_unify_voids();
    }

    fn emit_unify_args(&mut self, args: &[Term], queue: &mut VecDeque<(u16, Term)>) {
        for arg in args {
            match arg {
                Term::Var(v) => {
                    if self.classified.voids.contains(v) {
                        self.code.push(Instr::UnifyVoid(1));
                    } else if self.seen.insert(*v) {
                        self.code.push(Instr::UnifyVariable(self.layout().slot(*v)));
                    } else {
                        self.code.push(Instr::UnifyValue(self.layout().slot(*v)));
                    }
                }
                Term::Int(i) => self.code.push(Instr::UnifyConstant(WamConst::int(*i))),
                Term::Atom(s) => self.code.push(Instr::UnifyConstant(WamConst::Atom(*s))),
                Term::Struct(..) => {
                    let reg = self.fresh_scratch();
                    self.code.push(Instr::UnifyVariable(Slot::X(reg)));
                    queue.push_back((reg, arg.clone()));
                }
            }
        }
    }

    // ----- body argument compilation (put/unify, bottom-up) -----

    fn compile_args(&mut self, args: &[Term]) {
        self.scratch = self.layout().scratch_base;
        // Build complex arguments' nested children into scratch registers
        // first, then write the argument registers left to right.
        let mut prepared: Vec<PreparedArg> = Vec::new();
        for arg in args {
            prepared.push(self.prepare_arg(arg));
        }
        for (i, prep) in prepared.into_iter().enumerate() {
            self.emit_put(prep, i as u16);
        }
    }

    /// Build everything below the top level of `arg` into scratch registers
    /// and return a description of how to write the top level.
    fn prepare_arg(&mut self, arg: &Term) -> PreparedArg {
        match arg {
            Term::Var(v) => PreparedArg::Var(*v),
            Term::Int(i) => PreparedArg::Const(WamConst::int(*i)),
            Term::Atom(s) => PreparedArg::Const(WamConst::Atom(*s)),
            Term::Struct(f, children) => {
                let parts: Vec<WritePart> = children.iter().map(|c| self.prepare_part(c)).collect();
                PreparedArg::Compound {
                    functor: Functor {
                        name: *f,
                        arity: children.len() as u16,
                    },
                    is_cons: self.is_cons(*f, children.len()),
                    parts,
                }
            }
        }
    }

    fn prepare_part(&mut self, term: &Term) -> WritePart {
        match term {
            Term::Var(v) => WritePart::Var(*v),
            Term::Int(i) => WritePart::Const(WamConst::int(*i)),
            Term::Atom(s) => WritePart::Const(WamConst::Atom(*s)),
            Term::Struct(f, children) => {
                // Build this child into a scratch register, bottom-up.
                let parts: Vec<WritePart> = children.iter().map(|c| self.prepare_part(c)).collect();
                let reg = self.fresh_scratch();
                if self.is_cons(*f, children.len()) {
                    self.code.push(Instr::PutList(reg));
                } else {
                    self.code.push(Instr::PutStructure(
                        Functor {
                            name: *f,
                            arity: children.len() as u16,
                        },
                        reg,
                    ));
                }
                for part in &parts {
                    self.emit_write_part(part);
                }
                WritePart::Built(reg)
            }
        }
    }

    fn emit_put(&mut self, prep: PreparedArg, a: u16) {
        match prep {
            PreparedArg::Var(v) => {
                if self.seen.insert(v) {
                    let slot = if self.classified.voids.contains(&v) {
                        Slot::X(self.fresh_scratch())
                    } else {
                        self.layout().slot(v)
                    };
                    self.code.push(Instr::PutVariable(slot, a));
                } else {
                    self.code.push(Instr::PutValue(self.layout().slot(v), a));
                }
            }
            PreparedArg::Const(c) => self.code.push(Instr::PutConstant(c, a)),
            PreparedArg::Compound {
                functor,
                is_cons,
                parts,
            } => {
                if is_cons {
                    self.code.push(Instr::PutList(a));
                } else {
                    self.code.push(Instr::PutStructure(functor, a));
                }
                for part in &parts {
                    self.emit_write_part(part);
                }
            }
        }
    }

    fn emit_write_part(&mut self, part: &WritePart) {
        match part {
            WritePart::Var(v) => {
                if self.seen.insert(*v) {
                    if self.classified.voids.contains(v) {
                        self.code.push(Instr::UnifyVoid(1));
                    } else {
                        self.code.push(Instr::UnifyVariable(self.layout().slot(*v)));
                    }
                } else {
                    self.code.push(Instr::UnifyValue(self.layout().slot(*v)));
                }
            }
            WritePart::Const(c) => self.code.push(Instr::UnifyConstant(*c)),
            WritePart::Built(reg) => self.code.push(Instr::UnifyValue(Slot::X(*reg))),
        }
    }

    // ----- helpers -----

    fn is_cons(&self, f: prolog_syntax::Symbol, arity: usize) -> bool {
        f == self.interner.dot() && arity == 2
    }

    fn fresh_scratch(&mut self) -> u16 {
        let reg = self.scratch;
        self.scratch += 1;
        reg
    }

    /// Merge consecutive `unify_void 1` instructions.
    fn merge_unify_voids(&mut self) {
        let mut merged: Vec<Instr> = Vec::with_capacity(self.code.len());
        for instr in self.code.drain(..) {
            match (merged.last_mut(), &instr) {
                (Some(Instr::UnifyVoid(n)), Instr::UnifyVoid(m)) => *n += m,
                _ => merged.push(instr),
            }
        }
        self.code = merged;
    }
}

enum PreparedArg {
    Var(VarId),
    Const(WamConst),
    Compound {
        functor: Functor,
        is_cons: bool,
        parts: Vec<WritePart>,
    },
}

enum WritePart {
    Var(VarId),
    Const(WamConst),
    Built(u16),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm::normalize_program;
    use prolog_syntax::parse_program;

    fn compile_first(src: &str) -> (Vec<Instr>, prolog_syntax::Interner) {
        let p = parse_program(src).unwrap();
        let n = normalize_program(&p).unwrap();
        let mut resolve = HashMap::new();
        for (i, (key, _)) in n.predicates.iter().enumerate() {
            resolve.insert(*key, i);
        }
        let code = compile_clause(&n.predicates[0].1[0], &resolve, &n.interner).unwrap();
        (code, n.interner)
    }

    fn listing(src: &str) -> Vec<String> {
        let (code, interner) = compile_first(src);
        let program = crate::CompiledProgram::empty(interner);
        code.iter().map(|i| i.display(&program)).collect()
    }

    #[test]
    fn paper_figure_2_head() {
        // p(a, [f(V)|L]) — the head example from §2/Figure 2 of the paper.
        // (V and L are kept live by a body goal, as in the paper's "…".)
        let code = listing("p(a, [f(V)|L]) :- q(V, L). q(1, 1).");
        assert_eq!(
            code,
            vec![
                "get_constant a, A1",
                "get_list A2",
                "unify_variable X5",
                "unify_variable X4",
                "get_structure f/1, A5",
                "unify_variable X3",
                "put_value X3, A1",
                "put_value X4, A2",
                "execute pred#1",
            ],
            "breadth-first head compilation must match the paper's Figure 2"
        );
    }

    #[test]
    fn fact_compiles_to_gets_and_proceed() {
        let code = listing("p(a, 42).");
        assert_eq!(
            code,
            vec!["get_constant a, A1", "get_constant 42, A2", "proceed"]
        );
    }

    #[test]
    fn chain_clause_uses_execute() {
        let code = listing("p(X) :- q(X). q(1).");
        assert_eq!(
            code,
            vec!["get_variable X2, A1", "put_value X2, A1", "execute pred#1"]
        );
    }

    #[test]
    fn two_calls_allocate_and_lco() {
        let code = listing("p(X, Y) :- q(X, Z), r(Z, Y). q(1,1). r(1,1).");
        let text = code.join("\n");
        assert!(text.starts_with("allocate 2"), "{text}");
        assert!(text.contains("call pred#1"), "{text}");
        assert!(text.ends_with("deallocate\nexecute pred#2"), "{text}");
    }

    #[test]
    fn builtin_call_sequence() {
        let code = listing("p(X, Y) :- Y is X + 1.");
        let text = code.join("\n");
        assert!(text.contains("put_structure +/2, A2"), "{text}");
        assert!(text.contains("builtin is/2"), "{text}");
        assert!(text.ends_with("proceed"), "{text}");
    }

    #[test]
    fn nested_body_structures_build_bottom_up() {
        // q([1,2]) — inner [2] must be built into a scratch register first.
        let code = listing("p :- q([1, 2]). q([1,2]).");
        let text = code.join("\n");
        let inner = text
            .find("put_list A2")
            .expect("inner list built first (scratch X2)");
        let outer = text.find("put_list A1").expect("outer list");
        assert!(inner < outer, "{text}");
        assert!(
            text.contains("unify_constant 2\nunify_constant []"),
            "{text}"
        );
    }

    #[test]
    fn neck_cut_and_deep_cut() {
        let code = listing("p(X) :- !, q(X). q(1).");
        assert!(code.contains(&"neck_cut".to_string()));
        let code = listing("p(X) :- q(X), !, r(X). q(1). r(1).");
        let text = code.join("\n");
        assert!(text.contains("get_level"), "{text}");
        assert!(text.contains("cut Y"), "{text}");
    }

    #[test]
    fn undefined_predicate_is_an_error() {
        let p = parse_program("p :- nosuch.").unwrap();
        let n = normalize_program(&p).unwrap();
        let mut resolve = HashMap::new();
        resolve.insert(n.predicates[0].0, 0);
        let err = compile_clause(&n.predicates[0].1[0], &resolve, &n.interner).unwrap_err();
        assert!(matches!(err, CodegenError::UndefinedPredicate { .. }));
    }

    #[test]
    fn repeated_variable_uses_get_value() {
        let code = listing("p(X, X).");
        assert_eq!(code[0], "get_variable X3, A1");
        assert_eq!(code[1], "get_value X3, A2");
    }

    #[test]
    fn void_head_arg_emits_nothing() {
        let code = listing("p(_, a).");
        assert_eq!(code, vec!["get_constant a, A2", "proceed"]);
    }

    #[test]
    fn consecutive_voids_merge() {
        let code = listing("p(f(_, _, X), X).");
        let text = code.join("\n");
        assert!(text.contains("unify_void 2"), "{text}");
    }
}
