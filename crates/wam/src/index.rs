//! Clause chaining and first-argument indexing.
//!
//! Every multi-clause predicate gets a `try_me_else`/`retry_me_else`/
//! `trust_me` chain. When no clause has a variable in its first argument
//! position (and the predicate has arguments), a `switch_on_term` header is
//! emitted that dispatches bound first arguments directly to the matching
//! clause subset — through `switch_on_constant`/`switch_on_structure`
//! second-level tables and `try`/`retry`/`trust` blocks where the subset
//! has several clauses. Unbound first arguments fall back to the full
//! chain.

use crate::compile::{push_run, CodePools};
use crate::instr::{CodeAddr, Functor, Instr, Span, TermSwitch, WamConst};
use crate::norm::NormClause;
use prolog_syntax::Term;

/// Classification of a clause's first head argument for indexing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FirstArg {
    /// Variable (or the predicate has no arguments): matches everything.
    Var,
    /// A constant (atom or integer).
    Const(WamConst),
    /// A cons cell `[_|_]`.
    List,
    /// Any other structure.
    Struct(Functor),
}

/// Compute the [`FirstArg`] class of a normalized clause.
pub fn first_arg_class(clause: &NormClause, interner: &prolog_syntax::Interner) -> FirstArg {
    match clause.head_args.first() {
        None | Some(Term::Var(_)) => FirstArg::Var,
        Some(Term::Int(i)) => FirstArg::Const(WamConst::int(*i)),
        Some(Term::Atom(a)) => FirstArg::Const(WamConst::Atom(*a)),
        Some(Term::Struct(f, args)) if *f == interner.dot() && args.len() == 2 => FirstArg::List,
        Some(Term::Struct(f, args)) => FirstArg::Struct(Functor {
            name: *f,
            arity: args.len() as u16,
        }),
    }
}

/// Result of emitting one predicate's code.
#[derive(Debug, Clone)]
pub struct PredCode {
    /// The address execution enters at (`switch_on_term` or the chain).
    pub entry: CodeAddr,
    /// Entry address of each clause body, in source order. The abstract
    /// machine iterates these directly, bypassing the indexing code, as
    /// §5 of the paper prescribes.
    pub clause_entries: Vec<CodeAddr>,
}

/// The address the next instruction pushed onto `code` gets.
fn next_addr(code: &[Instr]) -> CodeAddr {
    CodeAddr::try_from(code.len()).expect("code area under 4 Gi instructions")
}

/// Append the code for one predicate to `code`, and its switch tables to
/// `pools`.
pub fn emit_predicate(
    code: &mut Vec<Instr>,
    pools: &mut CodePools,
    blocks: Vec<Vec<Instr>>,
    first_args: &[FirstArg],
) -> PredCode {
    assert_eq!(blocks.len(), first_args.len());
    assert!(!blocks.is_empty(), "predicates have at least one clause");

    if blocks.len() == 1 {
        let entry = next_addr(code);
        code.extend(blocks.into_iter().next().expect("one block"));
        return PredCode {
            entry,
            clause_entries: vec![entry],
        };
    }

    let indexable = first_args.iter().all(|f| *f != FirstArg::Var);
    let switch_addr = if indexable {
        let addr = code.len();
        // Patched once the targets exist.
        code.push(Instr::Fail);
        Some(addr)
    } else {
        None
    };

    // Main chain: try_me_else / retry_me_else / trust_me interleaved with
    // clause code.
    let chain_start = next_addr(code);
    let n = blocks.len();
    let mut chain_link_addrs = Vec::with_capacity(n);
    let mut clause_entries = Vec::with_capacity(n);
    for (i, block) in blocks.into_iter().enumerate() {
        chain_link_addrs.push(code.len());
        if i == 0 {
            code.push(Instr::TryMeElse(0));
        } else if i + 1 < n {
            code.push(Instr::RetryMeElse(0));
        } else {
            code.push(Instr::TrustMe);
        }
        clause_entries.push(next_addr(code));
        code.extend(block);
    }
    // Patch chain targets: each link points at the next link instruction.
    for i in 0..n - 1 {
        let next = chain_link_addrs[i + 1] as CodeAddr;
        match &mut code[chain_link_addrs[i]] {
            Instr::TryMeElse(l) | Instr::RetryMeElse(l) => *l = next,
            other => unreachable!("chain link is try/retry, got {other:?}"),
        }
    }

    let entry = if let Some(switch_addr) = switch_addr {
        let mut fail_addr: Option<CodeAddr> = None;
        let mut ensure_fail = |code: &mut Vec<Instr>| -> CodeAddr {
            *fail_addr.get_or_insert_with(|| {
                let addr = next_addr(code);
                code.push(Instr::Fail);
                addr
            })
        };

        // Bucket for each dispatch tag.
        let con_clauses: Vec<usize> = (0..n)
            .filter(|&i| matches!(first_args[i], FirstArg::Const(_)))
            .collect();
        let lis_clauses: Vec<usize> = (0..n)
            .filter(|&i| first_args[i] == FirstArg::List)
            .collect();
        let str_clauses: Vec<usize> = (0..n)
            .filter(|&i| matches!(first_args[i], FirstArg::Struct(_)))
            .collect();

        let emit_try_block = |code: &mut Vec<Instr>, subset: &[usize], entries: &[CodeAddr]| {
            let addr = next_addr(code);
            let k = subset.len();
            for (j, &ci) in subset.iter().enumerate() {
                if j == 0 {
                    code.push(Instr::Try(entries[ci]));
                } else if j + 1 < k {
                    code.push(Instr::Retry(entries[ci]));
                } else {
                    code.push(Instr::Trust(entries[ci]));
                }
            }
            addr
        };

        // Plain bucket: fail / direct / chain / try-block.
        let bucket = |code: &mut Vec<Instr>,
                      subset: &[usize],
                      fail: &mut dyn FnMut(&mut Vec<Instr>) -> CodeAddr|
         -> CodeAddr {
            if subset.is_empty() {
                fail(code)
            } else if subset.len() == n {
                chain_start
            } else if subset.len() == 1 {
                clause_entries[subset[0]]
            } else {
                emit_try_block(code, subset, &clause_entries)
            }
        };

        let lis_target = bucket(code, &lis_clauses, &mut ensure_fail);

        // Constants: second-level dispatch when several distinct values.
        let con_target = if con_clauses.is_empty() {
            ensure_fail(code)
        } else {
            let mut by_const: Vec<(WamConst, Vec<usize>)> = Vec::new();
            for &ci in &con_clauses {
                let FirstArg::Const(c) = first_args[ci] else {
                    unreachable!()
                };
                match by_const.iter_mut().find(|(k, _)| *k == c) {
                    Some((_, v)) => v.push(ci),
                    None => by_const.push((c, vec![ci])),
                }
            }
            // A table too long for a span falls back to one bucket.
            if by_const.len() == 1 || by_const.len() > Span::MAX_LEN {
                bucket(code, &con_clauses, &mut ensure_fail)
            } else {
                let mut table: Vec<(WamConst, CodeAddr)> = Vec::new();
                for (c, subset) in &by_const {
                    let target = if subset.len() == 1 {
                        clause_entries[subset[0]]
                    } else {
                        emit_try_block(code, subset, &clause_entries)
                    };
                    table.push((*c, target));
                }
                let addr = next_addr(code);
                let span = push_run(&mut pools.const_cases, table).expect("length checked");
                code.push(Instr::SwitchOnConstant(span));
                addr
            }
        };

        // Structures: same scheme keyed by functor.
        let str_target = if str_clauses.is_empty() {
            ensure_fail(code)
        } else {
            let mut by_functor: Vec<(Functor, Vec<usize>)> = Vec::new();
            for &ci in &str_clauses {
                let FirstArg::Struct(f) = first_args[ci] else {
                    unreachable!()
                };
                match by_functor.iter_mut().find(|(k, _)| *k == f) {
                    Some((_, v)) => v.push(ci),
                    None => by_functor.push((f, vec![ci])),
                }
            }
            if by_functor.len() == 1 || by_functor.len() > Span::MAX_LEN {
                bucket(code, &str_clauses, &mut ensure_fail)
            } else {
                let mut table: Vec<(Functor, CodeAddr)> = Vec::new();
                for (f, subset) in &by_functor {
                    let target = if subset.len() == 1 {
                        clause_entries[subset[0]]
                    } else {
                        emit_try_block(code, subset, &clause_entries)
                    };
                    table.push((*f, target));
                }
                let addr = next_addr(code);
                let span = push_run(&mut pools.struct_cases, table).expect("length checked");
                code.push(Instr::SwitchOnStructure(span));
                addr
            }
        };

        code[switch_addr] = Instr::SwitchOnTerm(pools.push_term_switch(TermSwitch {
            var: chain_start,
            con: con_target,
            lis: lis_target,
            str_: str_target,
        }));
        switch_addr as CodeAddr
    } else {
        chain_start
    };

    PredCode {
        entry,
        clause_entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile_clause;
    use crate::norm::normalize_program;
    use prolog_syntax::parse_program;
    use std::collections::HashMap;

    struct Emitted {
        code: Vec<Instr>,
        pools: CodePools,
        pc: PredCode,
    }

    impl Emitted {
        fn at(&self, addr: CodeAddr) -> Instr {
            self.code[addr as usize]
        }

        fn switch(&self) -> TermSwitch {
            let Instr::SwitchOnTerm(t) = self.at(self.pc.entry) else {
                panic!("expected switch, got {:?}", self.at(self.pc.entry));
            };
            self.pools.term_switch(t)
        }
    }

    fn emit(src: &str, pred: usize) -> Emitted {
        let p = parse_program(src).unwrap();
        let n = normalize_program(&p).unwrap();
        let mut resolve = HashMap::new();
        for (i, (key, _)) in n.predicates.iter().enumerate() {
            resolve.insert(*key, i);
        }
        let (_, clauses) = &n.predicates[pred];
        let blocks: Vec<Vec<Instr>> = clauses
            .iter()
            .map(|c| compile_clause(c, &resolve, &n.interner).unwrap())
            .collect();
        let first_args: Vec<FirstArg> = clauses
            .iter()
            .map(|c| first_arg_class(c, &n.interner))
            .collect();
        let mut code = Vec::new();
        let mut pools = CodePools::default();
        let pc = emit_predicate(&mut code, &mut pools, blocks, &first_args);
        Emitted { code, pools, pc }
    }

    #[test]
    fn single_clause_has_no_chain() {
        let e = emit("p(a).", 0);
        assert_eq!(e.pc.entry, 0);
        assert!(!e
            .code
            .iter()
            .any(|i| matches!(i, Instr::TryMeElse(_) | Instr::TrustMe)));
    }

    #[test]
    fn chain_shape_for_three_clauses() {
        let e = emit("p(X, a). p(X, b). p(X, c).", 0);
        // Var first arg → no switch.
        let Instr::TryMeElse(second) = e.at(e.pc.entry) else {
            panic!()
        };
        let Instr::RetryMeElse(third) = e.at(second) else {
            panic!()
        };
        assert!(matches!(e.at(third), Instr::TrustMe));
        assert_eq!(e.pc.clause_entries.len(), 3);
    }

    #[test]
    fn switch_emitted_when_first_args_bound() {
        let e = emit("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).", 0);
        let TermSwitch {
            var,
            con,
            lis,
            str_,
        } = e.switch();
        // var → chain; con ([] constant) → clause 1 body; lis → clause 2 body.
        assert!(matches!(e.at(var), Instr::TryMeElse(_)));
        assert_eq!(con, e.pc.clause_entries[0]);
        assert_eq!(lis, e.pc.clause_entries[1]);
        // No structure clauses → fail.
        assert!(matches!(e.at(str_), Instr::Fail));
    }

    #[test]
    fn second_level_constant_switch() {
        let e = emit("c(red, 1). c(green, 2). c(blue, 3).", 0);
        let Instr::SwitchOnConstant(table) = e.at(e.switch().con) else {
            panic!("expected constant table, got {:?}", e.at(e.switch().con));
        };
        let table = e.pools.const_table(table);
        assert_eq!(table.len(), 3);
        for (i, (_, addr)) in table.iter().enumerate() {
            assert_eq!(*addr, e.pc.clause_entries[i]);
        }
    }

    #[test]
    fn duplicate_constants_get_try_blocks() {
        let e = emit("d(a, 1). d(a, 2). d(b, 3).", 0);
        let Instr::SwitchOnConstant(table) = e.at(e.switch().con) else {
            panic!()
        };
        let table = e.pools.const_table(table);
        assert_eq!(table.len(), 2);
        // The `a` bucket is a try/trust block over clauses 0 and 1.
        let a_target = table[0].1;
        assert!(matches!(e.at(a_target), Instr::Try(t) if t == e.pc.clause_entries[0]));
        assert!(matches!(e.at(a_target + 1), Instr::Trust(t) if t == e.pc.clause_entries[1]));
    }

    #[test]
    fn var_clause_disables_switch() {
        let e = emit("p(a). p(X). p(b).", 0);
        assert!(matches!(e.at(e.pc.entry), Instr::TryMeElse(_)));
        assert!(!e.code.iter().any(|i| matches!(i, Instr::SwitchOnTerm(_))));
        assert!(e.pools.term_switches.is_empty());
    }

    #[test]
    fn structure_switch() {
        let e = emit("m(f(X), X). m(g(X, Y), X) :- m(f(Y), Y).", 0);
        let TermSwitch { str_, con, .. } = e.switch();
        let Instr::SwitchOnStructure(table) = e.at(str_) else {
            panic!("expected structure table, got {:?}", e.at(str_));
        };
        assert_eq!(e.pools.struct_table(table).len(), 2);
        assert!(matches!(e.at(con), Instr::Fail));
    }
}
