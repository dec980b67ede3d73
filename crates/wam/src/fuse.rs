//! Peephole superinstruction fusion over compiled code.
//!
//! [`fuse_program`] rewrites a [`CompiledProgram`] in place, collapsing the
//! hot instruction sequences the committed opcode histograms identify —
//! `get_structure`/`get_list` heads followed by their `unify_*` argument
//! runs, and runs of two or more consecutive `put_value` moves — into single
//! fused superinstructions ([`Instr::GetStructureSeq`],
//! [`Instr::GetListSeq`], [`Instr::PutValueSeq`]). The shared executor in
//! `awam-exec` then pays one fetch/decode for the whole run instead of one
//! per constituent.
//!
//! Fusion is purely local and semantics-preserving: a fused run never spans
//! a *barrier* — any address referenced by the predicate table or by a jump
//! operand — so every control-transfer target remains an instruction
//! boundary (a barrier may *head* a run, it just can't land inside one).
//! [`unfuse_program`] is the exact inverse and restores the plain
//! instruction stream; both passes are idempotent, so applying either to a
//! program in any fusion state is deterministic.

use crate::compile::{push_run, CodePools, CompiledProgram};
use crate::instr::{CodeAddr, Instr, Span, UnifyOp};

/// Every code address that some other part of the program can transfer
/// control to: predicate entries, clause entries, and jump operands
/// (switch tables included). These must remain instruction starts after
/// fusion. `barriers[addr]` is set for each.
fn collect_barriers(p: &CompiledProgram) -> Vec<bool> {
    let mut barriers = vec![false; p.code.len() + 1];
    let mut mark = |addr: CodeAddr| barriers[addr as usize] = true;
    for pred in &p.predicates {
        mark(pred.entry);
    }
    p.clause_entries.iter().copied().for_each(&mut mark);
    for instr in &p.code {
        if let Instr::TryMeElse(l)
        | Instr::RetryMeElse(l)
        | Instr::Try(l)
        | Instr::Retry(l)
        | Instr::Trust(l) = *instr
        {
            mark(l);
        }
    }
    let pools = &p.pools;
    for t in &pools.term_switches {
        [t.var, t.con, t.lis, t.str_]
            .into_iter()
            .for_each(&mut mark);
    }
    pools.const_cases.iter().for_each(|&(_, l)| mark(l));
    pools.struct_cases.iter().for_each(|&(_, l)| mark(l));
    barriers
}

/// Rewrite every code-address operand in `code` and its pools, every
/// predicate entry and every clause entry through `map`.
fn rewrite_addrs(p: &mut CompiledProgram, map: impl Fn(CodeAddr) -> CodeAddr) {
    for instr in &mut p.code {
        if let Instr::TryMeElse(l)
        | Instr::RetryMeElse(l)
        | Instr::Try(l)
        | Instr::Retry(l)
        | Instr::Trust(l) = instr
        {
            *l = map(*l);
        }
    }
    for l in p.pools.addrs_mut() {
        *l = map(*l);
    }
    for pred in &mut p.predicates {
        pred.entry = map(pred.entry);
    }
    for l in &mut p.clause_entries {
        *l = map(*l);
    }
}

/// Collect the maximal fusable `unify_*` run starting at `start`, stopping
/// at the first barrier or non-unify instruction, or at
/// [`Span::MAX_LEN`] operands. Returns the operands and the index one
/// past the run.
fn take_unify_run(code: &[Instr], start: usize, barriers: &[bool]) -> (Vec<UnifyOp>, usize) {
    let mut ops = Vec::new();
    let mut i = start;
    while i < code.len() && !barriers[i] && ops.len() < Span::MAX_LEN {
        match UnifyOp::from_instr(code[i]) {
            Some(op) => {
                ops.push(op);
                i += 1;
            }
            None => break,
        }
    }
    (ops, i)
}

/// Move the fused runs (the unify-op and move pools) out of `pools`,
/// leaving them empty; the switch tables stay.
fn take_runs(pools: &mut CodePools) -> CodePools {
    CodePools {
        unify_ops: std::mem::take(&mut pools.unify_ops),
        moves: std::mem::take(&mut pools.moves),
        ..CodePools::default()
    }
}

/// Fuse hot instruction runs in `p` into superinstructions, in place.
///
/// Idempotent: already-fused instructions are never re-fused, and plain
/// instructions that survive a first pass have no fusable continuation.
/// The run pools are rebuilt in code order: runs fused earlier are
/// copied over, new runs are appended where their instruction lands.
pub fn fuse_program(p: &mut CompiledProgram) {
    let barriers = collect_barriers(p);
    let old = std::mem::take(&mut p.code);
    let old_pools = take_runs(&mut p.pools);
    let pools = &mut p.pools;
    let mut new_code: Vec<Instr> = Vec::with_capacity(old.len());
    // `new_addr[i]` is the new index of old instruction `i`, or `None` when
    // `i` was consumed into the interior of a fused run (guaranteed
    // unreferenced by the barrier check).
    let mut new_addr: Vec<Option<CodeAddr>> = vec![None; old.len() + 1];
    let next = |code: &Vec<Instr>| Some(code.len() as CodeAddr);
    let mut i = 0;
    while i < old.len() {
        new_addr[i] = next(&new_code);
        let (instr, end) = match old[i] {
            Instr::GetStructure(f, a) => match take_unify_run(&old, i + 1, &barriers) {
                (ops, end) if !ops.is_empty() => (
                    Instr::GetStructureSeq {
                        name: f.name,
                        arity: f.arity,
                        arg: a,
                        ops: push_run(&mut pools.unify_ops, ops).expect("run capped"),
                    },
                    end,
                ),
                _ => (old[i], i + 1),
            },
            Instr::GetList(a) => match take_unify_run(&old, i + 1, &barriers) {
                (ops, end) if !ops.is_empty() => (
                    Instr::GetListSeq(a, push_run(&mut pools.unify_ops, ops).expect("run capped")),
                    end,
                ),
                _ => (old[i], i + 1),
            },
            Instr::PutValue(..) => {
                let mut j = i;
                let mut moves = Vec::new();
                while j < old.len() && (j == i || !barriers[j]) && moves.len() < Span::MAX_LEN {
                    match old[j] {
                        Instr::PutValue(v, a) => moves.push((v, a)),
                        _ => break,
                    }
                    j += 1;
                }
                if moves.len() >= 2 {
                    let span = push_run(&mut pools.moves, moves).expect("run capped");
                    (Instr::PutValueSeq(span), j)
                } else {
                    (old[i], i + 1)
                }
            }
            mut other => {
                // Runs fused earlier move to their place in the new pools.
                match &mut other {
                    Instr::GetStructureSeq { ops, .. } | Instr::GetListSeq(_, ops) => {
                        let run = old_pools.unify_run(*ops).iter().copied();
                        *ops = push_run(&mut pools.unify_ops, run).expect("same length as before");
                    }
                    Instr::PutValueSeq(moves) => {
                        let run = old_pools.move_run(*moves).iter().copied();
                        *moves = push_run(&mut pools.moves, run).expect("same length as before");
                    }
                    _ => {}
                }
                (other, i + 1)
            }
        };
        new_code.push(instr);
        i = end;
    }
    new_addr[old.len()] = next(&new_code);
    p.code = new_code;
    rewrite_addrs(p, |addr| {
        new_addr[addr as usize].expect("fusion never consumes a referenced address")
    });
}

/// Expand every fused superinstruction in `p` back into its constituent
/// plain instructions, in place. The exact inverse of [`fuse_program`];
/// idempotent on already-plain code. The run pools end empty: no run is
/// left behind.
pub fn unfuse_program(p: &mut CompiledProgram) {
    let old = std::mem::take(&mut p.code);
    let old_pools = take_runs(&mut p.pools);
    let mut new_code: Vec<Instr> = Vec::with_capacity(old.len());
    let mut new_addr: Vec<CodeAddr> = vec![0; old.len() + 1];
    for (i, instr) in old.iter().enumerate() {
        new_addr[i] = new_code.len() as CodeAddr;
        new_code.extend(instr.expand(&old_pools));
    }
    new_addr[old.len()] = new_code.len() as CodeAddr;
    p.code = new_code;
    rewrite_addrs(p, |addr| new_addr[addr as usize]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_program;
    use prolog_syntax::parse_program;

    const NREV: &str = "
        nrev([], []).
        nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
        app([], L, L).
        app([H|T], L, [H|R]) :- app(T, L, R).
    ";

    fn compile(src: &str) -> CompiledProgram {
        compile_program(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn nrev_fuses_list_traversal() {
        let c = compile(NREV);
        assert!(
            c.code.iter().any(|i| matches!(i, Instr::GetListSeq(..))),
            "{}",
            c.listing()
        );
        // Fusion shrinks the code area.
        let mut plain = c.clone();
        unfuse_program(&mut plain);
        assert!(c.code.len() < plain.code.len());
    }

    #[test]
    fn fuse_unfuse_roundtrip() {
        for src in [
            NREV,
            "p(a).",
            "p(f(X, g(Y), Z)) :- q(X, Y, Z). q(A, B, C) :- p(f(A, g(B), C)).",
            "len([], 0). len([_|T], s(N)) :- len(T, N).",
        ] {
            let fused = compile(src);
            let mut unfused = fused.clone();
            unfuse_program(&mut unfused);
            let mut refused = unfused.clone();
            fuse_program(&mut refused);
            assert_eq!(refused.code, fused.code, "{src}");
            assert_eq!(refused.pools, fused.pools, "{src}");
            assert_eq!(refused.predicates, fused.predicates, "{src}");
            assert_eq!(refused.clause_entries, fused.clause_entries, "{src}");
        }
    }

    #[test]
    fn unfusing_leaves_no_run_behind() {
        let mut c = compile(NREV);
        assert!(!c.pools.unify_ops.is_empty() && !c.pools.moves.is_empty());
        let switches = c.pools.term_switches.clone();
        unfuse_program(&mut c);
        assert!(c.pools.unify_ops.is_empty() && c.pools.moves.is_empty());
        assert_eq!(c.pools.unify_ops.capacity() + c.pools.moves.capacity(), 0);
        // Switch targets stay, rewritten to the longer code.
        assert_eq!(c.pools.term_switches.len(), switches.len());
        assert_ne!(c.pools.term_switches, switches);
    }

    #[test]
    fn pools_follow_code_order() {
        // Re-fusing fused code copies every run to where its instruction
        // lands, so the pools come out as they were: in code order.
        let fused = compile(NREV);
        let mut again = fused.clone();
        fuse_program(&mut again);
        assert_eq!(again.pools, fused.pools);
        let mut starts = Vec::new();
        for instr in &fused.code {
            if let Instr::GetStructureSeq { ops, .. } | Instr::GetListSeq(_, ops) = *instr {
                starts.push(ops.start());
            }
        }
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "{starts:?}");
        assert_eq!(starts.first(), Some(&0));
    }

    #[test]
    fn both_passes_are_idempotent() {
        let c = compile(NREV);
        let mut again = c.clone();
        fuse_program(&mut again);
        assert_eq!(again.code, c.code);
        assert_eq!(again.pools, c.pools);

        let mut plain = c.clone();
        unfuse_program(&mut plain);
        let mut plain2 = plain.clone();
        unfuse_program(&mut plain2);
        assert_eq!(plain2.code, plain.code);
        assert_eq!(plain2.pools, plain.pools);
    }

    #[test]
    fn barriers_stay_instruction_starts() {
        let c = compile(NREV);
        let barriers = collect_barriers(&c);
        assert_eq!(barriers.len(), c.code.len() + 1);
        // Every jump operand still lands on a real instruction.
        for (id, pred) in c.predicates.iter().enumerate() {
            assert!((pred.entry as usize) < c.code.len());
            for &l in c.clauses(id) {
                assert!((l as usize) < c.code.len());
            }
        }
    }

    #[test]
    fn interior_run_positions_are_unreferenced() {
        // A clause whose head has a deep structure produces a long unify
        // run; nothing may point into its interior after fusion.
        let c = compile("p(f(a, b, c, d, e)).");
        let has_seq = c
            .code
            .iter()
            .any(|i| matches!(i, Instr::GetStructureSeq { ops, .. } if ops.len() >= 5));
        assert!(has_seq, "{}", c.listing());
    }
}
