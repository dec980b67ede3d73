//! γ-soundness of abstract unification, tested by sampling.
//!
//! The soundness criterion of §4.1 (via set unification): for abstract
//! terms `P` and `Q`, and any concrete terms `t ∈ γ(P)` and `u ∈ γ(Q)`
//! with disjoint variables, if `t` and `u` unify concretely with mgu σ,
//! then the abstract unification of (materializations of) `P` and `Q`
//! must succeed, and the resulting abstract term must cover `σ(t)`.
//!
//! Pattern and instance generation live in `awam-testkit` (the
//! [`random_pattern`] / [`gamma_instance`] γ-sampler shared with the
//! fuzz campaign); this file keeps only the reference concrete unifier
//! and the properties themselves. The case budget honors
//! `AWAM_FUZZ_ITERS`.

use absdom::AbsLeaf;
use awam_core::{extract::extract, ACell, AbstractMachine};
use awam_testkit::{fuzz_iters, gamma_instance, random_pattern, Rng};
use prolog_syntax::{Term, VarId};
use std::collections::HashMap;

// ----- a reference concrete unifier over syntax terms -----

fn resolve(t: &Term, subst: &HashMap<VarId, Term>) -> Term {
    match t {
        Term::Var(v) => match subst.get(v) {
            Some(bound) => resolve(bound, subst),
            None => t.clone(),
        },
        _ => t.clone(),
    }
}

fn unify_terms(a: &Term, b: &Term, subst: &mut HashMap<VarId, Term>) -> bool {
    let a = resolve(a, subst);
    let b = resolve(b, subst);
    match (&a, &b) {
        (Term::Var(x), Term::Var(y)) if x == y => true,
        (Term::Var(x), _) => {
            subst.insert(*x, b);
            true
        }
        (_, Term::Var(y)) => {
            subst.insert(*y, a);
            true
        }
        (Term::Int(x), Term::Int(y)) => x == y,
        (Term::Atom(x), Term::Atom(y)) => x == y,
        (Term::Struct(f, xs), Term::Struct(g, ys)) => {
            f == g
                && xs.len() == ys.len()
                && xs.iter().zip(ys).all(|(x, y)| unify_terms(x, y, subst))
        }
        _ => false,
    }
}

fn apply(t: &Term, subst: &HashMap<VarId, Term>) -> Term {
    match t {
        Term::Var(v) => match subst.get(v) {
            Some(bound) => apply(bound, subst),
            None => t.clone(),
        },
        Term::Int(_) | Term::Atom(_) => t.clone(),
        Term::Struct(f, args) => Term::Struct(*f, args.iter().map(|a| apply(a, subst)).collect()),
    }
}

// ----- the property -----

fn trivial_program() -> wam::CompiledProgram {
    wam::compile_program(&prolog_syntax::parse_program("p.").unwrap()).unwrap()
}

fn cases() -> u64 {
    fuzz_iters(192)
}

#[test]
fn abstract_unify_is_gamma_sound() {
    for case in 0..cases() {
        let mut rng = Rng::new(0x5eed_0001_u64.wrapping_add(case));

        let compiled = trivial_program();
        let mut interner = compiled.interner.clone();
        let pa = random_pattern(&mut rng, 2, &mut interner);
        let pb = random_pattern(&mut rng, 2, &mut interner);

        // Concrete instances with disjoint variable ranges.
        let t = gamma_instance(
            &pa,
            pa.root(0),
            &mut interner,
            &mut rng,
            0,
            &mut HashMap::new(),
        );
        let u = gamma_instance(
            &pb,
            pb.root(0),
            &mut interner,
            &mut rng,
            100,
            &mut HashMap::new(),
        );
        // The generator must honor γ; skip the (non-existent) cases where
        // it does not, like prop_assume did.
        if !pa.covers(std::slice::from_ref(&t)) || !pb.covers(std::slice::from_ref(&u)) {
            continue;
        }

        let mut subst = HashMap::new();
        let concrete_ok = unify_terms(&t, &u, &mut subst);

        // Abstract unification of the materialized patterns.
        let mut machine = AbstractMachine::new(&compiled, 4);
        let ca = awam_core::extract::materialize(machine.heap_mut(), &pa)[0];
        let cb = awam_core::extract::materialize(machine.heap_mut(), &pb)[0];
        let abstract_ok = machine.unify_cells(ca, cb);

        if concrete_ok {
            assert!(
                abstract_ok,
                "case {case}: concrete unification of {t:?} and {u:?} succeeded but \
                 abstract unification of {pa:?} and {pb:?} failed"
            );
            // And the result must cover the concretely unified term.
            let unified = apply(&t, &subst);
            let result = extract(machine.heap(), &[ca], 16);
            assert!(
                result.covers(std::slice::from_ref(&unified)),
                "case {case}: abstract result {result:?} does not cover σ(t) = {unified:?}"
            );
        }
    }
}

#[test]
fn constrain_ground_is_gamma_sound() {
    for case in 0..cases() {
        let mut rng = Rng::new(0x5eed_0002_u64.wrapping_add(case));

        let compiled = trivial_program();
        let mut interner = compiled.interner.clone();
        let pa = random_pattern(&mut rng, 2, &mut interner);
        let t = gamma_instance(
            &pa,
            pa.root(0),
            &mut interner,
            &mut rng,
            0,
            &mut HashMap::new(),
        );
        if !pa.covers(std::slice::from_ref(&t)) {
            continue;
        }

        let mut machine = AbstractMachine::new(&compiled, 4);
        let cell = awam_core::extract::materialize(machine.heap_mut(), &pa)[0];
        let g_addr = machine.heap_mut().len();
        machine.heap_mut().push(ACell::Abs(AbsLeaf::Ground));
        let ok = machine.unify_cells(cell, ACell::Ref(g_addr));
        // If the instance is already ground, the abstract op must succeed
        // and the result must still cover it.
        if t.is_ground() {
            assert!(
                ok,
                "case {case}: grounding a ground instance of {pa:?} failed"
            );
            let result = extract(machine.heap(), &[cell], 16);
            assert!(result.covers(std::slice::from_ref(&t)));
        }
    }
}
