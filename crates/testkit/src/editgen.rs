//! Seed-replayable random program edits.
//!
//! [`gen_edit`] draws one well-formed [`ProgramEdit`] against a *parsed*
//! program, reusing the [`crate::proggen`] term vocabulary for spliced
//! clause text and the shared [`Rng`] for determinism. Because the draw
//! depends only on the RNG stream and the current program, an edit
//! sequence over an evolving program replays exactly from `(campaign
//! seed, case index, edit index)`: the campaign seed fixes the generated
//! program, and oracle #9 derives edit `j`'s RNG seed from the
//! fingerprint of the source as it stands after edits `0..j` (see
//! [`crate::oracle::Oracle::Incremental`]).
//!
//! Constraints keeping the edits *interesting* rather than degenerate:
//! clause-targeting edits only name existing predicates; `RemoveClause`
//! only fires on predicates with ≥ 2 clauses (never emptying one as a
//! side effect); `RemovePredicate` never targets the entry predicate
//! `p0` or a predicate that other predicates' clauses mention (so the
//! edited program keeps compiling); `AddPredicate` invents a fresh name.
//! When a drawn kind has no legal target it falls back to `AddClause`,
//! which is always legal.

use crate::proggen::{gen_term, term_source};
use crate::rng::Rng;
use awam_core::incremental::ProgramEdit;
use prolog_syntax::{pretty, Program};

/// What [`gen_edit`] knows about one predicate of the program under edit.
struct PredInfo {
    name: String,
    arity: usize,
    clauses: usize,
}

fn predicates(program: &Program) -> Vec<PredInfo> {
    program
        .predicate_index()
        .into_iter()
        .map(|(key, clauses)| PredInfo {
            name: program.interner.resolve(key.name).to_owned(),
            arity: key.arity,
            clauses: clauses.len(),
        })
        .collect()
}

/// Whether `text` contains `name` as a standalone identifier token
/// (boundaries are any non-`[a-zA-Z0-9_]` byte). Used for the
/// conservative "nobody mentions this predicate" removability check and
/// for fresh-name picking; a false positive only skips a legal edit.
fn mentions(text: &str, name: &str) -> bool {
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut start = 0;
    while let Some(pos) = text[start..].find(name) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after = at + name.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// A random head or call `name(args…)` with generated argument terms.
fn render_call(rng: &mut Rng, name: &str, arity: usize) -> String {
    if arity == 0 {
        return name.to_owned();
    }
    let args: Vec<String> = (0..arity).map(|_| term_source(&gen_term(rng, 2))).collect();
    format!("{name}({})", args.join(", "))
}

/// A random clause for `name/arity`: generated head arguments and up to
/// two body goals (calls to existing predicates, or unifications).
fn gen_clause_text(rng: &mut Rng, name: &str, arity: usize, preds: &[PredInfo]) -> String {
    let head = render_call(rng, name, arity);
    let num_goals = rng.below(3) as usize;
    let goals: Vec<String> = (0..num_goals)
        .map(|_| {
            if rng.below(3) < 2 && !preds.is_empty() {
                let target = &preds[rng.below(preds.len() as u64) as usize];
                render_call(rng, &target.name, target.arity)
            } else {
                format!(
                    "{} = {}",
                    term_source(&gen_term(rng, 2)),
                    term_source(&gen_term(rng, 2))
                )
            }
        })
        .collect();
    if goals.is_empty() {
        format!("{head}.")
    } else {
        format!("{head} :- {}.", goals.join(", "))
    }
}

/// The first `q<N>` name the program does not mention anywhere.
fn fresh_name(program_text: &str) -> String {
    (0..)
        .map(|i| format!("q{i}"))
        .find(|name| !mentions(program_text, name))
        .expect("some qN is always unused")
}

/// Draw one well-formed random edit against `program`.
///
/// The draw consumes a bounded number of RNG values, so an edit sequence
/// is replayable by re-seeding the RNG per edit (what oracle #9 does).
pub fn gen_edit(rng: &mut Rng, program: &Program) -> ProgramEdit {
    let preds = predicates(program);
    if preds.is_empty() {
        return ProgramEdit::AddPredicate {
            source: "q0.".to_owned(),
        };
    }
    let pick = |rng: &mut Rng| rng.below(preds.len() as u64) as usize;
    match rng.below(5) {
        // AddClause — always legal.
        0 => {
            let p = &preds[pick(rng)];
            ProgramEdit::AddClause {
                clause: gen_clause_text(rng, &p.name, p.arity, &preds),
            }
        }
        // ReplaceClause — always legal (every predicate has ≥ 1 clause).
        1 => {
            let p = &preds[pick(rng)];
            let clause = rng.below(p.clauses as u64) as usize;
            ProgramEdit::ReplaceClause {
                pred: p.name.clone(),
                arity: p.arity,
                clause,
                text: gen_clause_text(rng, &p.name, p.arity, &preds),
            }
        }
        // RemoveClause — needs a predicate with ≥ 2 clauses.
        2 => {
            let candidates: Vec<&PredInfo> = preds.iter().filter(|p| p.clauses >= 2).collect();
            if candidates.is_empty() {
                let p = &preds[pick(rng)];
                return ProgramEdit::AddClause {
                    clause: gen_clause_text(rng, &p.name, p.arity, &preds),
                };
            }
            let p = candidates[rng.below(candidates.len() as u64) as usize];
            let clause = rng.below(p.clauses as u64) as usize;
            ProgramEdit::RemoveClause {
                pred: p.name.clone(),
                arity: p.arity,
                clause,
            }
        }
        // AddPredicate — a fresh, never-mentioned name.
        3 => {
            let text = render(program);
            let name = fresh_name(&text);
            let arity = rng.below(3) as usize;
            let num_clauses = 1 + rng.below(2) as usize;
            let clauses: Vec<String> = (0..num_clauses)
                .map(|_| gen_clause_text(rng, &name, arity, &preds))
                .collect();
            ProgramEdit::AddPredicate {
                source: clauses.join("\n"),
            }
        }
        // RemovePredicate — never the entry, never a mentioned one.
        _ => {
            let text = render(program);
            let candidates: Vec<&PredInfo> = preds
                .iter()
                .filter(|p| p.name != "p0" && !mentioned_outside_own_clauses(program, &text, p))
                .collect();
            if candidates.is_empty() {
                let p = &preds[pick(rng)];
                return ProgramEdit::AddClause {
                    clause: gen_clause_text(rng, &p.name, p.arity, &preds),
                };
            }
            let p = candidates[rng.below(candidates.len() as u64) as usize];
            ProgramEdit::RemovePredicate {
                pred: p.name.clone(),
                arity: p.arity,
            }
        }
    }
}

fn render(program: &Program) -> String {
    program
        .clauses
        .iter()
        .map(|c| pretty::clause_to_string(c, &program.interner))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Whether any clause of a *different* predicate mentions `p.name`
/// (conservative token scan over rendered clause text — a recursive
/// self-call does not block removal, since it vanishes with the
/// predicate).
fn mentioned_outside_own_clauses(program: &Program, _text: &str, p: &PredInfo) -> bool {
    program.clauses.iter().any(|c| {
        let key = c.pred_key();
        let own = key.arity == p.arity && program.interner.resolve(key.name) == p.name;
        !own && mentions(&pretty::clause_to_string(c, &program.interner), &p.name)
    })
}

/// Greedily minimize a failing edit sequence: try dropping each edit in
/// turn (re-checking `still_fails` on the shortened sequence) and keep
/// every drop that preserves the failure. `still_fails` receives the
/// candidate sequence and must replay it from scratch — edits that no
/// longer apply after earlier drops should be skipped, not treated as
/// failures.
pub fn minimize_edits(
    edits: &[ProgramEdit],
    still_fails: &mut dyn FnMut(&[ProgramEdit]) -> bool,
) -> Vec<ProgramEdit> {
    let mut kept: Vec<ProgramEdit> = edits.to_vec();
    let mut i = 0;
    while i < kept.len() {
        let mut candidate = kept.clone();
        candidate.remove(i);
        if still_fails(&candidate) {
            kept = candidate;
        } else {
            i += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proggen::{gen_program, GenConfig};

    #[test]
    fn generated_edits_apply_and_reparse() {
        let config = GenConfig::default();
        let mut applied = 0u32;
        for case in 0..48u64 {
            let mut rng = Rng::new(case);
            let g = gen_program(&mut rng, &config);
            let mut program = prolog_syntax::parse_program(&g.source()).unwrap();
            for edit_idx in 0..4u64 {
                let mut erng = Rng::new(case * 1000 + edit_idx);
                let edit = gen_edit(&mut erng, &program);
                let new_source = edit
                    .apply(&program)
                    .unwrap_or_else(|e| panic!("case {case} edit {edit_idx} ({edit:?}): {e}"));
                program = prolog_syntax::parse_program(&new_source).unwrap_or_else(|e| {
                    panic!(
                        "case {case} edit {edit_idx}: edited source unparseable: {e}\n{new_source}"
                    )
                });
                applied += 1;
            }
        }
        assert_eq!(applied, 48 * 4, "every generated edit must apply");
    }

    #[test]
    fn edits_replay_from_the_same_seed() {
        let g = gen_program(&mut Rng::new(7), &GenConfig::default());
        let program = prolog_syntax::parse_program(&g.source()).unwrap();
        let a = gen_edit(&mut Rng::new(99), &program);
        let b = gen_edit(&mut Rng::new(99), &program);
        assert_eq!(a, b);
    }

    #[test]
    fn minimize_edits_drops_irrelevant_steps() {
        let edits = vec![
            ProgramEdit::AddClause {
                clause: "x.".into(),
            },
            ProgramEdit::AddClause {
                clause: "y.".into(),
            },
            ProgramEdit::AddClause {
                clause: "z.".into(),
            },
        ];
        // "Failure" iff the sequence still contains the y edit.
        let min = minimize_edits(&edits, &mut |seq| {
            seq.iter()
                .any(|e| matches!(e, ProgramEdit::AddClause { clause } if clause == "y."))
        });
        assert_eq!(min.len(), 1);
    }

    #[test]
    fn remove_predicate_spares_the_entry_and_called_preds() {
        let src = "p0 :- p1.\np1.\np2.\n";
        let program = prolog_syntax::parse_program(src).unwrap();
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            if let ProgramEdit::RemovePredicate { pred, .. } = gen_edit(&mut rng, &program) {
                assert_eq!(
                    pred, "p2",
                    "only the uncalled non-entry predicate is removable"
                );
            }
        }
    }
}
