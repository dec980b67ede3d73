//! Human-readable reports: modes, types, and aliasing derived from the
//! extension table.

use crate::analyzer::{Analysis, PredAnalysis};
use absdom::{AbsLeaf, PNode, Pattern};
use prolog_syntax::Interner;
use std::fmt::{self, Write as _};

/// The derived mode of one argument position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArgMode {
    /// Ground at every call (`+` in classic mode syntax).
    In,
    /// Free at every call, ground at every successful return (`-` with
    /// ground output).
    OutGround,
    /// Free at every call, possibly non-ground at return.
    Out,
    /// Non-variable (but not necessarily ground) at every call.
    NonVarIn,
    /// Anything else.
    Unknown,
}

impl fmt::Display for ArgMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArgMode::In => "+",
            ArgMode::OutGround => "-g",
            ArgMode::Out => "-",
            ArgMode::NonVarIn => "+nv",
            ArgMode::Unknown => "?",
        };
        f.write_str(s)
    }
}

/// Derive per-argument modes from all (call, success) entries of a
/// predicate.
pub fn derive_modes(pred: &PredAnalysis) -> Vec<ArgMode> {
    (0..pred.arity)
        .map(|i| {
            let mut call_ground = true;
            let mut call_nonvar = true;
            let mut call_var = true;
            let mut succ_ground = true;
            for (call, success) in &pred.entries {
                let c = call.leaf_approx(call.root(i));
                call_ground &= call.node_is_ground(call.root(i));
                call_nonvar &= c != AbsLeaf::Var && c != AbsLeaf::Any;
                call_var &= c == AbsLeaf::Var;
                if let Some(s) = success {
                    succ_ground &= s.node_is_ground(s.root(i))
                }
            }
            if call_ground {
                ArgMode::In
            } else if call_var && succ_ground {
                ArgMode::OutGround
            } else if call_var {
                ArgMode::Out
            } else if call_nonvar {
                ArgMode::NonVarIn
            } else {
                ArgMode::Unknown
            }
        })
        .collect()
}

/// Aliasing pairs (argument indices that are definitely aliased) in any
/// calling or success pattern of the predicate.
pub fn aliased_arg_pairs(pred: &PredAnalysis) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (call, success) in &pred.entries {
        collect_aliases(call, &mut pairs);
        if let Some(s) = success {
            collect_aliases(s, &mut pairs);
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

fn collect_aliases(p: &Pattern, pairs: &mut Vec<(usize, usize)>) {
    for i in 0..p.arity() {
        for j in i + 1..p.arity() {
            if p.root(i) == p.root(j) {
                pairs.push((i, j));
            }
        }
    }
}

/// Infers a one-line type description per argument from the success
/// summary (e.g. `glist`, `int`, `nv`).
pub fn success_types(pred: &PredAnalysis, interner: &Interner) -> Vec<String> {
    match pred.success_summary() {
        None => vec!["fails".to_owned(); pred.arity],
        Some(s) => (0..pred.arity)
            .map(|i| display_node_type(&s, s.root(i), interner))
            .collect(),
    }
}

fn display_node_type(p: &Pattern, id: usize, interner: &Interner) -> String {
    match p.node(id) {
        PNode::Leaf(l) => l.to_string(),
        PNode::Int(i) => i.to_string(),
        PNode::Atom(a) => interner.resolve(*a).to_owned(),
        PNode::Struct(f, span) => {
            let name = interner.resolve(*f);
            let args: Vec<String> = p
                .args(*span)
                .map(|a| display_node_type(p, a, interner))
                .collect();
            if name == "." && args.len() == 2 {
                format!("[{}|{}]", args[0], args[1])
            } else {
                format!("{name}({})", args.join(", "))
            }
        }
        PNode::List(e) => {
            let e = display_node_type(p, *e, interner);
            if e == "g" {
                "glist".to_owned()
            } else {
                format!("list({e})")
            }
        }
    }
}

/// Render the full analysis report.
pub fn render(analysis: &Analysis, interner: &Interner) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_report(analysis, interner, &mut out);
    out
}

fn write_report(analysis: &Analysis, interner: &Interner, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "fixpoint in {} iteration(s), {} abstract instructions",
        analysis.iterations, analysis.instructions_executed
    )?;
    let t = &analysis.table_stats;
    writeln!(
        out,
        "extension table: {} lookups ({} hits, {} misses, {} scan steps), \
         {} inserts, {} summary updates ({} widenings, {} version bumps)",
        t.lookups,
        t.hits,
        t.misses,
        t.scan_steps,
        t.inserts,
        t.summary_updates,
        t.lub_widenings,
        t.version_bumps
    )?;
    for pred in &analysis.predicates {
        write!(out, "\n{}:\n", pred.name)?;
        for (call, success) in &pred.entries {
            out.push_str("  call ");
            call.write_display(interner, out);
            out.push_str("  -->  ");
            match success {
                Some(s) => s.write_display(interner, out),
                None => out.push_str("fails"),
            }
            out.push('\n');
        }
        let modes: Vec<String> = derive_modes(pred).iter().map(ArgMode::to_string).collect();
        if pred.arity > 0 {
            writeln!(out, "  modes: ({})", modes.join(", "))?;
            let types = success_types(pred, interner);
            writeln!(out, "  types: ({})", types.join(", "))?;
        }
        let aliases = aliased_arg_pairs(pred);
        if !aliases.is_empty() {
            let aliases: Vec<String> = aliases
                .iter()
                .map(|(i, j)| format!("A{}~A{}", i + 1, j + 1))
                .collect();
            writeln!(out, "  aliasing: {}", aliases.join(", "))?;
        }
    }
    Ok(())
}
