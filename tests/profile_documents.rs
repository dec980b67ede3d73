//! The `awam profile --metrics-json` document of every Table 1 program,
//! pinned value for value against `tests/golden/profile_documents.txt`.
//!
//! `tests/profile_schema.rs` checks that the promised keys exist; this
//! test pins what they hold. It runs the `awam` binary itself and
//! renders every value that is not a time: every counter except
//! `compile_ns`, both `fixpoint.iteration_*` histograms in full,
//! `et.consult_ns`'s sample count, and the span tree's names, calls and
//! nesting. Keys are rendered in document order, so the order the
//! document lists them in is pinned too. Times print as `*`.
//!
//! Nothing regenerates the golden file: an intended change to the
//! document rewrites it on purpose (print the actual text from the test
//! once) and says so.

use awam::obs::Json;
use std::fmt::Write;
use std::process::Command;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/profile_documents.txt"
);

/// Run `awam profile FILE ENTRY/ARITY SPECS --metrics-json` on one
/// benchmark's source and parse the document it prints.
fn profile_document(b: &awam::suite::Benchmark) -> Json {
    let path = std::env::temp_dir().join(format!(
        "awam-profile-doc-{}-{}.pl",
        std::process::id(),
        b.name
    ));
    std::fs::write(&path, b.source).expect("write the benchmark source");
    let output = Command::new(env!("CARGO_BIN_EXE_awam"))
        .arg("profile")
        .arg(&path)
        .arg(format!("{}/{}", b.entry, b.entry_specs.len()))
        .arg(b.entry_specs.join(","))
        .arg("--metrics-json")
        .output()
        .expect("run awam profile");
    std::fs::remove_file(&path).ok();
    assert!(
        output.status.success(),
        "{}: awam profile failed: {}",
        b.name,
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8(output.stdout).expect("UTF-8 document");
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: document parses: {e:?}", b.name))
}

fn object(doc: &Json) -> &[(String, Json)] {
    match doc {
        Json::Obj(pairs) => pairs,
        other => panic!("expected an object, got {}", other.emit()),
    }
}

fn int(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing integer {key} in {}", doc.emit()))
}

/// One span and its children, indented by depth: name and calls only.
fn render_span(out: &mut String, span: &Json, depth: usize) {
    for key in ["total_ns", "self_ns"] {
        assert!(span.get(key).is_some(), "span without {key}");
    }
    let name = span.get("name").and_then(Json::as_str).expect("span name");
    let calls = int(span, "calls");
    writeln!(
        out,
        "{:indent$}{name} calls={calls}",
        "",
        indent = depth * 2
    )
    .unwrap();
    let Some(Json::Arr(children)) = span.get("children") else {
        panic!("span {name} without children");
    };
    for child in children {
        render_span(out, child, depth + 1);
    }
}

/// The time-free rendering of one document.
fn render(doc: &Json) -> String {
    let mut out = String::new();
    let keys: Vec<&str> = object(doc).iter().map(|(k, _)| k.as_str()).collect();
    writeln!(out, "keys {}", keys.join(",")).unwrap();
    for key in ["schema", "kind"] {
        let value = doc.get(key).and_then(Json::as_str).expect("envelope field");
        writeln!(out, "{key} {value}").unwrap();
    }
    let metrics = doc.get("metrics").expect("metrics");
    let sections: Vec<&str> = object(metrics).iter().map(|(k, _)| k.as_str()).collect();
    writeln!(out, "metrics {}", sections.join(",")).unwrap();
    for (name, value) in object(metrics.get("counters").expect("counters")) {
        let value = value.as_u64().expect("integer counter");
        if name == "compile_ns" {
            writeln!(out, "counter {name} *").unwrap();
        } else {
            writeln!(out, "counter {name} {value}").unwrap();
        }
    }
    for (name, hist) in object(metrics.get("histograms").expect("histograms")) {
        let fields: Vec<String> = object(hist)
            .iter()
            .map(|(field, value)| {
                let value = value.as_u64().expect("integer histogram field");
                if name == "et.consult_ns" && field != "count" {
                    format!("{field}=*")
                } else {
                    format!("{field}={value}")
                }
            })
            .collect();
        writeln!(out, "histogram {name} {}", fields.join(" ")).unwrap();
    }
    render_span(&mut out, doc.get("spans").expect("spans"), 0);
    out
}

#[test]
fn profile_documents_match_golden() {
    let mut actual = String::new();
    for b in awam::suite::all() {
        writeln!(
            actual,
            "== {} {}/{} {} ==",
            b.name,
            b.entry,
            b.entry_specs.len(),
            b.entry_specs.join(",")
        )
        .unwrap();
        actual.push_str(&render(&profile_document(&b)));
    }
    let expected = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    if expected == actual {
        return;
    }
    let (want, got): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), actual.lines().collect());
    let at = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(0);
    panic!(
        "profile_documents.txt differs at line {}:\n  golden: {:?}\n  actual: {:?}",
        at + 1,
        want.get(at),
        got.get(at)
    );
}
