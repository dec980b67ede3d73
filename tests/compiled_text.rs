//! Byte-for-byte goldens of the compiled code's two text forms, for the
//! 11 Table 1 programs, committed under `tests/golden/`:
//!
//! * `disasm.txt` — what `awam disasm FILE.pl` prints (the same listing
//!   `CompiledProgram::listing` renders);
//! * `wam_text.txt` — the `awam-wam-v1` file `awam compile --emit`
//!   writes.
//!
//! Both run the `awam` binary itself. The instruction encoding is an
//! implementation detail; these files pin what it must keep rendering.
//! The `.wam` text also has to survive its own round trip (emit, load,
//! emit) byte for byte, and `awam disasm` of the saved file must print
//! the same listing as `awam disasm` of the source.
//!
//! A `.wam` file that names a symbol, register or slot outside what the
//! program has is refused with exit 1 and a one-line message.
//!
//! Nothing regenerates the golden files: an intended change to either
//! form rewrites them on purpose (print the actual text from the test
//! once) and says so.

use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// Compare `actual` with the committed golden file `name`, reporting the
/// first differing line.
fn check(name: &str, actual: &str) {
    let path = format!("{GOLDEN_DIR}/{name}");
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if expected == actual {
        return;
    }
    let (want, got): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), actual.lines().collect());
    let at = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(0);
    panic!(
        "{name} differs at line {}:\n  golden: {:?}\n  actual: {:?}",
        at + 1,
        want.get(at),
        got.get(at)
    );
}

/// A scratch path for one benchmark's file with extension `ext`.
fn scratch(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "awam-compiled-text-{}-{name}.{ext}",
        std::process::id()
    ))
}

/// Run `awam ARGS…` and return its stdout, failing on a non-zero exit.
fn awam(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_awam"))
        .args(args)
        .output()
        .expect("run awam");
    assert!(
        output.status.success(),
        "awam {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("UTF-8 temp path")
}

#[test]
fn disasm_and_wam_text_match_golden() {
    let mut disasm = String::new();
    let mut wam_text = String::new();
    for b in awam::suite::all() {
        let source = scratch(b.name, "pl");
        let emitted = scratch(b.name, "wam");
        std::fs::write(&source, b.source).expect("write the benchmark source");

        let listing = awam(&["disasm", path_str(&source)]);
        awam(&["compile", path_str(&source), "--emit", path_str(&emitted)]);
        let text = std::fs::read_to_string(&emitted).expect("read the emitted file");
        let reloaded_listing = awam(&["disasm", path_str(&emitted)]);
        std::fs::remove_file(&source).ok();
        std::fs::remove_file(&emitted).ok();

        assert_eq!(
            listing, reloaded_listing,
            "{}: the saved file disassembles differently",
            b.name
        );
        let reloaded = awam::wam::text::from_text(&text)
            .unwrap_or_else(|e| panic!("{}: emitted text loads: {e}", b.name));
        assert_eq!(
            awam::wam::text::to_text(&reloaded),
            text,
            "{}: emit, load, emit is not byte-equal",
            b.name
        );

        writeln!(disasm, "== {} ==", b.name).unwrap();
        disasm.push_str(&listing);
        writeln!(wam_text, "== {} ==", b.name).unwrap();
        wam_text.push_str(&text);
    }
    check("disasm.txt", &disasm);
    check("wam_text.txt", &wam_text);
}

#[test]
fn a_malformed_wam_file_is_an_error_not_a_panic() {
    let source = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/nreverse.pl");
    let emitted = scratch("nreverse-malformed", "wam");
    awam(&["compile", source, "--emit", path_str(&emitted)]);
    let text = std::fs::read_to_string(&emitted).expect("read the emitted file");
    for (from, to) in [
        ("unify_constant atom:0", "unify_constant atom:999"),
        ("unify_value x2", "unify_value x60000"),
        ("get_variable y1 1", "get_variable y300 1"),
    ] {
        assert!(text.contains(from), "{from:?} is in the emitted file");
        std::fs::write(&emitted, text.replacen(from, to, 1)).expect("write the edited file");
        let output = Command::new(env!("CARGO_BIN_EXE_awam"))
            .args(["analyze-wam", path_str(&emitted), "nreverse"])
            .output()
            .expect("run awam");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{to}: {stderr}");
        assert!(
            stderr.starts_with("awam: wam text error: ")
                && stderr.matches("wam text error").count() == 1
                && stderr.lines().count() == 1,
            "{to}: {stderr}"
        );
    }
    std::fs::remove_file(&emitted).ok();
}
