//! The `awam` CLI on a closed stdout: a reader that stops early
//! (`awam … | head -1`) ends the command quietly with exit code 0, not a
//! panic with a backtrace.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_quietly() {
    // A WAM listing far larger than a pipe buffer, so the command is
    // still writing when the reader goes away.
    let source: String = (0..3_000)
        .map(|i| format!("p({i}, f(x{i}, [a, b, c])).\n"))
        .collect();
    let path = std::env::temp_dir().join(format!("awam-closed-stdout-{}.pl", std::process::id()));
    std::fs::write(&path, source).expect("write the program");
    let mut child = Command::new(env!("CARGO_BIN_EXE_awam"))
        .arg("compile")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn awam");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read the first line");
    assert!(line.starts_with("% 1 predicates"), "first line: {line:?}");
    drop(reader);
    let output = child.wait_with_output().expect("wait for awam");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
}
