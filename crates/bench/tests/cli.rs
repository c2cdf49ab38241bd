//! End-to-end checks of the `persona-cli` binary's error behavior:
//! an unreachable server must produce a one-line typed diagnostic and
//! a distinct exit status, never a panic backtrace over a raw
//! `io::Error`.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_persona-cli"))
}

#[test]
fn unreachable_server_yields_typed_error_and_nonzero_exit() {
    // The discard port on loopback has nothing listening in this
    // environment, so the connect is refused immediately.
    let out = cli().args(["stats", "--addr", "127.0.0.1:9"]).output().expect("run persona-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("cannot connect to 127.0.0.1:9"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn trace_without_addr_is_a_usage_error() {
    let out = cli().args(["trace", "7"]).output().expect("run persona-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--addr"), "stderr: {stderr}");
}

#[test]
fn unknown_or_malformed_arguments_print_usage_and_exit_2() {
    for args in [
        &["--bogus"][..],
        &["--clients", "many", "--addr", "127.0.0.1:9"],
        &["trace", "seven", "--addr", "127.0.0.1:9"],
        &["--plan", "no-such-plan", "--addr", "127.0.0.1:9"],
        &["--addr"],
        &[],
    ] {
        let out = cli().args(args).output().expect("run persona-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: persona-cli"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
