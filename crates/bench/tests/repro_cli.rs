//! `repro` fails loudly on bad input: a non-zero exit and a message on
//! stderr, never a silent fallback to a default.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn bad_input_exits_non_zero_with_a_message() {
    let bad: &[&[&str]] = &[
        &["fgi5"],
        &["table1", "--jsno"],
        &["table1", "--seed"],
        &["table1", "--seed", "x"],
        &["table1", "--threads"],
        &["table1", "--threads", "abc"],
        &["table1", "table2"],
    ];
    for args in bad {
        let out = repro(args);
        assert!(!out.status.success(), "repro {args:?} must fail");
        assert!(out.stdout.is_empty(), "repro {args:?} printed a section");
        assert!(!out.stderr.is_empty(), "repro {args:?} must say why");
    }
}

#[test]
fn a_valid_section_succeeds() {
    let out = repro(&["table1", "--seed", "7", "--threads", "1"]);
    assert!(out.status.success());
    assert!(out.stderr.is_empty());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1"));
}
