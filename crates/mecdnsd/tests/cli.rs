//! `mecdnsd` fails loudly on bad input: each subcommand accepts only its
//! own flags, and a misspelled flag or a value flag without its value
//! exits 2 with the usage on stderr before anything binds or sends.

use std::process::{Command, Output};

fn mecdnsd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mecdnsd"))
        .args(args)
        .output()
        .expect("run mecdnsd")
}

#[test]
fn bad_flags_exit_2_with_the_usage() {
    let bad: &[&[&str]] = &[
        &["smoke", "--querys", "100", "--shardz", "2"],
        &["serve", "--duration", "1", "--stat"],
        &["serve", "--shards"],
        &["loadgen", "--target", "127.0.0.1:9", "--bogus"],
    ];
    for args in bad {
        let out = mecdnsd(args);
        assert_eq!(out.status.code(), Some(2), "mecdnsd {args:?} must exit 2");
        assert!(out.stdout.is_empty(), "mecdnsd {args:?} ran: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: mecdnsd"), "mecdnsd {args:?}: {stderr}");
    }
}
