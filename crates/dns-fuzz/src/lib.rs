#![warn(missing_docs)]

//! `dns-fuzz` — deterministic structured fuzzing for [`dns_wire`].
//!
//! The paper puts the L-DNS/C-DNS pair on the first-hop resolution path
//! of every UE, so the hand-rolled `dns-wire` decoder will face
//! arbitrary hostile bytes from real sockets — not just our own
//! encoder's output. This crate hammers the decoder with two mutation
//! engines and judges every input with a differential oracle:
//!
//! * **raw** ([`mutate`]): bit flips, byte stomps, truncation, splicing
//!   and chunk surgery over a committed [`corpus`] of real encoded
//!   messages;
//! * **grammar** ([`grammar`]): wire-format-aware attacks — lying
//!   header counts, injected compression pointers (loops, forward
//!   pointers, past-the-end targets), corrupted OPT option lengths, ECS
//!   family/prefix mismatches, 63/64-octet label edges, truncation in
//!   the middle of a resource record;
//! * **oracle** ([`oracle`]): every input must either decode or fail
//!   with a typed [`dns_wire::WireError`] — never a panic. Every
//!   successful decode must re-encode, re-decode to a structurally
//!   identical message, re-encode byte-identically, and keep each
//!   name's folded key in agreement with `Name` equality and
//!   containment.
//!
//! Determinism is the contract that makes failures actionable: case
//! `i` of a campaign depends only on `(root_seed, i)` via the same
//! splitmix64 seed-derivation scheme the experiment runner uses
//! ([`rng::derive_seed`]), and the campaign [`runner`] merges results
//! so the [`report::Summary`] is byte-identical for any `--threads`
//! value. A crasher reported by CI reproduces locally from its case
//! index alone.
//!
//! Two entry points ship: a quick fixed-seed corpus run wired into
//! `cargo test` (see `tests/fuzz_smoke.rs`), and the `fuzz_wire` bin
//! for long campaigns, which minimizes crashers ([`minimize`]) and
//! writes them under `corpus/crashers/` to be pinned as regression
//! fixtures.

pub mod corpus;
pub mod grammar;
pub mod minimize;
pub mod mutate;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod runner;

pub use oracle::Outcome;
pub use report::Summary;
pub use rng::{derive_seed, FuzzRng};
pub use runner::{run, Config};
