//! `bench-suite` — the paper's reproduction CLI and two gate binaries.
//!
//! The `repro` binary regenerates every table and figure. The
//! `bench_hotpath` binary gates the resolution hot path against
//! `BENCH_hotpath.json` (zero allocations per cached hit; see
//! `hotpath`), and `bench_city` gates the metro-scale simulator against
//! `BENCH_city.json`. Timing the implementation layer by layer is
//! `perfbench`'s job (`perfbench/README.md`).

pub mod hotpath;
