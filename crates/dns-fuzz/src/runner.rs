//! The campaign driver: fans cases over threads, byte-identically.
//!
//! Mirrors the experiment runner's design (`mec-cdn::runner`): every
//! case depends only on `(root_seed, case_idx)`, workers claim fixed
//! 4096-case chunks from a shared counter, and chunk results merge
//! through commutative aggregates — so `--threads 1`, `2` and `8`
//! render the same [`Summary`] byte for byte. The chunk size is a
//! constant, *not* a function of the thread count: the set of chunks
//! (and therefore which crashers each chunk retains under its cap) must
//! not depend on scheduling.

use crate::oracle::{self, Outcome};
use crate::report::Summary;
use crate::rng::{derive_seed, FuzzRng};
use crate::{grammar, mutate};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cases per work chunk. Fixed so chunk boundaries — and the per-chunk
/// crasher cap — are identical for every thread count.
const CHUNK: u64 = 4096;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Root seed; every case seed is `derive_seed(root_seed, idx)`.
    pub root_seed: u64,
    /// Number of cases to run.
    pub cases: u64,
    /// Worker threads. `0` means one per available CPU.
    pub threads: usize,
    /// Run the name-key oracle on every Nth case. It is quadratic in
    /// the names of a message, so campaigns sample it; `1` checks every
    /// case, `0` disables the check entirely.
    pub name_key_every: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            root_seed: 0x0D50_00D0_E50F_F1CE, // arbitrary, stable default
            cases: 1_000_000,
            threads: 1,
            name_key_every: 64,
        }
    }
}

/// Generates the input for one case. Which engine runs is itself part
/// of the case's derived randomness: ~55% raw, ~45% grammar.
pub fn generate(rng: &mut FuzzRng, corpus: &[Vec<u8>]) -> Vec<u8> {
    if rng.chance(55) {
        mutate::mutate(rng, corpus)
    } else {
        grammar::mutate(rng, corpus)
    }
}

/// Runs one case end to end: derive seed, generate, judge.
pub fn run_case(cfg: &Config, corpus: &[Vec<u8>], idx: u64) -> (Vec<u8>, Outcome) {
    let mut rng = FuzzRng::new(derive_seed(cfg.root_seed, idx));
    let input = generate(&mut rng, corpus);
    let check_keys = cfg.name_key_every != 0 && idx.is_multiple_of(cfg.name_key_every);
    let outcome = oracle::check(&input, check_keys);
    (input, outcome)
}

fn run_chunk(cfg: &Config, corpus: &[Vec<u8>], start: u64, end: u64) -> Summary {
    let mut s = Summary::default();
    for idx in start..end {
        let (input, outcome) = run_case(cfg, corpus, idx);
        s.record(idx, outcome, &input);
    }
    s
}

/// Runs a whole campaign and returns its summary.
pub fn run(cfg: &Config) -> Summary {
    let corpus = crate::corpus::seeds();
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.threads
    };
    let chunks = cfg.cases.div_ceil(CHUNK);
    let mut total = if threads <= 1 || chunks <= 1 {
        let mut s = Summary::default();
        for c in 0..chunks {
            let start = c * CHUNK;
            let end = (start + CHUNK).min(cfg.cases);
            s.merge(run_chunk(cfg, &corpus, start, end));
        }
        s
    } else {
        let next = AtomicU64::new(0);
        let done: Mutex<Vec<Summary>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..threads.min(chunks as usize) {
                scope.spawn(|| {
                    let mut local = Summary::default();
                    loop {
                        // AcqRel for the same reason as the experiment
                        // runner's claim counter: the claim is the only
                        // synchronization between workers.
                        let c = next.fetch_add(1, Ordering::AcqRel);
                        if c >= chunks {
                            break;
                        }
                        let start = c * CHUNK;
                        let end = (start + CHUNK).min(cfg.cases);
                        local.merge(run_chunk(cfg, &corpus, start, end));
                    }
                    done.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(local);
                });
            }
        });
        let mut s = Summary::default();
        for part in done.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
            s.merge(part);
        }
        s
    };
    total.root_seed = cfg.root_seed;
    assert_eq!(total.cases, cfg.cases, "campaign lost cases");
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_are_byte_identical_across_thread_counts() {
        let base = Config {
            cases: 10_000,
            threads: 1,
            ..Config::default()
        };
        let serial = run(&base).render();
        for threads in [2, 8] {
            let cfg = Config { threads, ..base };
            assert_eq!(run(&cfg).render(), serial, "threads={threads} diverged");
        }
    }

    #[test]
    fn distinct_roots_give_distinct_digests() {
        let a = run(&Config {
            cases: 2_000,
            root_seed: 1,
            ..Config::default()
        });
        let b = run(&Config {
            cases: 2_000,
            root_seed: 2,
            ..Config::default()
        });
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn case_generation_is_replayable_from_index_alone() {
        let cfg = Config::default();
        let corpus = crate::corpus::seeds();
        let (i1, o1) = run_case(&cfg, &corpus, 12345);
        let (i2, o2) = run_case(&cfg, &corpus, 12345);
        assert_eq!(i1, i2);
        assert_eq!(o1, o2);
    }
}
