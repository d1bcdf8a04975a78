//! The serving workloads' query streams, generated from the seed.
//!
//! A stream is a list of content ranks; rank `k` asks for
//! `ServeTopology::content_name(k)`. Queries are assembled from a wire
//! template instead of through `dns_wire::Name`, because building a
//! `Name` interns it in the process-wide table: the client must not
//! intern names before the server sees them, or the server's interner
//! growth would be charged to the client.

use cdn_sim::ServeTopology;
use dns_wire::{Message, Opt, RrType};
use std::io::Write;
use workload::Zipf;

/// Names in the `serve-hit` population, well under the 4,096-entry
/// L-DNS cache.
pub const HIT_NAMES: usize = 512;
/// Zipf exponent of the `serve-hit` popularity.
pub const HIT_ALPHA: f64 = 1.1;
/// The `serve-miss` population: uniform over 2^26 names, so almost
/// every query names something the cache has never seen.
pub const MISS_POPULATION: u64 = 1 << 26;

/// Which population a stream draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Zipf(1.1) over 512 names: nearly every query hits the cache.
    Hit,
    /// Uniform over 2^26 names: nearly every query misses.
    Miss,
}

/// splitmix64: a tiny, seedable, platform-independent generator.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_u01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The first `n` ranks of the `mix` stream for `seed`.
pub fn ranks(mix: Mix, seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix::new(seed);
    match mix {
        Mix::Hit => {
            let zipf = Zipf::new(HIT_NAMES, HIT_ALPHA);
            (0..n)
                .map(|_| zipf.sample_u01(rng.next_u01()) as u64)
                .collect()
        }
        Mix::Miss => (0..n).map(|_| rng.next_u64() % MISS_POPULATION).collect(),
    }
}

/// Wire bytes of an A query for `content_name(k)` with the default EDNS
/// OPT record — byte for byte what `Message::query(..).encode()` gives.
pub struct QueryTemplate {
    header: [u8; 12],
    /// Everything after the content label: the hosted domain's labels,
    /// the root, QTYPE/QCLASS and the OPT record.
    tail: Vec<u8>,
}

impl QueryTemplate {
    /// Derives the template from one encoded query against `topo`.
    pub fn new(topo: &ServeTopology) -> Self {
        let bytes = encoded_query(topo, 0, 0);
        let mut header = [0u8; 12];
        header.copy_from_slice(&bytes[..12]);
        // Skip the first label, "\x04vod0".
        let first_label = 1 + usize::from(bytes[12]);
        QueryTemplate {
            header,
            tail: bytes[12 + first_label..].to_vec(),
        }
    }

    /// Writes the query for rank `k` with transaction id `id` into `out`.
    pub fn write(&self, id: u16, k: u64, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.header);
        out[..2].copy_from_slice(&id.to_be_bytes());
        out.push((3 + digits(k)) as u8);
        let _ = write!(out, "vod{k}");
        out.extend_from_slice(&self.tail);
    }

    /// Length of the question section of every query this template
    /// writes for rank `k`: the bytes a reply must echo after its header.
    pub fn question_len(&self, k: u64) -> usize {
        let opt_rr = 11;
        1 + 3 + digits(k) + (self.tail.len() - opt_rr)
    }
}

/// Decimal digits in `k`.
fn digits(k: u64) -> usize {
    k.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// The reference encoding, through `dns_wire` (interns the name).
pub fn encoded_query(topo: &ServeTopology, id: u16, k: u64) -> Vec<u8> {
    let mut q = Message::query(id, topo.content_name(k as usize), RrType::A);
    q.edns = Some(Opt::default());
    q.encode().expect("a content query encodes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_identical_for_a_seed() {
        for mix in [Mix::Hit, Mix::Miss] {
            assert_eq!(ranks(mix, 7, 10_000), ranks(mix, 7, 10_000));
            assert_ne!(ranks(mix, 7, 10_000), ranks(mix, 8, 10_000));
        }
    }

    #[test]
    fn the_mixes_have_the_populations_they_promise() {
        let hit = ranks(Mix::Hit, 1, 50_000);
        assert!(hit.iter().all(|&k| k < HIT_NAMES as u64));
        let miss = ranks(Mix::Miss, 1, 50_000);
        let mut distinct = miss.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 49_900, "miss names barely repeat");
    }

    #[test]
    fn the_template_matches_the_reference_encoder() {
        let topo = ServeTopology::default();
        let template = QueryTemplate::new(&topo);
        let mut out = Vec::new();
        for (id, k) in [
            (0u16, 0u64),
            (1, 9),
            (77, 10),
            (65_535, 511),
            (3, 67_108_863),
        ] {
            template.write(id, k, &mut out);
            assert_eq!(out, encoded_query(&topo, id, k), "rank {k}");
            let msg = Message::decode(&out).expect("decodes");
            let opt_rr = 11;
            assert_eq!(template.question_len(k), out.len() - 12 - opt_rr);
            assert_eq!(msg.questions.len(), 1);
        }
    }
}
