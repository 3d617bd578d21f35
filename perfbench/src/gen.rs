//! Seeded input generators. Every input the engine sees — start states,
//! node positions, event streams, retune schedules — is drawn here from
//! the workload seed, so the same seed always yields the same inputs and
//! the engine never generates its own.

use mrca_core::{SparseStrategies, UserId};

/// Independent streams drawn from one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Start = 1,
    Positions = 2,
    Events = 3,
}

/// SplitMix64: tiny, fast, and fully specified here, so the inputs do not
/// depend on any library's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: Stream) -> Self {
        let mut r = Rng(seed ^ (stream as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// ranges used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Random full deployment: each of a user's `k` radios lands on an
/// independent uniform channel.
pub fn start_state(n: usize, k: u32, n_channels: usize, rng: &mut Rng) -> SparseStrategies {
    let mut s = SparseStrategies::with_budgets(&vec![k; n], n_channels);
    let mut row: Vec<(u32, u32)> = Vec::with_capacity(k as usize);
    for u in 0..n {
        row.clear();
        for _ in 0..k {
            let c = rng.below(n_channels) as u32;
            match row.iter_mut().find(|(ch, _)| *ch == c) {
                Some((_, cnt)) => *cnt += 1,
                None => row.push((c, 1)),
            }
        }
        row.sort_unstable_by_key(|&(c, _)| c);
        s.set_row(UserId(u), &row);
    }
    s
}

/// `n` node positions uniform in the `side × side` square.
pub fn positions(n: usize, side: f64, rng: &mut Rng) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| (rng.unit() * side, rng.unit() * side))
        .collect()
}

/// FNV-1a over every row: the final-state fingerprint the determinism
/// check compares across passes and runs.
pub fn fingerprint(s: &SparseStrategies) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(s.n_users() as u32);
    for u in 0..s.n_users() {
        let row = s.row(UserId(u));
        eat(row.len() as u32);
        for &(c, k) in row {
            eat(c);
            eat(k);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, Stream::Events), draw(7, Stream::Events));
        assert_ne!(draw(7, Stream::Events), draw(8, Stream::Events));
        assert_ne!(draw(7, Stream::Events), draw(7, Stream::Start));
    }

    #[test]
    fn start_state_deploys_every_radio() {
        let mut r = Rng::new(1, Stream::Start);
        let s = start_state(50, 3, 4, &mut r);
        assert!((0..50).all(|u| s.user_total(UserId(u)) == 3));
    }
}
