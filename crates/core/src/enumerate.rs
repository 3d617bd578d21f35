//! Enumeration of strategy vectors and whole allocations.
//!
//! Used by the cross-validation experiments (T1): on small instances we
//! enumerate *every* strategy matrix, classify each by brute force (exact
//! best-response check) and by Theorem 1, and require 100% agreement.

use crate::config::GameConfig;
use crate::strategy::{StrategyMatrix, StrategyVector};
use crate::types::UserId;

/// All strategy vectors of one user over `n_channels` channels with at
/// most `k` radios: every non-negative integer vector with sum `≤ k`.
///
/// The count is `C(n_channels + k, k)` (weak compositions of all budgets
/// `0..=k`), e.g. 35 vectors for `k = 3, |C| = 4`.
///
/// ```
/// use mrca_core::enumerate::user_strategy_space;
/// let space = user_strategy_space(2, 2);
/// // sums 0, 1, 2 over two channels: (0,0),(0,1),(0,2),(1,0),(1,1),(2,0).
/// assert_eq!(space.len(), 6);
/// ```
pub fn user_strategy_space(n_channels: usize, k: u32) -> Vec<StrategyVector> {
    let mut out = Vec::new();
    let mut current = vec![0u32; n_channels];
    fn rec(current: &mut Vec<u32>, pos: usize, remaining: u32, out: &mut Vec<StrategyVector>) {
        if pos == current.len() {
            out.push(StrategyVector::from_counts(current.clone()));
            return;
        }
        for t in 0..=remaining {
            current[pos] = t;
            rec(current, pos + 1, remaining - t, out);
        }
        current[pos] = 0;
    }
    rec(&mut current, 0, k, &mut out);
    out.sort_by(|a, b| a.counts().cmp(b.counts()));
    out
}

/// All strategy vectors using *exactly* `k` radios (the sub-space Lemma 1
/// confines equilibria to).
pub fn full_strategy_space(n_channels: usize, k: u32) -> Vec<StrategyVector> {
    user_strategy_space(n_channels, k)
        .into_iter()
        .filter(|v| v.radios_in_use() == k)
        .collect()
}

/// Enumerate every strategy matrix of the game (each user independently
/// ranging over [`user_strategy_space`]) and call `f` on each.
///
/// The total count is `C(|C|+k, k)^{|N|}`; callers must keep instances
/// small. Enumeration reuses a single matrix buffer, so `f` must not
/// retain references. Each step replaces one user row, so the matrix's
/// kept loads follow in `O(|C|)` and the callback's utilities and Nash
/// checks never recount them.
pub fn enumerate_allocations<F>(cfg: &GameConfig, mut f: F)
where
    F: FnMut(&StrategyMatrix),
{
    let space = user_strategy_space(cfg.n_channels(), cfg.radios_per_user());
    let n = cfg.n_users();
    let mut indices = vec![0usize; n];
    let mut matrix = StrategyMatrix::zeros(n, cfg.n_channels());
    for i in 0..n {
        matrix.set_user_strategy(UserId(i), &space[0]);
    }
    loop {
        f(&matrix);
        // Advance the mixed-radix counter over user strategies.
        let mut pos = n;
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            indices[pos] += 1;
            if indices[pos] < space.len() {
                matrix.set_user_strategy(UserId(pos), &space[indices[pos]]);
                break;
            }
            indices[pos] = 0;
            matrix.set_user_strategy(UserId(pos), &space[0]);
        }
    }
}

/// Number of strategy matrices [`enumerate_allocations`] will visit.
pub fn allocation_count(cfg: &GameConfig) -> u128 {
    let per_user = user_strategy_space(cfg.n_channels(), cfg.radios_per_user()).len() as u128;
    per_user.pow(cfg.n_users() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binom(n: u64, k: u64) -> u64 {
        let mut r = 1u64;
        for i in 0..k {
            r = r * (n - i) / (i + 1);
        }
        r
    }

    #[test]
    fn space_size_is_binomial() {
        for (c, k) in [(2usize, 2u32), (3, 2), (4, 3), (5, 4)] {
            let space = user_strategy_space(c, k);
            let expected = binom((c as u64) + (k as u64), k as u64);
            assert_eq!(space.len() as u64, expected, "c={c}, k={k}");
        }
    }

    #[test]
    fn space_entries_are_unique_and_within_budget() {
        let space = user_strategy_space(3, 3);
        for v in &space {
            assert!(v.radios_in_use() <= 3);
        }
        let mut sorted: Vec<_> = space.iter().map(|v| v.counts().to_vec()).collect();
        sorted.dedup();
        assert_eq!(sorted.len(), space.len());
    }

    #[test]
    fn full_space_uses_exactly_k() {
        let space = full_strategy_space(3, 2);
        // Weak compositions of 2 into 3 parts: C(4,2) = 6.
        assert_eq!(space.len(), 6);
        assert!(space.iter().all(|v| v.radios_in_use() == 2));
    }

    #[test]
    fn enumeration_visits_every_profile_once() {
        let cfg = GameConfig::new(2, 1, 2).unwrap();
        // Per-user space: (0,0),(0,1),(1,0) → 3; total 9 matrices.
        let mut seen = Vec::new();
        enumerate_allocations(&cfg, |m| {
            seen.push(format!(
                "{:?}",
                (m.user_strategy(UserId(0)), m.user_strategy(UserId(1)))
            ));
        });
        assert_eq!(seen.len(), 9);
        let mut dedup = seen.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 9, "profiles must be distinct");
        assert_eq!(allocation_count(&cfg), 9);
    }

    #[test]
    fn allocation_count_matches_enumeration() {
        let cfg = GameConfig::new(2, 2, 2).unwrap();
        let mut n = 0u128;
        enumerate_allocations(&cfg, |_| n += 1);
        assert_eq!(n, allocation_count(&cfg));
        assert_eq!(n, 36); // 6 vectors per user, squared
    }
}
