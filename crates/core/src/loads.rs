//! Cached per-channel load vector — the incremental-evaluation core.
//!
//! Every quantity of the paper's game (Eq. 3 utilities, the Eq. 7 benefit
//! of change Δ, best responses, the Nash check, the Theorem-1 predicates)
//! depends on the strategy matrix `S` only through the per-channel loads
//! `k_c = Σ_i k_{i,c}` and the acting user's own row. Recomputing a load
//! is `O(|N|)` per channel ([`StrategyMatrix::channel_load`]), so naive
//! evaluation of a candidate move costs `O(|N|·|C|)` — and the original
//! implementation additionally *cloned* the matrix per candidate.
//!
//! [`ChannelLoads`] caches the load vector once (`O(|N|·|C|)`) and then
//! keeps it exact under the three strategy-matrix mutations the game ever
//! performs, each in `O(1)`–`O(|C|)`:
//!
//! * [`apply_move`](ChannelLoads::apply_move) — one radio hops `b → c`
//!   (`O(1)`),
//! * [`add_radio`](ChannelLoads::add_radio) /
//!   [`remove_radio`](ChannelLoads::remove_radio) — a radio is deployed or
//!   parked (`O(1)`),
//! * [`replace_row`](ChannelLoads::replace_row) — a user swaps its whole
//!   strategy vector (`O(|C|)`).
//!
//! With the cache in hand, `ChannelAllocationGame::benefit_of_move_cached`
//! evaluates Eq. 7 in `O(1)` and the dynamics loops evaluate a full round
//! without a single matrix clone. A dedicated property test
//! (`crates/core/tests/incremental_equiv.rs`) pins the cached path to the
//! naive recompute-from-scratch path across random games: exactly for the
//! load-reading entry points, and to a 1e-9 relative tolerance for the
//! four-term Δ versus its clone-and-recompute oracle (same terms, summed
//! in a different order).

use crate::strategy::{StrategyMatrix, StrategyVector};
use crate::types::ChannelId;
use serde::{Deserialize, Serialize};

/// Cached channel-load vector `(k_{c_1}, …, k_{c_|C|})` of a strategy
/// matrix, kept exact under incremental updates.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChannelLoads {
    loads: Vec<u32>,
}

impl ChannelLoads {
    /// Compute the loads of `s` from scratch (`O(|N|·|C|)`), delegating
    /// to [`StrategyMatrix::loads`] so there is exactly one definition of
    /// the load vector.
    pub fn of(s: &StrategyMatrix) -> Self {
        ChannelLoads { loads: s.loads() }
    }

    /// Compute the loads of a sparse strategy set in one pass over its
    /// occupied entries (`O(Σ_i k_i)`) — the dense-matrix-free
    /// constructor of the large-N path.
    pub fn of_sparse(s: &crate::sparse::SparseStrategies) -> Self {
        s.loads()
    }

    /// Wrap an explicit load vector (used by the sparse constructor; the
    /// caller vouches for consistency).
    pub(crate) fn from_vec(loads: Vec<u32>) -> Self {
        ChannelLoads { loads }
    }

    /// All-zero loads over `n_channels` channels (an empty deployment).
    pub fn zeros(n_channels: usize) -> Self {
        ChannelLoads {
            loads: vec![0; n_channels],
        }
    }

    /// Overwrite the cached vector from a raw per-channel slice, reusing
    /// the allocation. This is how the spatial engine ([`crate::spatial`])
    /// materializes a user's *neighborhood* load view in the exact shape
    /// the shared knapsack DP consumes — so the per-channel
    /// arithmetic inside it is the same code (and the same floats) on
    /// the global and the per-neighborhood path.
    pub(crate) fn copy_from_slice(&mut self, loads: &[u32]) {
        self.loads.clear();
        self.loads.extend_from_slice(loads);
    }

    /// Size the vector to `n` zeroed cells if it is not already that
    /// shape. The neighborhood index materializes its CSR rows through
    /// this view with the sparse-set trick — fill the occupied
    /// cells, run the DP, clear the same cells — so between uses the
    /// view is all zeros and this call is an `O(1)` length check, not an
    /// `O(|C|)` wipe.
    pub(crate) fn ensure_zeroed(&mut self, n: usize) {
        if self.loads.len() != n {
            self.loads.clear();
            self.loads.resize(n, 0);
        }
        #[cfg(feature = "paranoid-checks")]
        debug_assert!(
            self.loads.iter().all(|&l| l == 0),
            "scratch view not cleared between materializations"
        );
    }

    /// Raw cell write for the sparse-set fill/clear above.
    #[inline]
    pub(crate) fn set_raw(&mut self, c: usize, v: u32) {
        self.loads[c] = v;
    }

    /// Number of channels tracked.
    #[inline]
    pub fn n_channels(&self) -> usize {
        self.loads.len()
    }

    /// The cached `k_c`.
    #[inline]
    pub fn load(&self, c: ChannelId) -> u32 {
        self.loads[c.0]
    }

    /// The raw load slice.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.loads
    }

    /// Total deployed radios `Σ_c k_c`.
    pub fn total(&self) -> u32 {
        self.loads.iter().sum()
    }

    /// Record one radio moving from channel `b` to channel `c` (`O(1)`).
    ///
    /// # Panics
    ///
    /// Panics if `b` carries no radio.
    #[inline]
    pub fn apply_move(&mut self, b: ChannelId, c: ChannelId) {
        assert!(self.loads[b.0] > 0, "no radio on {b} to move");
        if b == c {
            return;
        }
        self.loads[b.0] -= 1;
        self.loads[c.0] += 1;
    }

    /// Record a radio deployed on `c` (`O(1)`).
    #[inline]
    pub fn add_radio(&mut self, c: ChannelId) {
        self.loads[c.0] += 1;
    }

    /// Record a radio parked from `c` (`O(1)`).
    ///
    /// # Panics
    ///
    /// Panics if `c` carries no radio.
    #[inline]
    pub fn remove_radio(&mut self, c: ChannelId) {
        assert!(self.loads[c.0] > 0, "no radio on {c} to remove");
        self.loads[c.0] -= 1;
    }

    /// Record a user replacing its whole row `old → new` (`O(|C|)`).
    ///
    /// # Panics
    ///
    /// Panics if the vectors span a different channel count than the cache,
    /// or if the swap would drive some load negative (i.e. `old` was not
    /// the user's actual current row).
    pub fn replace_row(&mut self, old: &StrategyVector, new: &StrategyVector) {
        assert_eq!(old.n_channels(), self.loads.len(), "old row shape");
        assert_eq!(new.n_channels(), self.loads.len(), "new row shape");
        for (c, l) in self.loads.iter_mut().enumerate() {
            let before = old.counts()[c];
            let after = new.counts()[c];
            *l = l
                .checked_sub(before)
                .expect("replace_row: old row exceeds cached load")
                + after;
        }
    }

    /// Record a user replacing its sparse row `old → new` (`O(k)` — only
    /// the occupied entries are touched, the sparse counterpart of
    /// [`replace_row`](Self::replace_row)).
    ///
    /// # Panics
    ///
    /// Panics if an entry's channel is out of range or the swap would
    /// drive some load negative (i.e. `old` was not the user's actual
    /// current row).
    pub fn replace_sparse_row(
        &mut self,
        old: &[crate::sparse::SparseEntry],
        new: &[crate::sparse::SparseEntry],
    ) {
        for &(c, k) in old {
            let l = &mut self.loads[c as usize];
            *l = l
                .checked_sub(k)
                .expect("replace_sparse_row: old row exceeds cached load");
        }
        for &(c, k) in new {
            self.loads[c as usize] += k;
        }
    }

    /// `max_c k_c − min_c k_c` (Proposition 1: `≤ 1` at every NE).
    pub fn max_delta(&self) -> u32 {
        let max = self.loads.iter().max().expect("at least one channel");
        let min = self.loads.iter().min().expect("at least one channel");
        max - min
    }

    /// Debug-only consistency check against a matrix.
    pub fn is_consistent_with(&self, s: &StrategyMatrix) -> bool {
        self.loads == s.loads()
    }

    /// Feature-gated stale-cache assertion used by every `*_cached` entry
    /// point: an `O(|N|·|C|)` recompute-and-compare that catches cache
    /// drift at the call site instead of as a wrong result downstream.
    ///
    /// Compiled in only under the `paranoid-checks` cargo feature (default
    /// **on**, so `cargo test` gets it) *and* `debug_assertions` (so
    /// release builds never pay for it). Property suites at
    /// production-scale instance sizes can build with
    /// `--no-default-features` to strip the quadratic check from debug
    /// binaries too.
    #[inline]
    pub fn paranoid_check(&self, s: &StrategyMatrix) {
        #[cfg(feature = "paranoid-checks")]
        debug_assert!(self.is_consistent_with(s), "stale load cache");
        #[cfg(not(feature = "paranoid-checks"))]
        let _ = s;
    }
}

impl From<&StrategyMatrix> for ChannelLoads {
    fn from(s: &StrategyMatrix) -> Self {
        ChannelLoads::of(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::UserId;

    fn figure2() -> StrategyMatrix {
        StrategyMatrix::from_rows(&[
            vec![1, 1, 1, 1, 0],
            vec![1, 0, 1, 0, 1],
            vec![1, 2, 0, 1, 0],
            vec![1, 0, 0, 1, 0],
        ])
        .unwrap()
    }

    #[test]
    fn of_matches_matrix_loads() {
        let s = figure2();
        let loads = ChannelLoads::of(&s);
        assert_eq!(loads.as_slice(), s.loads().as_slice());
        assert_eq!(loads.total(), 13);
        assert_eq!(loads.max_delta(), s.max_delta());
        assert!(loads.is_consistent_with(&s));
    }

    #[test]
    fn apply_move_tracks_matrix_move() {
        let mut s = figure2();
        let mut loads = ChannelLoads::of(&s);
        s.move_radio(UserId(2), ChannelId(1), ChannelId(4));
        loads.apply_move(ChannelId(1), ChannelId(4));
        assert!(loads.is_consistent_with(&s));
        // Same-channel move is a no-op.
        loads.apply_move(ChannelId(0), ChannelId(0));
        assert!(loads.is_consistent_with(&s));
    }

    #[test]
    fn add_remove_radio() {
        let mut loads = ChannelLoads::zeros(3);
        loads.add_radio(ChannelId(1));
        loads.add_radio(ChannelId(1));
        loads.remove_radio(ChannelId(1));
        assert_eq!(loads.as_slice(), &[0, 1, 0]);
    }

    #[test]
    fn replace_row_tracks_set_user_strategy() {
        let mut s = figure2();
        let mut loads = ChannelLoads::of(&s);
        let old = s.user_strategy(UserId(1));
        let new = StrategyVector::from_counts(vec![0, 2, 0, 1, 1]);
        s.set_user_strategy(UserId(1), &new);
        loads.replace_row(&old, &new);
        assert!(loads.is_consistent_with(&s));
    }

    #[test]
    #[should_panic(expected = "old row exceeds")]
    fn replace_row_detects_stale_old_row() {
        let s = figure2();
        let mut loads = ChannelLoads::of(&s);
        // Claim a user had 9 radios on c1 — impossible.
        let bogus = StrategyVector::from_counts(vec![9, 0, 0, 0, 0]);
        loads.replace_row(&bogus, &StrategyVector::zeros(5));
    }

    #[test]
    #[should_panic(expected = "no radio")]
    fn moving_from_empty_channel_panics() {
        let mut loads = ChannelLoads::zeros(2);
        loads.apply_move(ChannelId(0), ChannelId(1));
    }

    /// The paranoid gate must be callable (and silent on a consistent
    /// cache) in *every* feature/profile combination — this test compiles
    /// and runs with and without `--no-default-features`, which is what
    /// pins "the gate compiles both ways".
    #[test]
    fn paranoid_check_accepts_consistent_cache_under_any_features() {
        let s = figure2();
        let loads = ChannelLoads::of(&s);
        loads.paranoid_check(&s);
        // Document which configuration this run exercised.
        let gated = cfg!(feature = "paranoid-checks");
        let debug = cfg!(debug_assertions);
        // The check is active iff both hold; either way the call above
        // must not panic on a consistent pair.
        let _ = (gated, debug);
    }

    #[cfg(all(feature = "paranoid-checks", debug_assertions))]
    #[test]
    #[should_panic(expected = "stale load cache")]
    fn paranoid_check_catches_stale_cache_when_enabled() {
        let s = figure2();
        let mut loads = ChannelLoads::of(&s);
        loads.add_radio(ChannelId(0)); // drift the cache
        loads.paranoid_check(&s);
    }
}
