//! The per-channel load vector of the sparse engine and the spatial view.
//!
//! Every quantity of the paper's game (Eq. 3 utilities, the Eq. 7 benefit
//! of change Δ, best responses, the Nash check, the Theorem-1 predicates)
//! depends on the strategy profile only through the per-channel loads
//! `k_c = Σ_i k_{i,c}` and the acting user's own row. The dense
//! [`crate::StrategyMatrix`] keeps its own loads; the large-N
//! [`SparseStrategies`](crate::sparse::SparseStrategies) does not, so its
//! drivers keep a [`ChannelLoads`] beside it, built once by
//! [`ChannelLoads::of_sparse`] (`O(Σ_i k_i)`) and kept exact under the
//! one mutation the engine performs:
//! [`replace_sparse_row`](ChannelLoads::replace_sparse_row), a user
//! swapping its whole sparse row (`O(k)`).
//!
//! The spatial engine ([`crate::spatial`]) reuses the type as a scratch
//! view of one user's neighborhood loads, so the knapsack DP reads the
//! same shape on both paths.

use crate::types::ChannelId;
use serde::{Deserialize, Serialize};

/// Channel-load vector `(k_{c_1}, …, k_{c_|C|})` kept beside a
/// [`SparseStrategies`](crate::sparse::SparseStrategies) and exact under
/// incremental updates (or a scratch view of one neighborhood's loads).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChannelLoads {
    loads: Vec<u32>,
}

impl ChannelLoads {
    /// Compute the loads of a sparse strategy set in one pass over its
    /// occupied entries (`O(Σ_i k_i)`) — the dense-matrix-free
    /// constructor of the large-N path.
    pub fn of_sparse(s: &crate::sparse::SparseStrategies) -> Self {
        s.loads()
    }

    /// Wrap an explicit per-channel count vector, `loads[c] = k_c`. The
    /// caller vouches that it matches the strategies it is used with.
    pub fn from_vec(loads: Vec<u32>) -> Self {
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

    /// Record a user replacing its sparse row `old → new` (`O(k)` — only
    /// the occupied entries are touched).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseStrategies;
    use crate::strategy::StrategyMatrix;

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
        let loads = ChannelLoads::of_sparse(&SparseStrategies::from(&s));
        assert_eq!(loads.as_slice(), s.loads());
        assert_eq!(loads.as_slice().iter().sum::<u32>(), 13);
        assert_eq!(loads.max_delta(), s.max_delta());
    }

    #[test]
    fn replace_sparse_row_tracks_a_row_swap() {
        let mut loads = ChannelLoads::from_vec(vec![0, 2, 1]);
        loads.replace_sparse_row(&[(1, 2)], &[(0, 1), (2, 1)]);
        assert_eq!(loads.load(ChannelId(0)), 1);
        assert_eq!(loads.as_slice(), &[1, 0, 2]);
    }

    /// The paranoid gate must be callable (and silent on a consistent
    /// cache) in *every* feature/profile combination — this test compiles
    /// and runs with and without `--no-default-features`, which is what
    /// pins "the gate compiles both ways".
    #[test]
    fn paranoid_check_accepts_consistent_cache_under_any_features() {
        let s = SparseStrategies::from(&figure2());
        s.paranoid_check(&ChannelLoads::of_sparse(&s));
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
        let s = SparseStrategies::from(&figure2());
        let mut drifted = ChannelLoads::of_sparse(&s).as_slice().to_vec();
        drifted[0] += 1; // drift the cache
        s.paranoid_check(&ChannelLoads::from_vec(drifted));
    }
}
