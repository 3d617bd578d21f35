//! Strategy vectors and strategy matrices (paper Eq. 1–2, Figure 2).
//!
//! The strategy of user `i` is the vector `s_i = (k_{i,1}, …, k_{i,|C|})`
//! giving the number of its radios on each channel; the joint strategy of
//! all users is the matrix `S` whose rows are the `s_i`.

use crate::error::Error;
use crate::types::{ChannelId, UserId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One user's channel-allocation vector `s_i` (paper Eq. 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StrategyVector(Vec<u32>);

impl StrategyVector {
    /// A vector of zeros over `n_channels` channels (no radios deployed).
    pub fn zeros(n_channels: usize) -> Self {
        StrategyVector(vec![0; n_channels])
    }

    /// Wrap an explicit per-channel count vector.
    pub fn from_counts(counts: Vec<u32>) -> Self {
        StrategyVector(counts)
    }

    /// Number of channels this vector spans.
    pub fn n_channels(&self) -> usize {
        self.0.len()
    }

    /// Radios this user placed on `channel` (the paper's `k_{i,c}`).
    #[inline]
    pub fn on_channel(&self, channel: ChannelId) -> u32 {
        self.0[channel.0]
    }

    /// Total radios in use, `k_i = Σ_c k_{i,c}`.
    pub fn radios_in_use(&self) -> u32 {
        self.0.iter().sum()
    }

    /// The set of channels used by this user (the paper's `C_i`).
    pub fn used_channels(&self) -> Vec<ChannelId> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(c, &k)| (k > 0).then_some(ChannelId(c)))
            .collect()
    }

    /// Raw counts slice.
    pub fn counts(&self) -> &[u32] {
        &self.0
    }

    /// Mutable raw counts slice (for in-place construction).
    pub fn counts_mut(&mut self) -> &mut [u32] {
        &mut self.0
    }
}

impl fmt::Display for StrategyVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, k) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, ")")
    }
}

/// The joint strategy matrix `S` (paper Eq. 2, Figure 2): row `i` is user
/// `i`'s strategy vector.
///
/// Every quantity of the game reads `S` only through the channel loads
/// `k_c = Σ_i k_{i,c}` and the acting user's row, so the matrix keeps its
/// load vector beside the rows: every mutation ([`set`](Self::set),
/// [`move_radio`](Self::move_radio),
/// [`set_user_strategy`](Self::set_user_strategy)) updates it, and
/// [`channel_load`](Self::channel_load) is an `O(1)` read. The loads are
/// derived data: the serialized form is the rows only, and a deserialized
/// matrix recounts them.
///
/// ```
/// use mrca_core::{StrategyMatrix, UserId, ChannelId};
///
/// // The exact matrix of the paper's Figure 2 (|N| = 4, |C| = 5).
/// let s = StrategyMatrix::from_rows(&[
///     vec![1, 1, 1, 1, 0], // u1
///     vec![1, 0, 1, 0, 1], // u2 (alone on c5, k_u2 = 3)
///     vec![1, 2, 0, 1, 0], // u3 (stacks two radios on c2)
///     vec![1, 0, 0, 1, 0], // u4 (k_u4 = 2)
/// ]).unwrap();
/// assert_eq!(s.get(UserId(2), ChannelId(1)), 2); // u3 stacks c2
/// assert_eq!(s.channel_load(ChannelId(0)), 4);   // everyone is on c1
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(from = "Cells")]
pub struct StrategyMatrix {
    data: Vec<u32>,
    n_users: usize,
    n_channels: usize,
    /// `loads[c] = Σ_i data[i·|C| + c]`, kept exact by every mutation.
    #[serde(skip_serializing)]
    loads: Vec<u32>,
}

/// The serialized form of a [`StrategyMatrix`]: its cells without the
/// derived loads, which [`From`] recounts.
#[derive(Deserialize)]
struct Cells {
    data: Vec<u32>,
    n_users: usize,
    n_channels: usize,
}

impl From<Cells> for StrategyMatrix {
    fn from(cells: Cells) -> Self {
        let mut loads = vec![0u32; cells.n_channels];
        for row in cells.data.chunks(cells.n_channels.max(1)) {
            for (l, &v) in loads.iter_mut().zip(row) {
                *l += v;
            }
        }
        StrategyMatrix {
            data: cells.data,
            n_users: cells.n_users,
            n_channels: cells.n_channels,
            loads,
        }
    }
}

impl StrategyMatrix {
    /// All-zero matrix for `n_users × n_channels`.
    pub fn zeros(n_users: usize, n_channels: usize) -> Self {
        StrategyMatrix {
            data: vec![0; n_users * n_channels],
            n_users,
            n_channels,
            loads: vec![0; n_channels],
        }
    }

    /// Build from per-user rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStrategy`] if rows have differing lengths or
    /// the matrix is empty.
    pub fn from_rows(rows: &[Vec<u32>]) -> Result<Self, Error> {
        if rows.is_empty() {
            return Err(Error::strategy("matrix needs at least one row"));
        }
        let n_channels = rows[0].len();
        if n_channels == 0 {
            return Err(Error::strategy("matrix needs at least one column"));
        }
        let mut data = Vec::with_capacity(rows.len() * n_channels);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n_channels {
                return Err(Error::strategy(format!(
                    "row {i} has {} columns, expected {n_channels}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(Cells {
            data,
            n_users: rows.len(),
            n_channels,
        }
        .into())
    }

    /// Number of users (rows).
    #[inline]
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of channels (columns).
    #[inline]
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// The paper's `k_{i,c}`: radios of `user` on `channel`.
    #[inline]
    pub fn get(&self, user: UserId, channel: ChannelId) -> u32 {
        debug_assert!(user.0 < self.n_users && channel.0 < self.n_channels);
        self.data[user.0 * self.n_channels + channel.0]
    }

    /// Set `k_{i,c}` (and the load `k_c` with it).
    #[inline]
    pub fn set(&mut self, user: UserId, channel: ChannelId, value: u32) {
        debug_assert!(user.0 < self.n_users && channel.0 < self.n_channels);
        let cell = &mut self.data[user.0 * self.n_channels + channel.0];
        let load = &mut self.loads[channel.0];
        *load = *load - *cell + value;
        *cell = value;
    }

    /// Move one radio of `user` from channel `b` to channel `c` in place.
    ///
    /// # Panics
    ///
    /// Panics if the user has no radio on `b`.
    pub fn move_radio(&mut self, user: UserId, b: ChannelId, c: ChannelId) {
        let kb = self.get(user, b);
        assert!(kb > 0, "{user} has no radio on {b} to move");
        self.set(user, b, kb - 1);
        let kc = self.get(user, c);
        self.set(user, c, kc + 1);
    }

    /// Row `i` as a borrowed count slice (no allocation; the sparse
    /// bridge and hot read paths use this instead of
    /// [`user_strategy`](Self::user_strategy)'s clone).
    #[inline]
    pub fn row(&self, user: UserId) -> &[u32] {
        let start = user.0 * self.n_channels;
        &self.data[start..start + self.n_channels]
    }

    /// Row `i` as a [`StrategyVector`] (the paper's `s_i`).
    pub fn user_strategy(&self, user: UserId) -> StrategyVector {
        let start = user.0 * self.n_channels;
        StrategyVector(self.data[start..start + self.n_channels].to_vec())
    }

    /// Replace row `i` with `strategy`.
    ///
    /// # Panics
    ///
    /// Panics if the vector spans a different number of channels.
    pub fn set_user_strategy(&mut self, user: UserId, strategy: &StrategyVector) {
        assert_eq!(
            strategy.n_channels(),
            self.n_channels,
            "strategy vector has wrong channel count"
        );
        let start = user.0 * self.n_channels;
        let row = &mut self.data[start..start + self.n_channels];
        for ((cell, load), &value) in row.iter_mut().zip(&mut self.loads).zip(strategy.counts()) {
            *load = *load - *cell + value;
            *cell = value;
        }
    }

    /// Total radios of `user` in use (the paper's `k_i`).
    pub fn user_total(&self, user: UserId) -> u32 {
        let start = user.0 * self.n_channels;
        self.data[start..start + self.n_channels].iter().sum()
    }

    /// Radios on `channel` across all users (the paper's `k_c`), `O(1)`.
    #[inline]
    pub fn channel_load(&self, channel: ChannelId) -> u32 {
        self.loads[channel.0]
    }

    /// Load vector `(k_{c_1}, …, k_{c_|C|})`, borrowed.
    #[inline]
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// `δ_{b,c} = k_b − k_c` (paper Eq. 6), as a signed value.
    pub fn delta(&self, b: ChannelId, c: ChannelId) -> i64 {
        self.channel_load(b) as i64 - self.channel_load(c) as i64
    }

    /// Maximum load difference over all channel pairs,
    /// `max_{b,c} δ_{b,c}`. Proposition 1: every NE has `≤ 1`.
    pub fn max_delta(&self) -> u32 {
        let loads = self.loads();
        let max = *loads.iter().max().expect("at least one channel");
        let min = *loads.iter().min().expect("at least one channel");
        max - min
    }

    /// Channels with maximal load (the paper's `C_max`).
    pub fn c_max(&self) -> Vec<ChannelId> {
        let loads = self.loads();
        let max = *loads.iter().max().expect("at least one channel");
        loads
            .iter()
            .enumerate()
            .filter_map(|(c, &l)| (l == max).then_some(ChannelId(c)))
            .collect()
    }

    /// Channels with minimal load (the paper's `C_min`).
    pub fn c_min(&self) -> Vec<ChannelId> {
        let loads = self.loads();
        let min = *loads.iter().min().expect("at least one channel");
        loads
            .iter()
            .enumerate()
            .filter_map(|(c, &l)| (l == min).then_some(ChannelId(c)))
            .collect()
    }
}

impl fmt::Display for StrategyMatrix {
    /// Renders in the style of the paper's Figure 2.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "      ")?;
        for c in 0..self.n_channels {
            write!(f, "{:>4}", ChannelId(c).to_string())?;
        }
        writeln!(f)?;
        for i in 0..self.n_users {
            write!(f, "{:>4} |", UserId(i).to_string())?;
            for c in 0..self.n_channels {
                write!(f, "{:>4}", self.get(UserId(i), ChannelId(c)))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact matrix of the paper's Figure 2, with rows pinned by the
    /// in-text constraints: c5 is occupied only by u2, k_{u2} = 3,
    /// k_{u4} = 2, u3 stacks two radios on c2.
    pub(crate) fn figure2() -> StrategyMatrix {
        StrategyMatrix::from_rows(&[
            vec![1, 1, 1, 1, 0],
            vec![1, 0, 1, 0, 1],
            vec![1, 2, 0, 1, 0],
            vec![1, 0, 0, 1, 0],
        ])
        .unwrap()
    }

    #[test]
    fn figure2_loads_match_figure1() {
        let s = figure2();
        // Figure 1: c1 carries 4 radios, c2 carries 3 (u3 twice, u1 once),
        // c3 carries 2, c4 carries 3, c5 carries 1.
        assert_eq!(s.loads(), vec![4, 3, 2, 3, 1]);
        assert_eq!(s.channel_load(ChannelId(0)), 4);
    }

    #[test]
    fn figure2_user_totals_match_paper() {
        let s = figure2();
        // Paper: k_{u1} = 4, k_{u2} = 3, k_{u3} = 4, k_{u4} = 2 — users u2
        // and u4 are not using all of their radios (Lemma 1 violation).
        assert_eq!(s.user_total(UserId(0)), 4);
        assert_eq!(s.user_total(UserId(1)), 3);
        assert_eq!(s.user_total(UserId(2)), 4);
        assert_eq!(s.user_total(UserId(3)), 2);
    }

    #[test]
    fn cmax_cmin_match_paper_example() {
        let s = figure2();
        // Paper: Cmax = {c1}, Cmin = {c5}, Crem = {c2, c3, c4}.
        assert_eq!(s.c_max(), vec![ChannelId(0)]);
        assert_eq!(s.c_min(), vec![ChannelId(4)]);
        assert_eq!(s.max_delta(), 3);
    }

    #[test]
    fn delta_is_signed() {
        let s = figure2();
        assert_eq!(s.delta(ChannelId(0), ChannelId(4)), 3);
        assert_eq!(s.delta(ChannelId(4), ChannelId(0)), -3);
        assert_eq!(s.delta(ChannelId(1), ChannelId(3)), 0);
    }

    #[test]
    fn move_radio_updates_both_channels() {
        let mut s = figure2();
        s.move_radio(UserId(2), ChannelId(1), ChannelId(4));
        assert_eq!(s.get(UserId(2), ChannelId(1)), 1);
        assert_eq!(s.get(UserId(2), ChannelId(4)), 1);
        assert_eq!(s.loads(), vec![4, 2, 2, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "no radio")]
    fn move_radio_from_empty_panics() {
        let mut s = figure2();
        // u4 has no radio on c3.
        s.move_radio(UserId(3), ChannelId(2), ChannelId(4));
    }

    #[test]
    fn validate_against_config() {
        use crate::br_dp::validate;
        use crate::config::GameConfig;
        use crate::game::ChannelAllocationGame;
        let game = |n, k, c| {
            ChannelAllocationGame::with_constant_rate(GameConfig::new(n, k, c).unwrap(), 1.0)
        };
        validate(&game(4, 4, 5), &figure2()).unwrap();
        // Shrinking the budget makes u1 (4 radios) over budget.
        assert!(validate(&game(4, 3, 5), &figure2()).is_err());
        // Wrong shape.
        assert!(validate(&game(4, 4, 6), &figure2()).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = StrategyMatrix::from_rows(&[vec![1, 0], vec![1]]).unwrap_err();
        assert!(err.to_string().contains("row 1"));
        assert!(StrategyMatrix::from_rows(&[]).is_err());
    }

    #[test]
    fn user_strategy_roundtrip() {
        let s = figure2();
        let row = s.user_strategy(UserId(2));
        assert_eq!(row.counts(), &[1, 2, 0, 1, 0]);
        assert_eq!(row.radios_in_use(), 4);
        assert_eq!(
            row.used_channels(),
            vec![ChannelId(0), ChannelId(1), ChannelId(3)]
        );
        let mut s2 = s.clone();
        s2.set_user_strategy(UserId(0), &row);
        assert_eq!(s2.user_strategy(UserId(0)), row);
    }

    #[test]
    fn display_contains_figure2_layout() {
        let text = figure2().to_string();
        assert!(text.contains("c1"));
        assert!(text.contains("u4"));
    }

    #[test]
    fn strategy_vector_display() {
        let v = StrategyVector::from_counts(vec![1, 0, 2]);
        assert_eq!(v.to_string(), "(1 0 2)");
    }
}
