//! Sparse strategy storage for the large-N engine.
//!
//! The dense [`StrategyMatrix`] stores `|N|·|C|` counts; at `10⁶` users ×
//! `64` channels that is 256 MB of mostly zeros, because a user with
//! budget `k_i` occupies at most `k_i` distinct channels (each occupied
//! channel carries ≥ 1 of its radios). [`SparseStrategies`] stores each
//! user's row as at most `k_i` `(channel, count)` pairs in one flat CSR
//! (compressed-sparse-row) arena:
//!
//! * per-row slot capacity is fixed at construction (the user's radio
//!   budget), so replacing a row is an in-place `O(k)` write — no
//!   reallocation, no pointer chasing, no per-row `Vec` headers;
//! * total memory is `Θ(Σ_i k_i)`, independent of `|C|` — the ~`|C|/k`
//!   reduction the ROADMAP's "Large-N memory" item called for;
//! * [`ChannelLoads`] is built by [`ChannelLoads::of_sparse`] /
//!   [`SparseStrategies::loads`] in one pass over the occupied entries
//!   (`O(Σ_i k_i)`), never materializing a dense matrix.
//!
//! Dense bridges ([`From`] impls both ways) exist for tests, display and
//! the small-instance experiment paths; the large-N pipeline
//! ([`crate::br_fast`], the `t9_scale` bin) works on the sparse form
//! end-to-end. The `fast_path_equiv` differential suite pins
//! sparse-vs-dense loads and round-trips across all game variants.

use crate::br_dp::ChannelGame;
use crate::error::Error;
use crate::loads::ChannelLoads;
use crate::strategy::{StrategyMatrix, StrategyVector};
use crate::types::{ChannelId, UserId};

/// One occupied cell of a sparse row: `(channel index, radio count)` with
/// `count ≥ 1`.
pub type SparseEntry = (u32, u32);

/// All users' strategies in compressed-sparse-row form: row `i` holds at
/// most `cap_i` `(channel, count)` entries sorted by channel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SparseStrategies {
    n_channels: usize,
    /// Slot-arena boundaries: row `u` owns `entries[starts[u]..starts[u+1]]`.
    starts: Vec<u32>,
    /// Occupied entry count per row (`lens[u] ≤ starts[u+1] − starts[u]`).
    lens: Vec<u32>,
    /// The slot arena; only the first `lens[u]` slots of each row are live.
    entries: Vec<SparseEntry>,
}

impl SparseStrategies {
    /// Empty rows with per-user slot capacities `budgets` (a row can later
    /// hold any strategy of at most `budgets[u]` radios).
    ///
    /// # Panics
    ///
    /// Panics if `budgets` is empty, `n_channels == 0`, or the summed slot
    /// capacity overflows the arena's `u32` index space — use
    /// [`try_with_budgets`](Self::try_with_budgets) when overflow must be
    /// handled instead of aborting.
    pub fn with_budgets(budgets: &[u32], n_channels: usize) -> Self {
        Self::try_with_budgets(budgets, n_channels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`with_budgets`](Self::with_budgets) with the arena-overflow case
    /// surfaced as [`Error::ArenaOverflow`] instead of a panic. The check
    /// runs *before* any allocation: a hostile or miscomputed budget sum
    /// fails in `O(|N|)` without attempting a multi-gigabyte `Vec`.
    ///
    /// # Panics
    ///
    /// Still panics on the construction bugs (`budgets` empty,
    /// `n_channels == 0`) — those are contract violations, not runtime
    /// conditions.
    pub fn try_with_budgets(budgets: &[u32], n_channels: usize) -> Result<Self, Error> {
        assert!(!budgets.is_empty(), "need at least one user");
        assert!(n_channels > 0, "need at least one channel");
        let mut starts = Vec::with_capacity(budgets.len() + 1);
        let mut acc: u32 = 0;
        starts.push(0);
        for &k in budgets {
            acc = acc
                .checked_add(k)
                .ok_or_else(|| Error::arena_overflow(acc as u64, k as u64))?;
            starts.push(acc);
        }
        Ok(SparseStrategies {
            n_channels,
            starts,
            lens: vec![0; budgets.len()],
            entries: vec![(0, 0); acc as usize],
        })
    }

    /// Append one empty row with slot capacity `budget` — the churn
    /// service's arrival path. The arena grows by amortized doubling
    /// (`Vec::resize`), so a stream of arrivals costs `O(Σ budgets)`
    /// total; crossing the `u32` slot boundary is an
    /// [`Error::ArenaOverflow`], not a panic (in-place growth can reach
    /// it at runtime). Returns the new user's id on success; on error the
    /// structure is unchanged.
    pub fn push_row(&mut self, budget: u32) -> Result<UserId, Error> {
        let end = *self.starts.last().expect("starts always holds n+1 offsets");
        let acc = end
            .checked_add(budget)
            .ok_or_else(|| Error::arena_overflow(end as u64, budget as u64))?;
        let user = UserId(self.lens.len());
        self.starts.push(acc);
        self.lens.push(0);
        self.entries.resize(acc as usize, (0, 0));
        Ok(user)
    }

    /// Append empty rows with slot capacities `budgets`, all or none:
    /// the summed demand is checked before the first row is pushed, so an
    /// [`Error::ArenaOverflow`] leaves the structure unchanged.
    pub fn push_rows(&mut self, budgets: &[u32]) -> Result<(), Error> {
        let end = *self.starts.last().expect("starts always holds n+1 offsets");
        budgets.iter().try_fold(end, |acc, &k| {
            acc.checked_add(k)
                .ok_or_else(|| Error::arena_overflow(acc as u64, k as u64))
        })?;
        for &k in budgets {
            self.push_row(k).expect("the summed demand fits");
        }
        Ok(())
    }

    /// Sparse form of a dense matrix, with row capacities taken from the
    /// game's budgets (so rows can later be replaced by any legal
    /// strategy, e.g. when dynamics deploy radios an initial matrix left
    /// idle). Rows that currently exceed the budget keep their own size as
    /// capacity.
    pub fn from_matrix<G: ChannelGame + ?Sized>(game: &G, m: &StrategyMatrix) -> Self {
        let budgets: Vec<u32> = UserId::all(m.n_users())
            .map(|u| game.radios_of(u).max(m.user_total(u)))
            .collect();
        let mut s = SparseStrategies::with_budgets(&budgets, m.n_channels());
        for u in UserId::all(m.n_users()) {
            let row: Vec<SparseEntry> = m
                .row(u)
                .iter()
                .enumerate()
                .filter_map(|(c, &k)| (k > 0).then_some((c as u32, k)))
                .collect();
            s.set_row(u, &row);
        }
        s
    }

    /// A uniformly random full deployment: each of the `k` radios of every
    /// user lands on an independent uniform channel (the sparse analogue
    /// of [`crate::dynamics::random_start`], built without ever allocating
    /// a dense matrix).
    pub fn random_uniform(n_users: usize, k: u32, n_channels: usize, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = SparseStrategies::with_budgets(&vec![k; n_users], n_channels);
        let mut scratch: Vec<SparseEntry> = Vec::with_capacity(k as usize);
        for u in 0..n_users {
            scratch.clear();
            for _ in 0..k {
                let c = rng.gen_range(0..n_channels) as u32;
                match scratch.iter_mut().find(|(ch, _)| *ch == c) {
                    Some((_, cnt)) => *cnt += 1,
                    None => scratch.push((c, 1)),
                }
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            s.set_row(UserId(u), &scratch);
        }
        s
    }

    /// Number of users (rows).
    #[inline]
    pub fn n_users(&self) -> usize {
        self.lens.len()
    }

    /// Number of channels.
    #[inline]
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// Slot capacity of row `user` (the budget it was built with).
    #[inline]
    pub fn row_capacity(&self, user: UserId) -> u32 {
        self.starts[user.0 + 1] - self.starts[user.0]
    }

    /// The live `(channel, count)` entries of `user`, sorted by channel.
    #[inline]
    pub fn row(&self, user: UserId) -> &[SparseEntry] {
        let start = self.starts[user.0] as usize;
        &self.entries[start..start + self.lens[user.0] as usize]
    }

    /// The paper's `k_{i,c}` (`O(log k)` binary search over the row).
    pub fn get(&self, user: UserId, channel: ChannelId) -> u32 {
        let row = self.row(user);
        match row.binary_search_by_key(&(channel.0 as u32), |&(c, _)| c) {
            Ok(i) => row[i].1,
            Err(_) => 0,
        }
    }

    /// Total radios of `user` in use (`k_i`).
    pub fn user_total(&self, user: UserId) -> u32 {
        self.row(user).iter().map(|&(_, k)| k).sum()
    }

    /// Replace row `user` with `row` in place (`O(k)`).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not strictly sorted by channel, contains a zero
    /// count or an out-of-range channel, or exceeds the row's slot
    /// capacity.
    pub fn set_row(&mut self, user: UserId, row: &[SparseEntry]) {
        assert!(
            row.len() <= self.row_capacity(user) as usize,
            "{user}: row has {} entries, capacity is {}",
            row.len(),
            self.row_capacity(user)
        );
        let mut prev: Option<u32> = None;
        for &(c, k) in row {
            assert!(k > 0, "{user}: zero count on channel index {c}");
            assert!(
                (c as usize) < self.n_channels,
                "{user}: channel index {c} out of range (|C| = {})",
                self.n_channels
            );
            assert!(
                prev.is_none_or(|p| p < c),
                "{user}: row entries must be strictly sorted by channel"
            );
            prev = Some(c);
        }
        let start = self.starts[user.0] as usize;
        let old_len = self.lens[user.0] as usize;
        self.entries[start..start + row.len()].copy_from_slice(row);
        // Zero any vacated tail slots so the derived `Eq`/`Hash` over the
        // arena stay semantic: a churn-grown state must compare
        // bit-identical to a from-scratch build of the same rows, with no
        // dead-slot residue from earlier, longer strategies.
        if old_len > row.len() {
            for slot in &mut self.entries[start + row.len()..start + old_len] {
                *slot = (0, 0);
            }
        }
        self.lens[user.0] = row.len() as u32;
    }

    /// Channel-load vector in one pass over the occupied entries
    /// (`O(Σ_i k_i)`) — the dense matrix is never materialized.
    pub fn loads(&self) -> ChannelLoads {
        let mut loads = vec![0u32; self.n_channels];
        for (u, &len) in self.lens.iter().enumerate() {
            let start = self.starts[u] as usize;
            for &(c, k) in &self.entries[start..start + len as usize] {
                loads[c as usize] += k;
            }
        }
        ChannelLoads::from_vec(loads)
    }

    /// Row `user` as a dense [`StrategyVector`] (for witnesses/display).
    pub fn user_strategy(&self, user: UserId) -> StrategyVector {
        let mut counts = vec![0u32; self.n_channels];
        for &(c, k) in self.row(user) {
            counts[c as usize] = k;
        }
        StrategyVector::from_counts(counts)
    }

    /// Materialize the dense matrix (small instances / display only —
    /// allocates `|N|·|C|`; the large-N pipeline never calls this).
    pub fn to_dense(&self) -> StrategyMatrix {
        let mut m = StrategyMatrix::zeros(self.n_users(), self.n_channels);
        for u in UserId::all(self.n_users()) {
            for &(c, k) in self.row(u) {
                m.set(u, ChannelId(c as usize), k);
            }
        }
        m
    }

    /// Actual heap footprint of this structure in bytes — what the
    /// `t9_scale` bin reports against the `|N|·|C|·4` dense footprint, and
    /// what the allocation-free acceptance assertion checks.
    pub fn heap_bytes(&self) -> usize {
        self.starts.capacity() * std::mem::size_of::<u32>()
            + self.lens.capacity() * std::mem::size_of::<u32>()
            + self.entries.capacity() * std::mem::size_of::<SparseEntry>()
    }

    /// Bytes a dense `|N|×|C|` [`StrategyMatrix`] of the same shape would
    /// allocate for its count data.
    pub fn dense_bytes(&self) -> usize {
        self.n_users() * self.n_channels * std::mem::size_of::<u32>()
    }

    /// Feature-gated stale-cache assertion, the sparse counterpart of
    /// [`ChannelLoads::paranoid_check`]: recompute-and-compare in
    /// `O(Σ_i k_i)`, compiled in only under `paranoid-checks` +
    /// `debug_assertions`.
    #[inline]
    pub fn paranoid_check(&self, loads: &ChannelLoads) {
        #[cfg(feature = "paranoid-checks")]
        debug_assert!(self.loads() == *loads, "stale load cache (sparse)");
        #[cfg(not(feature = "paranoid-checks"))]
        let _ = loads;
    }
}

impl From<&StrategyMatrix> for SparseStrategies {
    /// Plain bridge with row capacities equal to each row's current radio
    /// count; use [`SparseStrategies::from_matrix`] when rows must later
    /// grow up to a game budget.
    fn from(m: &StrategyMatrix) -> Self {
        // Zero-capacity rows (fully idle users) are legal: the arena just
        // gives them an empty slot range (`starts[u] == starts[u+1]`).
        let budgets: Vec<u32> = UserId::all(m.n_users()).map(|u| m.user_total(u)).collect();
        let mut s = SparseStrategies::with_budgets(&budgets, m.n_channels());
        for u in UserId::all(m.n_users()) {
            let row: Vec<SparseEntry> = m
                .row(u)
                .iter()
                .enumerate()
                .filter_map(|(c, &k)| (k > 0).then_some((c as u32, k)))
                .collect();
            s.set_row(u, &row);
        }
        s
    }
}

impl From<&SparseStrategies> for StrategyMatrix {
    fn from(s: &SparseStrategies) -> Self {
        s.to_dense()
    }
}

/// Merge two sorted sparse rows into their per-channel count deltas
/// (`new − old`, ascending channel, zero deltas dropped) in a
/// caller-owned buffer. This is the one delta computation behind every
/// row replacement in the spatial neighborhood index — its dense and
/// CSR layouts consume exactly this list, which is what makes their
/// `on_cell` callback sequences (and therefore the potential ladder
/// they feed) identical by construction.
pub fn row_deltas_into(old: &[SparseEntry], new: &[SparseEntry], out: &mut Vec<(u32, i64)>) {
    out.clear();
    let (mut a, mut b) = (0usize, 0usize);
    while a < old.len() || b < new.len() {
        let ca = old.get(a).map(|&(c, _)| c);
        let cb = new.get(b).map(|&(c, _)| c);
        let (c, d) = match (ca, cb) {
            (Some(x), Some(y)) if x == y => {
                let d = new[b].1 as i64 - old[a].1 as i64;
                a += 1;
                b += 1;
                (x, d)
            }
            (Some(x), y) if y.is_none_or(|y| x < y) => {
                let d = -(old[a].1 as i64);
                a += 1;
                (x, d)
            }
            _ => {
                let d = new[b].1 as i64;
                b += 1;
                (new[b - 1].0, d)
            }
        };
        if d != 0 {
            out.push((c, d));
        }
    }
}

/// Sorted-unique union of the channels touched by two sparse rows — the
/// repair set an engine must refresh after a row replacement.
pub fn touched_channels(old: &[SparseEntry], new: &[SparseEntry]) -> Vec<ChannelId> {
    let mut out = Vec::new();
    touched_channels_into(old, new, &mut out);
    out
}

/// [`touched_channels`] into a caller-owned buffer (cleared first), so hot
/// loops can compute the repair set without a per-move allocation.
pub fn touched_channels_into(old: &[SparseEntry], new: &[SparseEntry], out: &mut Vec<ChannelId>) {
    out.clear();
    out.extend(old.iter().chain(new).map(|&(c, _)| ChannelId(c as usize)));
    out.sort_unstable();
    out.dedup();
}

/// Per-channel → occupying-users reverse index, maintained alongside the
/// CSR arena of [`SparseStrategies`]: `occupants(c)` lists every user with
/// at least one radio on `c`, in no particular order.
///
/// This is the index the active-set dynamics of [`crate::br_fast`] use to
/// re-activate exactly the users whose *current utility* a move can have
/// changed — the occupants of the touched channels — without scanning all
/// `|N|` rows. Memory is `Θ(Σ_i k_i)` (one `u32` per occupied entry, the
/// same asymptotic footprint as the CSR arena itself).
///
/// Maintenance is [`replace_row`](ChannelOccupants::replace_row): removal
/// uses a swap-remove after a linear scan of the channel's list. The scan
/// is asymptotically free in the dynamics' accounting because every caller
/// that touches a channel also *walks* that channel's occupant list to
/// re-activate it — the scan only doubles a walk that already happens.
///
/// # Single-writer discipline
///
/// This structure (like the per-channel occupant index in
/// [`crate::br_fast::ActiveSetDynamics`]) is **not** safe for concurrent
/// mutation: `replace_row`'s swap-remove reorders a channel's list, so two
/// writers touching the same channel would race. Every dynamics driver
/// in this workspace is sequential, so one thread owns each index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelOccupants {
    lists: Vec<Vec<u32>>,
}

impl ChannelOccupants {
    /// Build the reverse index of `s` in one pass over the occupied
    /// entries (`O(Σ_i k_i)`).
    pub fn of(s: &SparseStrategies) -> Self {
        let mut lists = vec![Vec::new(); s.n_channels()];
        for u in 0..s.n_users() {
            for &(c, _) in s.row(UserId(u)) {
                lists[c as usize].push(u as u32);
            }
        }
        ChannelOccupants { lists }
    }

    /// Users with at least one radio on `c` (unsorted).
    #[inline]
    pub fn occupants(&self, c: ChannelId) -> &[u32] {
        &self.lists[c.0]
    }

    /// Record `user` replacing its row `old → new` (both strictly sorted
    /// by channel, as [`SparseStrategies::set_row`] enforces): membership
    /// changes only on channels the user entered or left; count changes on
    /// kept channels do not move it between lists.
    ///
    /// # Panics
    ///
    /// Panics if `old` lists a channel the index does not record the user
    /// on (i.e. `old` was not the user's actual current row).
    pub fn replace_row(&mut self, user: UserId, old: &[SparseEntry], new: &[SparseEntry]) {
        let uid = user.0 as u32;
        // Sorted-merge walk over the two rows.
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < new.len() {
            match (old.get(i), new.get(j)) {
                (Some(&(co, _)), Some(&(cn, _))) if co == cn => {
                    i += 1;
                    j += 1;
                }
                (Some(&(co, _)), Some(&(cn, _))) if co < cn => {
                    self.remove(co, uid, user);
                    i += 1;
                }
                (Some(_), Some(&(cn, _))) => {
                    self.lists[cn as usize].push(uid);
                    j += 1;
                }
                (Some(&(co, _)), None) => {
                    self.remove(co, uid, user);
                    i += 1;
                }
                (None, Some(&(cn, _))) => {
                    self.lists[cn as usize].push(uid);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
    }

    fn remove(&mut self, c: u32, uid: u32, user: UserId) {
        let list = &mut self.lists[c as usize];
        let pos = list
            .iter()
            .position(|&v| v == uid)
            .unwrap_or_else(|| panic!("{user} not indexed on channel {c}"));
        list.swap_remove(pos);
    }

    /// Feature-gated consistency assertion against the strategy set it
    /// mirrors (sorted-compare per channel), the reverse-index counterpart
    /// of [`SparseStrategies::paranoid_check`].
    #[inline]
    pub fn paranoid_check(&self, s: &SparseStrategies) {
        #[cfg(feature = "paranoid-checks")]
        debug_assert!(
            {
                let fresh = ChannelOccupants::of(s);
                let mut a = self.lists.clone();
                let mut b = fresh.lists;
                for l in a.iter_mut().chain(b.iter_mut()) {
                    l.sort_unstable();
                }
                a == b
            },
            "stale channel-occupant index"
        );
        #[cfg(not(feature = "paranoid-checks"))]
        let _ = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GameConfig;
    use crate::game::ChannelAllocationGame;

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
    fn dense_round_trip_preserves_matrix() {
        let m = figure2();
        let s = SparseStrategies::from(&m);
        assert_eq!(s.n_users(), 4);
        assert_eq!(s.n_channels(), 5);
        assert_eq!(StrategyMatrix::from(&s), m);
        // Row accessors agree with the dense ones.
        for u in UserId::all(4) {
            assert_eq!(s.user_total(u), m.user_total(u));
            assert_eq!(s.user_strategy(u), m.user_strategy(u));
            for c in ChannelId::all(5) {
                assert_eq!(s.get(u, c), m.get(u, c));
            }
        }
    }

    #[test]
    fn sparse_loads_match_dense_loads() {
        let m = figure2();
        let s = SparseStrategies::from(&m);
        assert_eq!(s.loads(), ChannelLoads::of(&m));
        assert_eq!(ChannelLoads::of_sparse(&s), ChannelLoads::of(&m));
    }

    #[test]
    fn from_matrix_uses_game_budgets_as_capacity() {
        let g = ChannelAllocationGame::with_constant_rate(GameConfig::new(4, 4, 5).unwrap(), 1.0);
        let m = figure2();
        let s = SparseStrategies::from_matrix(&g, &m);
        // u4 deploys 2 of its 4 radios; the row must still be able to grow.
        assert_eq!(s.user_total(UserId(3)), 2);
        assert_eq!(s.row_capacity(UserId(3)), 4);
        let mut s2 = s.clone();
        s2.set_row(UserId(3), &[(0, 1), (2, 2), (4, 1)]);
        assert_eq!(s2.user_total(UserId(3)), 4);
    }

    #[test]
    fn set_row_updates_in_place() {
        let m = figure2();
        let mut s = SparseStrategies::from(&m);
        s.set_row(UserId(1), &[(2, 3)]);
        assert_eq!(s.row(UserId(1)), &[(2, 3)]);
        assert_eq!(s.get(UserId(1), ChannelId(2)), 3);
        assert_eq!(s.get(UserId(1), ChannelId(0)), 0);
        // Other rows untouched.
        assert_eq!(s.row(UserId(0)), SparseStrategies::from(&m).row(UserId(0)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn set_row_rejects_overflowing_row() {
        let mut s = SparseStrategies::with_budgets(&[2], 4);
        s.set_row(UserId(0), &[(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn set_row_rejects_unsorted_row() {
        let mut s = SparseStrategies::with_budgets(&[3], 4);
        s.set_row(UserId(0), &[(2, 1), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "zero count")]
    fn set_row_rejects_zero_count() {
        let mut s = SparseStrategies::with_budgets(&[3], 4);
        s.set_row(UserId(0), &[(1, 0)]);
    }

    #[test]
    fn push_row_appends_and_overflow_is_a_typed_error() {
        let mut s = SparseStrategies::with_budgets(&[2, 3], 4);
        let u = s.push_row(2).unwrap();
        assert_eq!(u, UserId(2));
        assert_eq!(s.n_users(), 3);
        assert_eq!(s.row_capacity(u), 2);
        assert!(s.row(u).is_empty());
        s.set_row(u, &[(1, 2)]);
        assert_eq!(s.user_total(u), 2);
        // Crossing the u32 slot boundary is an error, and the structure
        // is untouched by the failed append.
        let before = s.clone();
        let err = s.push_row(u32::MAX).unwrap_err();
        assert!(
            matches!(
                err,
                Error::ArenaOverflow {
                    slots: 7,
                    requested
                } if requested == u64::from(u32::MAX)
            ),
            "{err}"
        );
        assert_eq!(s, before);
    }

    #[test]
    fn push_rows_is_all_or_nothing() {
        let mut s = SparseStrategies::with_budgets(&[2, 3], 4);
        let before = s.clone();
        let err = s.push_rows(&[1, u32::MAX]).unwrap_err();
        assert!(
            matches!(err, Error::ArenaOverflow { slots: 6, .. }),
            "{err}"
        );
        assert_eq!(s, before, "the row that fit is not pushed either");
        s.push_rows(&[1, 2]).unwrap();
        assert_eq!(s.n_users(), 4);
        assert_eq!(s.row_capacity(UserId(3)), 2);
    }

    #[test]
    fn try_with_budgets_errors_before_allocating() {
        let err = SparseStrategies::try_with_budgets(&[u32::MAX, 1], 2).unwrap_err();
        assert!(err.to_string().contains("slot arena overflow"), "{err}");
    }

    #[test]
    fn set_row_zeroes_vacated_slots_for_semantic_equality() {
        let mut a = SparseStrategies::with_budgets(&[3], 4);
        a.set_row(UserId(0), &[(0, 1), (1, 1), (2, 1)]);
        a.set_row(UserId(0), &[(3, 3)]);
        let mut b = SparseStrategies::with_budgets(&[3], 4);
        b.set_row(UserId(0), &[(3, 3)]);
        assert_eq!(a, b, "shrunken rows must leave no dead-slot residue");
    }

    #[test]
    fn random_uniform_is_deterministic_and_full() {
        let a = SparseStrategies::random_uniform(50, 3, 8, 11);
        let b = SparseStrategies::random_uniform(50, 3, 8, 11);
        assert_eq!(a, b);
        assert_ne!(a, SparseStrategies::random_uniform(50, 3, 8, 12));
        for u in UserId::all(50) {
            assert_eq!(a.user_total(u), 3);
        }
        assert_eq!(a.loads().total(), 150);
    }

    #[test]
    fn heap_bytes_scales_with_radios_not_channels() {
        // Same users and radios over 64× more channels: the sparse
        // footprint must not grow with |C|, the dense one does.
        let narrow = SparseStrategies::random_uniform(1000, 2, 4, 1);
        let wide = SparseStrategies::random_uniform(1000, 2, 256, 1);
        assert_eq!(narrow.heap_bytes(), wide.heap_bytes());
        assert!(wide.heap_bytes() * 4 < wide.dense_bytes());
    }

    #[test]
    fn touched_channels_is_sorted_union() {
        let old = [(1u32, 2u32), (4, 1)];
        let new = [(1u32, 1u32), (2, 1), (4, 1)];
        assert_eq!(
            touched_channels(&old, &new),
            vec![ChannelId(1), ChannelId(2), ChannelId(4)]
        );
        // The buffer variant agrees and reuses its allocation.
        let mut buf = vec![ChannelId(9)];
        touched_channels_into(&old, &new, &mut buf);
        assert_eq!(buf, touched_channels(&old, &new));
    }

    #[test]
    fn occupant_index_tracks_row_replacements() {
        let m = figure2();
        let mut s = SparseStrategies::from(&m);
        let mut occ = ChannelOccupants::of(&s);
        occ.paranoid_check(&s);
        let sorted = |v: &[u32]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(occ.occupants(ChannelId(0))), vec![0, 1, 2, 3]);
        assert_eq!(sorted(occ.occupants(ChannelId(4))), vec![1]);

        // u1: leaves {0, 4}, keeps 2 (count change only), enters 3.
        let old = s.row(UserId(1)).to_vec();
        let new = [(2u32, 2u32), (3, 1)];
        s.set_row(UserId(1), &new);
        occ.replace_row(UserId(1), &old, &new);
        occ.paranoid_check(&s);
        assert_eq!(sorted(occ.occupants(ChannelId(0))), vec![0, 2, 3]);
        assert_eq!(sorted(occ.occupants(ChannelId(4))), Vec::<u32>::new());
        assert_eq!(sorted(occ.occupants(ChannelId(3))), vec![0, 1, 2, 3]);

        // Emptying a row removes it everywhere.
        let old = s.row(UserId(1)).to_vec();
        s.set_row(UserId(1), &[]);
        occ.replace_row(UserId(1), &old, &[]);
        occ.paranoid_check(&s);
        assert!(!occ.occupants(ChannelId(2)).contains(&1));
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn occupant_index_rejects_stale_old_row() {
        let s = SparseStrategies::with_budgets(&[2], 4);
        let mut occ = ChannelOccupants::of(&s);
        occ.replace_row(UserId(0), &[(1, 1)], &[]);
    }
}
