//! # mrca-core — the multi-radio channel allocation game
//!
//! A faithful, mechanically-verified implementation of
//! **Félegyházi, Čagalj, Hubaux, “Multi-radio channel allocation in
//! competitive wireless networks”, ICDCS 2006.**
//!
//! The paper models selfish devices, each with `k` radio interfaces,
//! choosing how many radios to put on each of `|C|` orthogonal channels.
//! The total rate `R(k_c)` of a channel is non-increasing in its radio
//! count `k_c` and shared equally among the radios. The paper proves that
//! all Nash equilibria are load-balanced (`δ_{b,c} ≤ 1` between any two
//! channels) and efficient, and gives a simple sequential algorithm
//! (Algorithm 1) that reaches such an equilibrium.
//!
//! This crate implements:
//!
//! * the strategy space and utility function (Eq. 3): [`strategy`],
//!   [`game`];
//! * the unified best-response engine — one [`br_dp::ChannelGame`] trait
//!   and one knapsack DP shared by the homogeneous game and every
//!   extension (heterogeneous budgets, per-channel rates, energy costs):
//!   [`br_dp`];
//! * the large-N evaluation layer — sparse CSR strategy storage
//!   ([`sparse`]) and the `O(k log |C|)` lazy-heap / incremental-DP best
//!   responses with sparse dynamics and Nash checks ([`br_fast`]),
//!   pinned to the oracle DP by the `fast_path_equiv` and
//!   `convergence_trace` differential suites;
//! * deterministic two-phase parallel dynamics — snapshot/commit rounds
//!   over scoped worker threads ([`par`]) whose result is independent of
//!   the thread count, pinned to the sequential dynamics by the
//!   `par_equiv` suite: [`br_par`];
//! * the spatial interference engine — per-neighborhood load games on
//!   sparse conflict graphs, with the clique recovering the paper's
//!   single collision domain bit-identically, a measured Rosenthal-style
//!   potential and an explicit best-response cycle detector: [`spatial`],
//!   pinned by the `spatial_equiv` clique-reduction differential suite;
//! * the benefit-of-change Δ (Eq. 7):
//!   [`game::ChannelAllocationGame::benefit_of_move`];
//! * Lemmas 1–4, Proposition 1, and both directions of Theorem 1 as
//!   executable predicates with violation witnesses: [`nash`];
//! * Theorem 2 (efficiency): separate *Pareto-optimality* and
//!   *system-optimality* checkers — the two notions genuinely differ for
//!   steeply decreasing `R`, see [`pareto`] for the discussion;
//! * Algorithm 1 with configurable orderings and tie-breaking:
//!   [`algorithm`];
//! * best-response and radio-level better-response dynamics with a
//!   Rosenthal potential argument: [`dynamics`];
//! * allocation enumeration and an adapter implementing
//!   [`mrca_game::Game`], so every claim can be cross-checked against the
//!   generic toolkit: [`enumerate`], [`game::IndexedGame`];
//! * load-balance, fairness and efficiency metrics: [`analysis`];
//! * ASCII rendering of allocations in the style of the paper's Figures 1,
//!   4 and 5: [`display`].
//!
//! ## Quickstart
//!
//! ```
//! use mrca_core::prelude::*;
//!
//! // 4 users, 4 radios each, 6 channels — the setting of the paper's Fig. 5.
//! let cfg = GameConfig::new(4, 4, 6)?;
//! let game = ChannelAllocationGame::with_constant_rate(cfg, 1.0);
//!
//! // Run the paper's Algorithm 1 and verify its output.
//! let s = algorithm1(&game, &Ordering::default());
//! assert!(game.nash_check(&s).is_nash());
//! assert!(theorem1(&game, &s).is_nash());
//! assert!(is_system_optimal(&game, &s));
//! # Ok::<(), mrca_core::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithm;
pub mod analysis;
pub mod br_dp;
pub mod br_fast;
pub mod br_par;
pub mod churn;
pub mod config;
pub mod display;
pub mod distributed;
pub mod dynamics;
pub mod enumerate;
pub mod error;
pub mod game;
pub mod heterogeneous;
pub mod loads;
pub mod multi_rate;
pub mod nash;
pub mod par;
pub mod pareto;
pub mod rate_model;
pub mod sparse;
pub mod spatial;
pub mod strategy;
pub mod types;
pub mod utility_models;

pub use br_dp::ChannelGame;
pub use br_fast::BrEngine;
pub use br_par::ParallelDynamics;
pub use churn::ChurnGame;
pub use config::GameConfig;
pub use error::Error;
pub use game::ChannelAllocationGame;
pub use loads::ChannelLoads;
pub use rate_model::{ConstantRate, MeasuredRate, RateModel, RateShape};
pub use sparse::SparseStrategies;
pub use spatial::{
    ConflictGraph, GeoIndex, NbrIndex, SpatialDynamics, SpatialGame, SpatialParallelDynamics,
};
pub use strategy::{StrategyMatrix, StrategyVector};
pub use types::{ChannelId, UserId};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::algorithm::{algorithm1, Ordering, TieBreak};
    pub use crate::analysis::{jain_fairness, load_balance_delta, AllocationStats};
    pub use crate::br_dp::ChannelGame;
    pub use crate::br_fast::{
        best_response_dynamics_sparse, best_response_dynamics_sparse_counted, is_nash_sparse,
        nash_check_sparse, ActiveSetDynamics, BrEngine, DynCounters,
    };
    pub use crate::br_par::{
        best_response_dynamics_parallel, best_response_dynamics_parallel_counted, ParallelDynamics,
    };
    pub use crate::config::GameConfig;
    pub use crate::display::render_allocation;
    pub use crate::dynamics::{BestResponseDriver, RadioDynamics, Schedule};
    pub use crate::enumerate::enumerate_allocations;
    pub use crate::error::Error;
    pub use crate::game::ChannelAllocationGame;
    pub use crate::loads::ChannelLoads;
    pub use crate::nash::{
        theorem1, theorem1_applicable, theorem1_cached, NashCheck, Theorem1Verdict,
    };
    pub use crate::pareto::{is_pareto_optimal_ne, is_system_optimal, optimal_total_rate};
    pub use crate::rate_model::{
        classify_rate_table, ConstantRate, MeasuredRate, RateFunction, RateModel, RateShape,
    };
    pub use crate::sparse::ChannelOccupants;
    pub use crate::sparse::SparseStrategies;
    pub use crate::spatial::{
        is_nash_spatial, nash_check_spatial, spatial_dynamics, ConflictGraph, GeoIndex, NbrIndex,
        SpatialDynamics, SpatialGame, SpatialParallelDynamics,
    };
    pub use crate::strategy::{StrategyMatrix, StrategyVector};
    pub use crate::types::{ChannelId, UserId};
}
