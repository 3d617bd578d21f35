//! Shared fixtures for the Criterion benchmarks.
//!
//! Each bench target regenerates (a timed slice of) one experiment of the
//! binary index in `crates/experiments/src/lib.rs`; this crate only hosts
//! the common constructors.

use mrca_core::{ChannelAllocationGame, GameConfig};
use mrca_mac::{ConstantRate, PhyParams, PracticalDcfRate, RateFunction};
use std::sync::Arc;

/// A constant-rate game with the given dimensions.
///
/// # Panics
///
/// Panics on invalid dimensions (benchmarks use known-good ones).
pub fn constant_game(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
    ChannelAllocationGame::with_constant_rate(
        GameConfig::new(n, k, c).expect("valid bench dimensions"),
        1.0,
    )
}

/// A practical-DCF game with the given dimensions (table precomputed to
/// the instance's maximum possible load).
///
/// # Panics
///
/// Panics on invalid dimensions.
pub fn dcf_game(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
    let cfg = GameConfig::new(n, k, c).expect("valid bench dimensions");
    let rate: Arc<dyn RateFunction> = Arc::new(PracticalDcfRate::new(
        PhyParams::bianchi_fhss(),
        cfg.total_radios().max(1),
    ));
    ChannelAllocationGame::new(cfg, rate)
}

/// The constant unit-rate model shared by several benches.
pub fn unit_rate() -> Arc<dyn RateFunction> {
    Arc::new(ConstantRate::unit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let g = constant_game(4, 4, 6);
        assert_eq!(g.config().n_users(), 4);
        let g = dcf_game(4, 2, 4);
        assert!(g.rate().rate(1) > 0.0);
        assert_eq!(unit_rate().rate(3), 1.0);
    }
}
