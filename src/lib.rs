//! # multi-radio-alloc
//!
//! Umbrella crate for the reproduction of **Félegyházi, Čagalj, Hubaux,
//! “Multi-radio channel allocation in competitive wireless networks”
//! (ICDCS 2006)**. It re-exports the workspace crates under one roof and
//! hosts the runnable examples and cross-crate integration tests.
//!
//! * [`core`] — the channel-allocation game, equilibria, Algorithm 1
//! * [`game`] — generic game-theory toolkit
//! * [`mac`] — TDMA / Bianchi-DCF / CSMA rate substrates
//! * [`sim`] — packet-level discrete-event simulator
//! * [`baselines`] — comparison allocators
//!
//! ## Quickstart
//!
//! ```
//! use multi_radio_alloc::prelude::*;
//!
//! let cfg = GameConfig::new(4, 4, 6)?;
//! let game = ChannelAllocationGame::with_constant_rate(cfg, 1.0);
//! let ne = algorithm1(&game, &Ordering::default());
//! assert!(is_nash(&game, &ne));
//! # Ok::<(), multi_radio_alloc::core::Error>(())
//! ```

#![warn(missing_docs)]

pub use mrca_baselines as baselines;
pub use mrca_core as core;
pub use mrca_game as game;
pub use mrca_mac as mac;
pub use mrca_sim as sim;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use mrca_baselines::{
        compare, Algorithm1Allocator, Allocator, ColoringAllocator, GreedyAllocator,
        RandomAllocator, RoundRobinAllocator, SelfishAllocator,
    };
    pub use mrca_core::prelude::*;
    pub use mrca_mac::{
        BianchiModel, ConstantRate, OptimalCsmaRate, PhyParams, PracticalDcfRate, RateFunction,
        TdmaRate,
    };
    pub use mrca_sim::prelude::*;
}
