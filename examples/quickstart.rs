//! Quickstart: build a game, run Algorithm 1, verify the equilibrium.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use multi_radio_alloc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A network of 5 users, each owning a device with 3 radios, sharing
    // 4 orthogonal channels — more radios than channels, so users must
    // coexist (the paper's |N|·k > |C| regime).
    let cfg = GameConfig::new(5, 3, 4)?;

    // Channels run reservation TDMA: the total rate per channel does not
    // depend on how many radios share it (paper, Figure 3).
    let game = ChannelAllocationGame::with_constant_rate(cfg, 1.0e6);

    // The paper's Algorithm 1: users place radios one by one, each on the
    // least-loaded channel.
    let allocation = algorithm1(&game, &Ordering::default());
    println!("Allocation produced by Algorithm 1:\n");
    println!("{}", render_allocation(&allocation));
    println!("Strategy matrix:\n{}", allocation);

    // Verify the paper's claims mechanically.
    println!(
        "Nash equilibrium (no user can gain by deviating): {}",
        is_nash(&game, &allocation)
    );
    println!(
        "Theorem-1 structural check:                       {:?}",
        theorem1(&game, &allocation).is_nash()
    );
    println!(
        "Load-balanced (δ ≤ 1, Proposition 1):             {}",
        allocation.max_delta() <= 1
    );
    println!(
        "System-optimal (Theorem 2):                       {}",
        is_system_optimal(&game, &allocation)
    );

    // Per-user utilities: everyone gets an equal share of the spectrum.
    for u in UserId::all(cfg.n_users()) {
        let util = utility(&game, &allocation, u);
        println!("  U(u{}) = {:.0} bit/s", u.0 + 1, util);
    }
    Ok(())
}
