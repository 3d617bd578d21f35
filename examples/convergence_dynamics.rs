//! Watch best-response dynamics converge, move by move.
//!
//! Starts every radio of every user on channel 1 (worst-case pile-up) and
//! prints the allocation after each round of user-level best responses,
//! together with the Rosenthal potential of the radio-level view — the
//! quantity whose monotone increase explains why the process cannot cycle.
//!
//! ```sh
//! cargo run --example convergence_dynamics
//! ```

use multi_radio_alloc::core::dynamics::{rosenthal_potential, BestResponseDriver, Schedule};
use multi_radio_alloc::core::StrategyMatrix;
use multi_radio_alloc::core::UserId;
use multi_radio_alloc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = GameConfig::new(5, 3, 5)?;
    let game = ChannelAllocationGame::with_constant_rate(cfg, 1.0);

    // Pathological start: all 15 radios stacked on channel 1.
    let mut s = StrategyMatrix::zeros(5, 5);
    for u in UserId::all(5) {
        s.set(u, ChannelId(0), 3);
    }
    println!("Start (all radios on c1):\n{}", render_allocation(&s));
    println!(
        "potential Φ = {:.4}, welfare = {:.4}\n",
        rosenthal_potential(&game, &s),
        welfare_from_loads(&game, s.loads())
    );

    let driver = BestResponseDriver::new(Schedule::RoundRobin);
    let mut round = 0;
    loop {
        round += 1;
        let out = driver.run(&game, s.clone(), 1);
        s = out.matrix;
        println!("after round {round} ({} moves):", out.moves);
        println!("{}", render_allocation(&s));
        println!(
            "  loads {:?}  δmax {}  Φ = {:.4}  welfare = {:.4}",
            s.loads(),
            s.max_delta(),
            rosenthal_potential(&game, &s),
            welfare_from_loads(&game, s.loads())
        );
        if out.moves == 0 {
            break;
        }
        assert!(round < 50, "must converge quickly");
    }

    let check = nash_check(&game, &s);
    println!("\nConverged to a Nash equilibrium: {}", check.is_nash());
    println!(
        "Theorem 1 certifies it:          {}",
        theorem1(&game, &s).is_nash()
    );
    println!(
        "System-optimal (Theorem 2):      {}",
        is_system_optimal(&game, &s)
    );
    assert!(check.is_nash());
    Ok(())
}
