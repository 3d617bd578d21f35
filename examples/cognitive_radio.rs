//! Cognitive-radio scenario: secondary users entering a spectrum band
//! (the paper's §1 names cognitive radio, ref [8], as the prime
//! application).
//!
//! Secondary devices arrive one by one and claim channels selfishly. The
//! paper's theory predicts the population keeps re-balancing: after every
//! arrival, best-response dynamics restore a load-balanced equilibrium,
//! and the total spectrum utilization stays maximal.
//!
//! ```sh
//! cargo run --example cognitive_radio
//! ```

use multi_radio_alloc::core::dynamics::{BestResponseDriver, Schedule};
use multi_radio_alloc::core::StrategyMatrix;
use multi_radio_alloc::core::UserId;
use multi_radio_alloc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let channels = 6;
    let radios = 2;
    let max_users = 9;

    println!("Secondary users entering a {channels}-channel band, {radios} radios each:\n");
    println!(
        "{:>6} {:>18} {:>6} {:>10} {:>12} {:>9}",
        "users", "loads", "δmax", "NE?", "welfare", "rounds"
    );

    // The incumbents' allocation is carried over as each newcomer joins.
    let mut carried: Option<StrategyMatrix> = None;
    for n in 1..=max_users {
        let cfg = GameConfig::new(n, radios, channels)?;
        let game = ChannelAllocationGame::with_constant_rate(cfg, 1.0);

        // Newcomer starts with all radios on channel 1 (the greedy guess);
        // incumbents keep their previous positions.
        let mut start = StrategyMatrix::zeros(n, channels);
        if let Some(prev) = &carried {
            for u in 0..n - 1 {
                start.set_user_strategy(UserId(u), &prev.user_strategy(UserId(u)));
            }
        }
        start.set(UserId(n - 1), ChannelId(0), radios);

        let out = BestResponseDriver::new(Schedule::RoundRobin).run(&game, start, 100);
        let ne = is_nash(&game, &out.matrix);
        println!(
            "{:>6} {:>18} {:>6} {:>10} {:>12.3} {:>9}",
            n,
            format!("{:?}", out.matrix.loads()),
            out.matrix.max_delta(),
            ne,
            welfare_from_loads(&game, out.matrix.loads()),
            out.rounds
        );
        assert!(ne, "population must re-equilibrate after an arrival");
        assert!(out.matrix.max_delta() <= 1);
        carried = Some(out.matrix);
    }

    println!(
        "\nEvery arrival was absorbed by a couple of best-response rounds, and the\n\
         band stayed load-balanced throughout — the paper's cognitive-radio story."
    );
    Ok(())
}
