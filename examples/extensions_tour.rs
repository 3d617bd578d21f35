//! Tour of the reproduction's extensions beyond the paper:
//! heterogeneous fleets, energy-priced radios, concave utilities, the
//! distributed protocol, and the slotted-Aloha substrate.
//!
//! ```sh
//! cargo run --release --example extensions_tour
//! ```

use multi_radio_alloc::core::distributed::{run_protocol, ProtocolConfig};
use multi_radio_alloc::core::utility_models::{ConcaveUtilityGame, EnergyCostGame};
use multi_radio_alloc::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Heterogeneous fleet: an AP with 4 radios, laptops with 2,
    //    sensors with 1.
    println!("1. Heterogeneous fleet");
    let fleet = HeteroGame::with_rate(vec![4, 2, 2, 1, 1, 1], 5, Arc::new(ConstantRate::unit()))?;
    let s = algorithm1(&fleet, &Ordering::with_tie_break(TieBreak::PreferUnused));
    println!("   loads {:?}  NE: {}", s.loads(), is_nash(&fleet, &s));
    println!(
        "   utilities: {:?}\n",
        UserId::all(6)
            .map(|u| format!("{:.2}", utility(&fleet, &s, u)))
            .collect::<Vec<_>>()
    );

    // 2. Energy-priced radios: as the per-radio cost rises, devices shut
    //    radios down — the equilibrium "radio supply curve".
    println!("2. Energy cost (paper's 'other utility functions')");
    let cfg = GameConfig::new(6, 3, 5)?;
    let base = ChannelAllocationGame::with_constant_rate(cfg, 1.0);
    for cost in [0.0, 0.3, 0.5, 0.9] {
        let e = EnergyCostGame::new(base.clone(), cost);
        let (end, _) = e.converge(algorithm1(&base, &Ordering::default()), 300);
        let active: u32 = UserId::all(6).map(|u| end.user_total(u)).sum();
        println!("   cost {cost:.1}: {active:2} of 18 radios stay active");
    }
    println!();

    // 3. Concave (risk-averse) utilities change nothing: same equilibria.
    println!("3. Concave utility transform");
    let cg = ConcaveUtilityGame::new(base.clone(), 0.5);
    let ne = algorithm1(&base, &Ordering::default());
    println!(
        "   same allocation is a NE under sqrt-utility: {}\n",
        cg.is_nash(&ne)
    );

    // 4. The distributed protocol: no coordinator, no messages — devices
    //    sense loads and retune with activation probability p ≈ 1/N.
    println!("4. Distributed protocol (paper's 'ongoing work')");
    let out = run_protocol(
        &base,
        random_start(&base, 5),
        &ProtocolConfig {
            activation_prob: 0.15,
            max_rounds: 2000,
            seed: 5,
        },
    );
    println!(
        "   converged: {} after {} rounds, {} retunes, loads {:?}\n",
        out.converged,
        out.rounds,
        out.retunes,
        out.matrix.loads()
    );

    // 5. Slotted Aloha as a fourth R(k) family.
    println!("5. Slotted Aloha substrate");
    let aloha = multi_radio_alloc::mac::OptimalAlohaRate::new(1e6);
    for k in [1u32, 2, 10, 50] {
        println!("   R_aloha({k:2}) = {:.0} bit/s", aloha.rate(k));
    }
    println!(
        "   (→ bitrate/e = {:.0} as k → ∞)\n",
        1e6 / std::f64::consts::E
    );

    // 6. Heterogeneous channels: equilibria water-fill instead of
    //    count-balancing.
    println!("6. Heterogeneous channels (per-channel R_c)");
    let multi = HeteroGame::new(
        vec![1; 6],
        3,
        vec![
            Arc::new(ConstantRate::new(2.0)) as Arc<dyn RateFunction>,
            Arc::new(ConstantRate::new(1.0)),
            Arc::new(ConstantRate::new(1.0)),
        ],
    )?;
    let (end, _, _) = best_response_dynamics(&multi, random_start(&multi, 3), 200);
    println!(
        "   channel rates (2.0, 1.0, 1.0) → NE loads {:?} (water-filling, not δ ≤ 1 on counts)",
        end.loads()
    );
    println!("   NE: {}", is_nash(&multi, &end));
    Ok(())
}
