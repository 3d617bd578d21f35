//! Scenario assembly and the global event loop.
//!
//! A [`Scenario`] is a fixed channel allocation realized as packet-level
//! machinery: one [`ChannelSim`] per channel,
//! radios pinned per a [`StrategyMatrix`], all advanced by a single
//! time-ordered event loop. [`RunReport`] aggregates delivered bits per
//! user so the paper's Eq. 3 can be validated against measurements.

use crate::channel::{ChannelSim, ChannelStats, MacKind};
use crate::event::EventQueue;
use crate::rng::stream_n;
use crate::time::{SimDuration, SimTime};
use crate::traffic::TrafficModel;
use mrca_core::{StrategyMatrix, UserId};
use mrca_mac::params::PhyParams;
use mrca_mac::{PracticalDcfRate, RateFunction, TdmaRate};
use serde::{Deserialize, Serialize};

/// Builder for a packet-level scenario.
///
/// See the crate docs for a complete example.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    n_channels: usize,
    mac: MacKind,
    phy: PhyParams,
    traffic: TrafficModel,
    seed: u64,
    allocation: Option<StrategyMatrix>,
}

impl ScenarioBuilder {
    /// Start building a scenario over `n_channels` orthogonal channels.
    pub fn new(n_channels: usize) -> Self {
        ScenarioBuilder {
            n_channels,
            mac: MacKind::Tdma,
            phy: PhyParams::bianchi_fhss(),
            traffic: TrafficModel::Saturated,
            seed: 0,
            allocation: None,
        }
    }

    /// Select the per-channel MAC (default: reservation TDMA).
    pub fn mac(mut self, mac: MacKind) -> Self {
        self.mac = mac;
        self
    }

    /// Select the PHY parameter set (default: Bianchi FHSS).
    pub fn phy(mut self, phy: PhyParams) -> Self {
        self.phy = phy;
        self
    }

    /// Select the traffic model (default: saturated).
    pub fn traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }

    /// Set the master seed; all component RNG streams derive from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pin radios to channels per the strategy matrix (required).
    pub fn allocation(mut self, s: &StrategyMatrix) -> Self {
        self.allocation = Some(s.clone());
        self
    }

    /// Assemble the scenario.
    ///
    /// # Errors
    ///
    /// Returns a description when no allocation was supplied, the
    /// allocation's channel count mismatches, or the PHY set is invalid.
    pub fn build(self) -> Result<Scenario, String> {
        let allocation = self.allocation.ok_or("an allocation matrix is required")?;
        if allocation.n_channels() != self.n_channels {
            return Err(format!(
                "allocation spans {} channels, scenario has {}",
                allocation.n_channels(),
                self.n_channels
            ));
        }
        self.phy.validate()?;
        let mut channels = Vec::with_capacity(self.n_channels);
        for c in 0..self.n_channels {
            let mut owners = Vec::new();
            for u in 0..allocation.n_users() {
                for _ in 0..allocation.get(UserId(u), mrca_core::ChannelId(c)) {
                    owners.push(u);
                }
            }
            channels.push(ChannelSim::new(
                self.mac,
                self.phy.clone(),
                &owners,
                self.traffic,
                stream_n(self.seed, "channel", c as u64),
            ));
        }
        Ok(Scenario {
            channels,
            n_users: allocation.n_users(),
            allocation,
            mac: self.mac,
            phy: self.phy,
        })
    }
}

/// A ready-to-run packet-level scenario.
#[derive(Debug)]
pub struct Scenario {
    channels: Vec<ChannelSim>,
    n_users: usize,
    allocation: StrategyMatrix,
    mac: MacKind,
    phy: PhyParams,
}

/// Aggregated measurements of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Payload bits delivered per user.
    pub per_user_bits: Vec<u64>,
    /// Per-channel MAC statistics.
    pub per_channel: Vec<ChannelStats>,
}

impl RunReport {
    /// Measured throughput of `user` in bit/s.
    pub fn per_user_throughput_bps(&self, user: usize) -> f64 {
        self.per_user_bits[user] as f64 / self.duration.as_secs_f64()
    }

    /// Measured throughput of every user in bit/s.
    pub fn throughputs_bps(&self) -> Vec<f64> {
        (0..self.per_user_bits.len())
            .map(|u| self.per_user_throughput_bps(u))
            .collect()
    }

    /// Total delivered bits across users.
    pub fn total_bits(&self) -> u64 {
        self.per_user_bits.iter().sum()
    }
}

impl Scenario {
    /// Run the event loop for `duration` of simulated time.
    pub fn run(mut self, duration: SimDuration) -> RunReport {
        let horizon = SimTime::ZERO + duration;
        let mut queue: EventQueue<usize> = EventQueue::new();
        // Prime one event per non-empty channel.
        for (c, ch) in self.channels.iter().enumerate() {
            if ch.num_radios() > 0 {
                queue.push(SimTime::ZERO, c);
            }
        }
        let mut per_user_bits = vec![0u64; self.n_users];
        while let Some((now, c)) = queue.pop() {
            if now >= horizon {
                break;
            }
            let outcome = self.channels[c]
                .advance(now.as_nanos())
                .expect("scheduled channels have radios");
            if let Some((user, bits)) = outcome.delivered {
                // Credit only traffic completed before the horizon to keep
                // run lengths comparable.
                let end = now + SimDuration::from_nanos(outcome.duration_ns);
                if end <= horizon {
                    per_user_bits[user] += bits;
                }
                let _ = end;
            }
            queue.push(now + SimDuration::from_nanos(outcome.duration_ns), c);
        }
        RunReport {
            duration,
            per_user_bits,
            per_channel: self.channels.iter().map(|c| c.stats).collect(),
        }
    }

    /// The paper's Eq. 3 prediction of each user's throughput, using the
    /// analytic rate model matching this scenario's MAC
    /// ([`TdmaRate`] for TDMA, [`PracticalDcfRate`] for CSMA).
    pub fn predicted_utilities_bps(&self) -> Vec<f64> {
        let max_k = self
            .allocation
            .loads()
            .iter()
            .copied()
            .max()
            .unwrap_or(1)
            .max(1);
        let rate: Box<dyn RateFunction> = match self.mac {
            MacKind::Tdma => Box::new(TdmaRate::from_phy(&self.phy)),
            MacKind::Csma => Box::new(PracticalDcfRate::new(self.phy.clone(), max_k)),
        };
        (0..self.n_users)
            .map(|u| {
                let mut total = 0.0;
                for c in 0..self.allocation.n_channels() {
                    let kic = self.allocation.get(UserId(u), mrca_core::ChannelId(c));
                    if kic == 0 {
                        continue;
                    }
                    let kc = self.allocation.channel_load(mrca_core::ChannelId(c));
                    total += kic as f64 / kc as f64 * rate.rate(kc);
                }
                total
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_user_matrix() -> StrategyMatrix {
        StrategyMatrix::from_rows(&[vec![1, 1, 0], vec![1, 0, 1]]).unwrap()
    }

    #[test]
    fn build_rejects_missing_allocation() {
        assert!(ScenarioBuilder::new(3).build().is_err());
    }

    #[test]
    fn build_rejects_channel_mismatch() {
        let err = ScenarioBuilder::new(2)
            .allocation(&two_user_matrix())
            .build()
            .unwrap_err();
        assert!(err.contains("channels"));
    }

    #[test]
    fn tdma_run_matches_eq3_prediction_tightly() {
        let s = two_user_matrix();
        let scenario = ScenarioBuilder::new(3)
            .mac(MacKind::Tdma)
            .allocation(&s)
            .seed(1)
            .build()
            .unwrap();
        let predicted = scenario.predicted_utilities_bps();
        let report = scenario_run(scenario, 3.0);
        for (u, pred) in predicted.iter().enumerate() {
            let measured = report.per_user_throughput_bps(u);
            let rel = (measured - pred).abs() / pred;
            assert!(
                rel < 0.01,
                "user {u}: measured {measured:.0} vs predicted {:.0}",
                predicted[u]
            );
        }
    }

    #[test]
    fn csma_run_matches_eq3_prediction_loosely() {
        let s = two_user_matrix();
        let scenario = ScenarioBuilder::new(3)
            .mac(MacKind::Csma)
            .allocation(&s)
            .seed(2)
            .build()
            .unwrap();
        let predicted = scenario.predicted_utilities_bps();
        let report = scenario_run(scenario, 10.0);
        for (u, pred) in predicted.iter().enumerate() {
            let measured = report.per_user_throughput_bps(u);
            let rel = (measured - pred).abs() / pred;
            assert!(
                rel < 0.08,
                "user {u}: measured {measured:.0} vs predicted {:.0} (rel {rel:.3})",
                predicted[u]
            );
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let s = two_user_matrix();
        let run = |seed| {
            ScenarioBuilder::new(3)
                .mac(MacKind::Csma)
                .allocation(&s)
                .seed(seed)
                .build()
                .unwrap()
                .run(SimDuration::from_secs(0.5))
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).per_user_bits, run(10).per_user_bits);
    }

    #[test]
    fn empty_channels_are_skipped() {
        // Channel 2 carries nobody; the loop must still terminate quickly.
        let s = StrategyMatrix::from_rows(&[vec![1, 1, 0], vec![1, 1, 0]]).unwrap();
        let report = ScenarioBuilder::new(3)
            .allocation(&s)
            .build()
            .unwrap()
            .run(SimDuration::from_secs(1.0));
        assert_eq!(report.per_channel[2].successes, 0);
        assert!(report.total_bits() > 0);
    }

    #[test]
    fn stacked_radios_earn_proportional_share() {
        // u1 has 2 radios on c1, u2 has 1: u1 should carry 2/3 of c1.
        let s = StrategyMatrix::from_rows(&[vec![2], vec![1]]).unwrap();
        let report = ScenarioBuilder::new(1)
            .mac(MacKind::Tdma)
            .allocation(&s)
            .seed(5)
            .build()
            .unwrap()
            .run(SimDuration::from_secs(2.0));
        let share = report.per_user_bits[0] as f64 / report.total_bits() as f64;
        assert!((share - 2.0 / 3.0).abs() < 0.01, "share {share}");
    }

    fn scenario_run(s: Scenario, secs: f64) -> RunReport {
        s.run(SimDuration::from_secs(secs))
    }
}
