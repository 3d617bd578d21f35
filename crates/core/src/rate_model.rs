//! The `R(k_c)` abstraction ([`RateModel`]) and synthetic rate families.
//!
//! Section 2 of the paper assumes the total available bitrate on a channel,
//! `R(k_c)`, is a **non-increasing** function of the number of radios
//! `k_c`, with `R(0) = 0` and `R(k) > 0` for `k ≥ 1` (the latter is implied
//! by the paper's `R_{i,c} > 0` whenever `k_{i,c} > 0`, and is what makes
//! Lemma 1 work). [`RateModel`] encodes exactly this contract.
//!
//! This trait is the *single* rate abstraction of the workspace: the
//! analytic families below, the `mrca-mac` MAC substrates (Bianchi DCF,
//! optimal/practical CSMA, TDMA, Aloha) and the empirical tables measured
//! by the slot-level simulator all implement it, so a game can be played
//! against any of them interchangeably. (It was previously named
//! `RateFunction` and lived in `mrca-mac`; the old name remains as an
//! alias and `mrca-mac` re-exports everything here.)

use crate::error::Error;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Structural classification of a rate curve's induced sharing payoff —
/// the single seam from which every routing and certification decision in
/// the engine is derived.
///
/// The fair-share payoff induced by a rate model is
/// `f_L(t) = t/(L+t)·R(L+t)` (the utility of putting `t` radios on a
/// channel already carrying load `L`). Three structural properties of
/// `R` matter downstream, and they form a chain:
///
/// * [`ConcaveSharing`](RateShape::ConcaveSharing): `R` satisfies the
///   paper's contract **and** `f_L` has non-increasing marginals in `t`
///   for every `L`. Best responses may route to the `O(k log |C|)`
///   greedy/heap engine (greedy is exact for separable concave
///   objectives) and Theorem-1 certification applies.
/// * [`MonotoneOnly`](RateShape::MonotoneOnly): `R` is non-increasing
///   and positive (the paper's Section-2 contract) but marginals may
///   jump back up (e.g. a linear decay clamped at its floor). The
///   generic DP route is required; Lemma-1-style load-balance reasoning
///   still applies.
/// * [`Neither`](RateShape::Neither): not even robustly monotone — e.g.
///   a measured table whose confidence interval is too wide to certify
///   monotonicity, or one with a genuine hump. Such curves must be
///   wrapped (see [`MonotoneEnvelope`]) before entering a game.
///
/// Ordering: `ConcaveSharing > MonotoneOnly > Neither` (stronger claims
/// are larger); [`RateShape::meet`] combines per-channel shapes into the
/// weakest claim that holds for all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RateShape {
    /// No structural claim: monotonicity could not be certified.
    Neither,
    /// Non-increasing and positive, but marginals may increase.
    MonotoneOnly,
    /// Monotone contract plus non-increasing sharing marginals.
    ConcaveSharing,
}

impl RateShape {
    /// Whether best responses against this shape may use the greedy/heap
    /// engine (exact only for separable concave objectives).
    pub fn heap_eligible(self) -> bool {
        matches!(self, RateShape::ConcaveSharing)
    }

    /// Lattice meet: the weakest claim that holds for both shapes. Games
    /// over heterogeneous per-channel rate vectors fold their channel
    /// shapes with `meet` to get the game-level shape.
    pub fn meet(self, other: RateShape) -> RateShape {
        self.min(other)
    }

    /// Stable lowercase label (used in experiment tables and reports).
    pub fn label(self) -> &'static str {
        match self {
            RateShape::ConcaveSharing => "concave-sharing",
            RateShape::MonotoneOnly => "monotone-only",
            RateShape::Neither => "neither",
        }
    }
}

impl fmt::Display for RateShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Total available rate on one channel as a function of its radio count.
///
/// # Contract
///
/// Implementations must satisfy, for all `k ≥ 1` within their intended
/// domain:
///
/// * `rate(0) == 0.0` (no radios, no traffic — the paper defines `R(0)=0`),
/// * `rate(k) > 0.0` (an occupied channel always carries *some* traffic),
/// * `rate(k+1) <= rate(k)` (non-increasing total rate).
///
/// [`validate_rate_function`] checks the contract on a finite prefix and is
/// exercised by the test-suites of every implementation in this workspace.
pub trait RateModel: Send + Sync + fmt::Debug {
    /// Total channel rate in bit/s when `k` radios share the channel.
    fn rate(&self, k: u32) -> f64;

    /// Short machine-readable name (used in experiment tables).
    fn name(&self) -> &str;

    /// Per-radio share `R(k)/k` (the paper's fair-TDMA share), `0` at `k=0`.
    fn share(&self, k: u32) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.rate(k) / k as f64
        }
    }

    /// Structural classification of this curve's induced sharing payoff
    /// — the **primary** seam; override this, not [`concave_sharing`].
    ///
    /// Default [`RateShape::MonotoneOnly`] (conservative: every type
    /// implementing this trait promises the monotone contract, and the
    /// generic DP is always correct). Constant rates override to
    /// [`RateShape::ConcaveSharing`] — there
    /// `f_L(t+1) − f_L(t) = R·L/((L+t+1)(L+t))`, non-increasing in `t`.
    /// Decaying families are *not* concave-sharing in general (e.g. a
    /// linear decay clamped at its floor has a marginal that jumps back
    /// up at the clamp), so they keep the default. Measured tables
    /// classify themselves CI-aware via [`classify_rate_table`].
    ///
    /// [`concave_sharing`]: RateModel::concave_sharing
    fn shape(&self) -> RateShape {
        RateShape::MonotoneOnly
    }

    /// Whether the induced fair-share payoff
    /// `f_L(t) = t/(L+t)·R(L+t)` has **non-increasing marginals** in `t`
    /// for every fixed load `L` (diminishing returns per extra radio on
    /// one channel), i.e. whether the greedy/heap best-response engine
    /// is exact for this curve.
    ///
    /// Provided: derived from [`shape`](RateModel::shape). Kept as a
    /// convenience predicate for call sites; implementations should
    /// override `shape` and leave this derived so the classification
    /// stays a single seam.
    fn concave_sharing(&self) -> bool {
        self.shape().heap_eligible()
    }
}

/// Back-compatibility alias: the trait's original name.
pub use self::RateModel as RateFunction;

/// Blanket impl so `Arc<dyn RateModel>` and friends are themselves rate
/// functions — the game crate stores rate models behind `Arc`.
impl<T: RateModel + ?Sized> RateModel for Arc<T> {
    fn rate(&self, k: u32) -> f64 {
        (**self).rate(k)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn shape(&self) -> RateShape {
        (**self).shape()
    }
    fn concave_sharing(&self) -> bool {
        (**self).concave_sharing()
    }
}

impl<T: RateModel + ?Sized> RateModel for &T {
    fn rate(&self, k: u32) -> f64 {
        (**self).rate(k)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn shape(&self) -> RateShape {
        (**self).shape()
    }
    fn concave_sharing(&self) -> bool {
        (**self).concave_sharing()
    }
}

/// Check the [`RateModel`] contract for `k = 0..=max_k`.
///
/// # Errors
///
/// Returns [`Error::InvalidRateFunction`] describing the first violation:
/// `R(0) ≠ 0`, a non-positive rate at occupied `k`, or an increase
/// `R(k+1) > R(k)`.
pub fn validate_rate_function<R: RateModel + ?Sized>(r: &R, max_k: u32) -> Result<(), Error> {
    if r.rate(0) != 0.0 {
        return Err(Error::rate(format!(
            "{}: R(0) = {}, expected 0",
            r.name(),
            r.rate(0)
        )));
    }
    let mut prev = f64::INFINITY;
    for k in 1..=max_k {
        let v = r.rate(k);
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // also rejects NaN
        if !(v > 0.0) {
            return Err(Error::rate(format!(
                "{}: R({k}) = {v}, expected positive",
                r.name()
            )));
        }
        if v > prev * (1.0 + 1e-12) {
            return Err(Error::rate(format!(
                "{}: R({k}) = {v} exceeds R({}) = {prev}: not non-increasing",
                r.name(),
                k - 1
            )));
        }
        prev = v;
    }
    Ok(())
}

/// Constant total rate — the idealization used throughout the paper's
/// examples (Figures 1, 4, 5 draw `R(k_c)` as a constant bar height) and
/// exact for reservation TDMA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstantRate {
    bps: f64,
    name: String,
}

impl ConstantRate {
    /// A constant `R(k) = bps` for all `k ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not strictly positive and finite.
    pub fn new(bps: f64) -> Self {
        assert!(
            bps > 0.0 && bps.is_finite(),
            "constant rate must be positive and finite, got {bps}"
        );
        ConstantRate {
            bps,
            name: format!("constant({bps})"),
        }
    }

    /// Normalized variant: `R(k) = 1` (utility = fraction of one channel).
    pub fn unit() -> Self {
        ConstantRate::new(1.0)
    }
}

impl RateModel for ConstantRate {
    fn rate(&self, k: u32) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.bps
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn shape(&self) -> RateShape {
        // f_L(t) = t/(L+t)·bps: marginal bps·L/((L+t)(L+t−1)), strictly
        // non-increasing in t for every L.
        RateShape::ConcaveSharing
    }
}

/// Linearly decaying total rate with a positive floor:
/// `R(k) = max(floor, r1 − slope·(k−1))`.
///
/// A convenient stand-in for "practical CSMA/CA" in fast tests: strictly
/// decreasing near the origin, never reaching zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearDecayRate {
    r1: f64,
    slope: f64,
    floor: f64,
    name: String,
}

impl LinearDecayRate {
    /// Create a linear-decay model.
    ///
    /// # Panics
    ///
    /// Panics unless `r1 >= floor > 0` and `slope >= 0`.
    pub fn new(r1: f64, slope: f64, floor: f64) -> Self {
        assert!(floor > 0.0, "floor must be positive, got {floor}");
        assert!(
            r1 >= floor,
            "r1 ({r1}) must be at least the floor ({floor})"
        );
        assert!(slope >= 0.0, "slope must be non-negative, got {slope}");
        LinearDecayRate {
            r1,
            slope,
            floor,
            name: format!("linear(r1={r1},slope={slope},floor={floor})"),
        }
    }
}

impl RateModel for LinearDecayRate {
    fn rate(&self, k: u32) -> f64 {
        if k == 0 {
            0.0
        } else {
            (self.r1 - self.slope * (k - 1) as f64).max(self.floor)
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// Geometrically decaying total rate: `R(k) = r1 · factor^(k−1)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExponentialDecayRate {
    r1: f64,
    factor: f64,
    name: String,
}

impl ExponentialDecayRate {
    /// Create a geometric-decay model.
    ///
    /// # Panics
    ///
    /// Panics unless `r1 > 0` and `0 < factor <= 1`.
    pub fn new(r1: f64, factor: f64) -> Self {
        assert!(r1 > 0.0, "r1 must be positive, got {r1}");
        assert!(
            factor > 0.0 && factor <= 1.0,
            "factor must be in (0, 1], got {factor}"
        );
        ExponentialDecayRate {
            r1,
            factor,
            name: format!("expdecay(r1={r1},factor={factor})"),
        }
    }
}

impl RateModel for ExponentialDecayRate {
    fn rate(&self, k: u32) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.r1 * self.factor.powi(k as i32 - 1)
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// Table-driven rate: `R(k) = table[min(k, len)−1]` for `k ≥ 1`.
///
/// Used to wrap empirical curves (e.g. slot-simulated DCF throughput) as a
/// [`RateModel`]; values beyond the table are clamped to the last entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRate {
    table: Vec<f64>,
    name: String,
}

impl StepRate {
    /// Wrap a table of rates for `k = 1..=table.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, contains a non-positive value, or is
    /// not non-increasing.
    pub fn new(name: impl Into<String>, table: Vec<f64>) -> Self {
        assert!(!table.is_empty(), "rate table must be non-empty");
        for (i, &v) in table.iter().enumerate() {
            assert!(v > 0.0, "rate table entry {i} must be positive, got {v}");
            if i > 0 {
                assert!(
                    v <= table[i - 1] * (1.0 + 1e-12),
                    "rate table must be non-increasing (entry {i}: {v} > {})",
                    table[i - 1]
                );
            }
        }
        StepRate {
            table,
            name: name.into(),
        }
    }

    /// Wrap a possibly non-monotone empirical table by taking its running
    /// minimum first (see [`MonotoneEnvelope`] for the generic wrapper).
    pub fn monotone_from(name: impl Into<String>, raw: &[f64]) -> Self {
        assert!(!raw.is_empty(), "rate table must be non-empty");
        let mut table = Vec::with_capacity(raw.len());
        let mut min = f64::INFINITY;
        for &v in raw {
            min = min.min(v);
            table.push(min);
        }
        StepRate::new(name, table)
    }
}

impl RateModel for StepRate {
    fn rate(&self, k: u32) -> f64 {
        if k == 0 {
            0.0
        } else {
            let idx = (k as usize).min(self.table.len()) - 1;
            self.table[idx]
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// Multiplicative wrapper `factor · R(k)`: a wider (factor > 1) or
/// interference-impaired (factor < 1) channel with the same sharing
/// shape. The per-channel rate-vector axis of the scenario suites builds
/// [`HeteroGame`](crate::heterogeneous::HeteroGame) channel sets
/// by scaling one base model, so a single grid axis can express
/// "channel 1 is twice as good" without enumerating whole model families.
#[derive(Debug, Clone)]
pub struct ScaledRate<R> {
    inner: R,
    factor: f64,
    name: String,
}

impl<R: RateModel> ScaledRate<R> {
    /// Wrap `inner`, multiplying every rate by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite (a zero or
    /// negative factor would violate the `R(k) > 0` contract).
    pub fn new(inner: R, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive and finite, got {factor}"
        );
        let name = format!("{}x{}", factor, inner.name());
        ScaledRate {
            inner,
            factor,
            name,
        }
    }

    /// Access the wrapped model.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// The multiplier.
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

impl<R: RateModel> RateModel for ScaledRate<R> {
    fn rate(&self, k: u32) -> f64 {
        self.factor * self.inner.rate(k)
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn shape(&self) -> RateShape {
        // A positive multiple preserves both monotonicity and the
        // marginal ordering.
        self.inner.shape()
    }
}

/// Running-minimum wrapper turning any rate model into a non-increasing one.
///
/// Analytic DCF curves can exhibit a tiny hump near `k = 1–2` for some
/// parameter sets (contention increases channel utilization before
/// collisions dominate); the paper's model requires monotonicity, so game
/// constructions wrap such models in `MonotoneEnvelope`. For the standard
/// parameter sets the envelope is the identity (verified in tests).
#[derive(Debug, Clone)]
pub struct MonotoneEnvelope<R> {
    inner: R,
    name: String,
}

impl<R: RateModel> MonotoneEnvelope<R> {
    /// Wrap `inner` with a running minimum over `1..=k`.
    pub fn new(inner: R) -> Self {
        let name = format!("monotone({})", inner.name());
        MonotoneEnvelope { inner, name }
    }

    /// Access the wrapped model.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: RateModel> RateModel for MonotoneEnvelope<R> {
    fn rate(&self, k: u32) -> f64 {
        if k == 0 {
            return 0.0;
        }
        // Running minimum; rate models in this workspace are cheap and/or
        // memoized, so the O(k) scan is acceptable and keeps the wrapper
        // stateless (Send + Sync for free).
        (1..=k)
            .map(|j| self.inner.rate(j))
            .fold(f64::INFINITY, f64::min)
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn shape(&self) -> RateShape {
        // The running minimum *upgrades* a `Neither` inner model to the
        // monotone contract, but deliberately never claims
        // `ConcaveSharing`: the transform can break diminishing marginals
        // of a non-constant concave-sharing inner model, and a false
        // claim would route best responses to the greedy heap and
        // silently corrupt them. (For constant inner models the envelope
        // is the identity — unwrap it instead if heap eligibility
        // matters.)
        RateShape::MonotoneOnly
    }
}

/// CI-aware shape classification of a measured rate table.
///
/// `mean[i]` and `ci[i]` describe the measurement for occupancy
/// `k = i + 1`: the true rate is assumed to lie in
/// `[mean[i] − ci[i], mean[i] + ci[i]]` (lookups beyond the table clamp
/// to the last entry, matching [`StepRate`] / [`MeasuredRate`] serving).
/// A shape claim is made **only if it holds for every table in the CI
/// box**, i.e. with each `R` occurrence at its worst-case bound — a noisy
/// constant-rate measurement whose intervals overlap in the wrong
/// direction classifies as [`RateShape::Neither`], not as the shape of
/// its means.
///
/// * Monotone contract: `∀i: mean[i+1] + ci[i+1] ≤ (mean[i] − ci[i])`
///   (up to 1e-12 relative slack) and every lower bound positive.
/// * Concave sharing: non-increasing payoff marginals
///   `m(L,t) = t/(L+t)·R(L+t) − (t−1)/(L+t−1)·R(L+t−1)` for all
///   `L ∈ 0..=n`, `t ∈ 1..=n+1` (spanning the beyond-table clamp), with
///   each `R` at the CI bound that weakens the claim most. The bounds are
///   per-occurrence (box bounds), so the check is conservative: it may
///   say `MonotoneOnly` for a table whose every consistent realization is
///   concave, but never claims `ConcaveSharing` falsely.
///
/// # Panics
///
/// Panics if the table is empty or `mean` and `ci` differ in length.
pub fn classify_rate_table(mean: &[f64], ci: &[f64]) -> RateShape {
    assert!(!mean.is_empty(), "rate table must be non-empty");
    assert_eq!(
        mean.len(),
        ci.len(),
        "mean and ci_half_width tables must have equal length"
    );
    let n = mean.len();
    // Clamped CI-bound lookups for k >= 1 (k = 0 contributes rate 0).
    let lo = |k: usize| -> f64 {
        let i = k.min(n) - 1;
        mean[i] - ci[i]
    };
    let hi = |k: usize| -> f64 {
        let i = k.min(n) - 1;
        mean[i] + ci[i]
    };

    // Robust monotone contract: positive lower bounds, and each upper
    // bound at k+1 below the lower bound at k.
    for i in 0..n {
        let lower_positive = matches!(
            (mean[i] - ci[i]).partial_cmp(&0.0),
            Some(std::cmp::Ordering::Greater)
        );
        if !lower_positive || !mean[i].is_finite() || !ci[i].is_finite() {
            return RateShape::Neither;
        }
        if i > 0 && mean[i] + ci[i] > (mean[i - 1] - ci[i - 1]) * (1.0 + 1e-12) {
            return RateShape::Neither;
        }
    }

    // Robust concave sharing: m(L, t+1) <= m(L, t) at worst-case bounds.
    // upper(m(L,t)) puts R(L+t) at its high bound and R(L+t-1) low;
    // lower(m(L,t)) the reverse. The t-1 term vanishes at t = 1.
    let marginal = |l: usize, t: usize, up: bool| -> f64 {
        let a = if up { hi(l + t) } else { lo(l + t) };
        let head = t as f64 / (l + t) as f64 * a;
        if t == 1 {
            return head;
        }
        let b = if up { lo(l + t - 1) } else { hi(l + t - 1) };
        head - (t - 1) as f64 / (l + t - 1) as f64 * b
    };
    for l in 0..=n {
        for t in 1..=n + 1 {
            let next_up = marginal(l, t + 1, true);
            let cur_lo = marginal(l, t, false);
            let tol = 1e-12 * next_up.abs().max(cur_lo.abs());
            if next_up > cur_lo + tol {
                return RateShape::MonotoneOnly;
            }
        }
    }
    RateShape::ConcaveSharing
}

/// A rate curve harvested from a MAC simulator, carrying its provenance,
/// per-occupancy confidence intervals, and a CI-aware [`RateShape`].
///
/// Serving honours the [`RateModel`] contract unconditionally: `rate(k)`
/// returns the **running-minimum envelope** of the measured means
/// (clamped beyond the table), so even a noisy hump yields a valid game
/// input. The reported [`shape`](RateModel::shape) classifies the **raw**
/// table at its CI bounds via [`classify_rate_table`] — this is coherent
/// because any claim stronger than `Neither` requires robust
/// monotonicity, under which the envelope equals the means; a `Neither`
/// table serves its envelope and routes to the generic DP.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredRate {
    name: String,
    source: String,
    mean: Vec<f64>,
    ci_half_width: Vec<f64>,
    samples: u32,
    served: Vec<f64>,
    shape: RateShape,
}

impl MeasuredRate {
    /// Wrap a harvested table for occupancies `k = 1..=mean.len()`.
    ///
    /// `source` is free-form provenance (simulator, parameters, seeds).
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, lengths differ, any mean is not
    /// strictly positive and finite, or any CI half-width is negative.
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        mean: Vec<f64>,
        ci_half_width: Vec<f64>,
        samples: u32,
    ) -> Self {
        assert!(!mean.is_empty(), "measured table must be non-empty");
        assert_eq!(
            mean.len(),
            ci_half_width.len(),
            "mean and ci_half_width must have equal length"
        );
        for (i, &m) in mean.iter().enumerate() {
            assert!(
                m > 0.0 && m.is_finite(),
                "measured mean at occupancy {} must be positive and finite, got {m}",
                i + 1
            );
            let w = ci_half_width[i];
            assert!(
                w >= 0.0 && w.is_finite(),
                "ci half-width at occupancy {} must be non-negative, got {w}",
                i + 1
            );
        }
        let shape = classify_rate_table(&mean, &ci_half_width);
        let mut served = Vec::with_capacity(mean.len());
        let mut min = f64::INFINITY;
        for &m in &mean {
            min = min.min(m);
            served.push(min);
        }
        MeasuredRate {
            name: name.into(),
            source: source.into(),
            mean,
            ci_half_width,
            samples,
            served,
            shape,
        }
    }

    /// Provenance string (simulator, parameters, seed scheme).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Raw measured means for `k = 1..=max_k()` (pre-envelope).
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// 95% CI half-widths aligned with [`mean`](MeasuredRate::mean).
    pub fn ci_half_width(&self) -> &[f64] {
        &self.ci_half_width
    }

    /// Independent simulation repetitions behind each table entry.
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Largest occupancy measured; `rate(k)` clamps beyond this.
    pub fn max_k(&self) -> u32 {
        self.mean.len() as u32
    }
}

impl RateModel for MeasuredRate {
    fn rate(&self, k: u32) -> f64 {
        if k == 0 {
            0.0
        } else {
            let idx = (k as usize).min(self.served.len()) - 1;
            self.served[idx]
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn shape(&self) -> RateShape {
        self.shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_contract() {
        let r = ConstantRate::new(1e6);
        validate_rate_function(&r, 100).unwrap();
        assert_eq!(r.rate(0), 0.0);
        assert_eq!(r.rate(1), 1e6);
        assert_eq!(r.rate(50), 1e6);
        assert_eq!(r.share(4), 0.25e6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn constant_rate_rejects_zero() {
        let _ = ConstantRate::new(0.0);
    }

    #[test]
    fn linear_decay_contract_and_floor() {
        let r = LinearDecayRate::new(10.0, 2.0, 1.0);
        validate_rate_function(&r, 100).unwrap();
        assert_eq!(r.rate(1), 10.0);
        assert_eq!(r.rate(2), 8.0);
        assert_eq!(r.rate(100), 1.0); // clamped at floor
    }

    #[test]
    fn exponential_decay_contract() {
        let r = ExponentialDecayRate::new(8.0, 0.5);
        validate_rate_function(&r, 60).unwrap();
        assert_eq!(r.rate(1), 8.0);
        assert_eq!(r.rate(4), 1.0);
    }

    #[test]
    fn scaled_rate_multiplies_and_keeps_contract() {
        let r = ScaledRate::new(LinearDecayRate::new(10.0, 2.0, 1.0), 2.5);
        validate_rate_function(&r, 100).unwrap();
        assert_eq!(r.rate(0), 0.0);
        assert_eq!(r.rate(1), 25.0);
        assert_eq!(r.rate(2), 20.0);
        assert_eq!(r.factor(), 2.5);
        assert!(r.name().starts_with("2.5x"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rate_rejects_zero_factor() {
        let _ = ScaledRate::new(ConstantRate::unit(), 0.0);
    }

    #[test]
    fn step_rate_clamps_beyond_table() {
        let r = StepRate::new("empirical", vec![5.0, 4.0, 3.0]);
        validate_rate_function(&r, 10).unwrap();
        assert_eq!(r.rate(3), 3.0);
        assert_eq!(r.rate(9), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn step_rate_rejects_increase() {
        let _ = StepRate::new("bad", vec![1.0, 2.0]);
    }

    #[test]
    fn monotone_from_fixes_hump() {
        let r = StepRate::monotone_from("fixed", &[5.0, 5.5, 4.0]);
        validate_rate_function(&r, 5).unwrap();
        assert_eq!(r.rate(2), 5.0);
        assert_eq!(r.rate(3), 4.0);
    }

    #[test]
    fn monotone_envelope_identity_on_monotone_input() {
        let inner = LinearDecayRate::new(10.0, 1.0, 1.0);
        let wrapped = MonotoneEnvelope::new(inner.clone());
        for k in 0..20 {
            assert_eq!(wrapped.rate(k), inner.rate(k));
        }
    }

    #[test]
    fn arc_dyn_rate_function_works() {
        let r: Arc<dyn RateModel> = Arc::new(ConstantRate::unit());
        assert_eq!(r.rate(2), 1.0);
        validate_rate_function(&r, 10).unwrap();
    }

    #[test]
    fn validator_catches_bad_r0() {
        #[derive(Debug)]
        struct Bad;
        impl RateModel for Bad {
            fn rate(&self, _k: u32) -> f64 {
                1.0 // R(0) should be 0
            }
            fn name(&self) -> &str {
                "bad"
            }
        }
        assert!(validate_rate_function(&Bad, 5).is_err());
    }

    #[test]
    fn share_is_rate_over_k() {
        let r = ConstantRate::new(6.0);
        assert_eq!(r.share(0), 0.0);
        assert_eq!(r.share(3), 2.0);
    }

    #[test]
    fn validator_returns_typed_error() {
        let err = validate_rate_function(&StepRate::new("ok", vec![2.0, 1.0]), 10);
        assert!(err.is_ok());
        #[derive(Debug)]
        struct Flat;
        impl RateModel for Flat {
            fn rate(&self, _k: u32) -> f64 {
                1.0 // violates R(0) = 0
            }
            fn name(&self) -> &str {
                "flat"
            }
        }
        let err = validate_rate_function(&Flat, 5).unwrap_err();
        assert!(matches!(err, Error::InvalidRateFunction { .. }));
        assert!(err.to_string().starts_with("invalid rate function: flat"));
    }

    #[test]
    fn shape_drives_concave_sharing() {
        assert!(ConstantRate::unit().concave_sharing());
        assert_eq!(ConstantRate::unit().shape(), RateShape::ConcaveSharing);
        let lin = LinearDecayRate::new(10.0, 2.0, 1.0);
        assert_eq!(lin.shape(), RateShape::MonotoneOnly);
        assert!(!lin.concave_sharing());
        // Wrappers forward / downgrade through the same seam.
        assert!(ScaledRate::new(ConstantRate::unit(), 2.0).concave_sharing());
        assert_eq!(
            MonotoneEnvelope::new(ConstantRate::unit()).shape(),
            RateShape::MonotoneOnly
        );
        let arc: Arc<dyn RateModel> = Arc::new(ConstantRate::unit());
        assert_eq!(arc.shape(), RateShape::ConcaveSharing);
    }

    #[test]
    fn shape_meet_is_weakest_claim() {
        use RateShape::*;
        assert_eq!(ConcaveSharing.meet(ConcaveSharing), ConcaveSharing);
        assert_eq!(ConcaveSharing.meet(MonotoneOnly), MonotoneOnly);
        assert_eq!(MonotoneOnly.meet(Neither), Neither);
        assert_eq!(ConcaveSharing.meet(Neither), Neither);
        assert!(ConcaveSharing.heap_eligible());
        assert!(!MonotoneOnly.heap_eligible());
        assert!(!Neither.heap_eligible());
    }

    #[test]
    fn classify_exact_constant_is_concave() {
        let mean = vec![5.0; 8];
        let ci = vec![0.0; 8];
        assert_eq!(classify_rate_table(&mean, &ci), RateShape::ConcaveSharing);
    }

    #[test]
    fn classify_noisy_constant_is_neither() {
        // Same means, but the CI boxes admit an increasing realization —
        // the monotone contract cannot be certified.
        let mean = vec![5.0; 8];
        let ci = vec![0.1; 8];
        assert_eq!(classify_rate_table(&mean, &ci), RateShape::Neither);
    }

    #[test]
    fn classify_clamped_linear_decay_is_monotone_only() {
        // R(k) = 10, 9, ..., 1 then clamped at 1 beyond the table: the
        // payoff marginal at L = 0 jumps from -1 to 0 across the clamp.
        let mean: Vec<f64> = (0..10).map(|i| 10.0 - i as f64).collect();
        let ci = vec![0.0; 10];
        assert_eq!(classify_rate_table(&mean, &ci), RateShape::MonotoneOnly);
    }

    #[test]
    fn classify_hump_is_neither() {
        let mean = vec![5.0, 5.5, 4.0];
        let ci = vec![0.0; 3];
        assert_eq!(classify_rate_table(&mean, &ci), RateShape::Neither);
    }

    #[test]
    fn classify_nonpositive_lower_bound_is_neither() {
        let mean = vec![1.0, 0.05];
        let ci = vec![0.0, 0.1];
        assert_eq!(classify_rate_table(&mean, &ci), RateShape::Neither);
    }

    #[test]
    fn classify_zero_ci_agrees_with_bruteforce_marginal_scan() {
        // With zero-width intervals the classifier must agree exactly
        // with a direct payoff-marginal scan over the same clamped
        // domain, on concave and non-concave tables alike.
        for mean in [
            vec![5.0; 6],                                        // constant
            (0..6).map(|i| 10.0 - 1.5 * i as f64).collect(),     // linear decay
            (1..=6).map(|k| 6.0 / k as f64).collect::<Vec<_>>(), // harmonic
        ] {
            let n = mean.len();
            let ci = vec![0.0; n];
            let shape = classify_rate_table(&mean, &ci);
            let r = |k: usize| mean[k.min(n) - 1];
            let f = |l: usize, t: usize| {
                if t == 0 {
                    0.0
                } else {
                    t as f64 / (l + t) as f64 * r(l + t)
                }
            };
            let mut concave = true;
            for l in 0..=n {
                for t in 1..=n + 1 {
                    let m1 = f(l, t) - f(l, t - 1);
                    let m2 = f(l, t + 1) - f(l, t);
                    if m2 > m1 + 1e-12 * m1.abs().max(m2.abs()) {
                        concave = false;
                    }
                }
            }
            assert_eq!(
                shape.heap_eligible(),
                concave,
                "classifier vs brute force disagree on {mean:?}"
            );
        }
    }

    #[test]
    fn measured_rate_serves_envelope_reports_raw_shape() {
        // A humped raw table: shape is Neither, but serving is the
        // monotone running-min envelope, so the RateModel contract holds.
        let m = MeasuredRate::new(
            "measured-hump",
            "unit-test",
            vec![5.0, 5.5, 4.0],
            vec![0.0, 0.0, 0.0],
            7,
        );
        assert_eq!(m.shape(), RateShape::Neither);
        assert!(!m.concave_sharing());
        assert_eq!(m.rate(0), 0.0);
        assert_eq!(m.rate(1), 5.0);
        assert_eq!(m.rate(2), 5.0); // envelope, not the raw 5.5
        assert_eq!(m.rate(3), 4.0);
        assert_eq!(m.rate(9), 4.0); // clamped
        validate_rate_function(&m, 12).unwrap();
        assert_eq!(m.samples(), 7);
        assert_eq!(m.max_k(), 3);
        assert_eq!(m.source(), "unit-test");
    }

    #[test]
    fn measured_rate_concave_table_is_heap_eligible() {
        let m = MeasuredRate::new("measured-const", "unit-test", vec![3.0; 6], vec![0.0; 6], 3);
        assert_eq!(m.shape(), RateShape::ConcaveSharing);
        assert!(m.concave_sharing());
        // Robust monotone => envelope == means.
        assert_eq!(m.rate(4), 3.0);
    }
}
