//! Per-state round-plan cache for the aggregate hot loop.
//!
//! For a fixed `(kernel, n, z)` everything a round needs — the adoption
//! probabilities `(P₀(x/n), P₁(x/n))`, the binomial counts, and the
//! sampler setups — is a pure function of the current ones-count `x`. The
//! chain revisits a narrow contiguous band of states (hovering around its
//! drift fixed point, or drifting toward absorption), so a direct-mapped
//! cache indexed by the low bits of `x` is collision-free whenever the
//! band is narrower than the slot count, unlike a `(count, p)`-keyed memo
//! where unrelated keys can hash to the same slot and evict each other
//! every round.
//!
//! A round out of `x` is `z + Binomial(x − z, P₁) + Binomial(n − x − (1 − z), P₀)`.
//! When `P₀(x/n)` and `P₁(x/n)` are bit-equal (always, for rules that
//! ignore the agent's own opinion, such as Voter and Minority) the `n − 1`
//! non-source agents are i.i.d. and the round is exactly
//! `z + Binomial(n − 1, P)`: the plan then holds one sampler instead of
//! two (DESIGN decision 18).
//!
//! A hit skips the kernel evaluation *and* the sampler setups; the draw
//! code itself is byte-for-byte the one behind
//! [`sample_binomial`](crate::binomial::sample_binomial), so sampled
//! values are bit-identical for any rng state.

use bitdissem_core::Kernel;

use crate::binomial::{with_lnfact, Plan};
use crate::rng::SimRng;

/// Slot count (power of two). The visited band is `O(√n)` wide, so 512
/// slots are collision-free for populations up to the hundreds of
/// thousands; beyond that the cache degrades gracefully (distant states
/// that alias simply rebuild on revisit).
const SLOTS: usize = 512;

/// Everything needed to advance one replica from ones-count `x`.
#[derive(Debug, Clone, Copy)]
struct RoundPlan {
    /// The state this plan was built for (the slot tag).
    x: u64,
    /// The source opinion this plan was built for (part of the tag: a plan
    /// for `(x, z)` must never serve `(x, 1 − z)`).
    z: u64,
    /// Non-source agents currently holding 1 (all `n − 1` of them when
    /// the round is opinion-independent).
    keep_n: u64,
    /// Non-source agents currently holding 0 (none when the round is
    /// opinion-independent).
    flip_n: u64,
    /// Sampler for `Binomial(keep_n, P₁)`.
    keep: Plan,
    /// Sampler for `Binomial(flip_n, P₀)`.
    flip: Plan,
}

/// Direct-mapped cache of [`RoundPlan`]s, indexed by `x & (SLOTS − 1)`.
///
/// One cache instance serves one `(kernel, n)` pair (both fixed at
/// simulator construction). Slots are tagged with `(x, z)`, so a source
/// flip mid-run is safe without an explicit [`clear`](RoundPlanCache::clear):
/// a plan built for `(x, z)` misses when queried for `(x, 1 − z)` and is
/// rebuilt in place.
#[derive(Debug, Clone)]
pub(crate) struct RoundPlanCache {
    slots: Vec<Option<RoundPlan>>,
}

impl Default for RoundPlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl RoundPlanCache {
    /// Allocates the (empty) slot array up front, so the first simulated
    /// round pays only its own plan build, not a ~90 KiB memset.
    pub(crate) fn new() -> Self {
        Self { slots: vec![None; SLOTS] }
    }

    /// Drops all cached plans (subsequent steps rebuild on demand).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(None);
    }

    /// Advances one replica by one aggregate round: draws the binomials
    /// for state `x` and returns the next ones-count.
    ///
    /// Draws are bit-identical to one
    /// [`sample_binomial`](crate::binomial::sample_binomial) call with
    /// `(n − 1, P)` when `P₀(x/n)` and `P₁(x/n)` are bit-equal, and to two
    /// calls with `(x − z, P₁)` then `(n − x − (1 − z), P₀)` on the same rng
    /// otherwise.
    #[inline]
    pub(crate) fn step(
        &mut self,
        kernel: &Kernel,
        n: u64,
        z: u64,
        x: u64,
        rng: &mut SimRng,
    ) -> u64 {
        let slot = &mut self.slots[(x as usize) & (SLOTS - 1)];
        let plan = match slot {
            Some(plan) if plan.x == x && plan.z == z => plan,
            _ => {
                let (p0, p1) = kernel.eval(x as f64 / n as f64);
                let (keep_n, flip_n) = if p0.to_bits() == p1.to_bits() {
                    // Opinion-independent round: all n − 1 non-source agents
                    // adopt 1 with the same probability, so the round is
                    // exactly `z + Binomial(n − 1, P)` — one draw, and the
                    // empty flip component is draw-free.
                    (n - 1, 0)
                } else {
                    // Environment perturbations can produce the transient
                    // states `x < z` / `x + (1 − z) > n`; clamp into the
                    // legal band so the component sizes never wrap `u64`.
                    // The slot keeps the raw `x` as its tag so lookups still
                    // hit.
                    let cx = x.clamp(z, n - (1 - z));
                    (cx - z, n - cx - (1 - z))
                };
                slot.insert(RoundPlan {
                    x,
                    z,
                    keep_n,
                    flip_n,
                    keep: Plan::build(keep_n, p1),
                    flip: Plan::build(flip_n, p0),
                })
            }
        };
        with_lnfact(n, |lnfact| {
            let keep = plan.keep.sample_with(rng, plan.keep_n, lnfact);
            let flip = plan.flip.sample_with(rng, plan.flip_n, lnfact);
            z + keep + flip
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::sample_binomial;
    use crate::rng::rng_from;
    use bitdissem_core::dynamics::{Minority, TwoChoices};
    use bitdissem_core::ProtocolExt;
    use rand::Rng;

    /// The draws `step` must reproduce with plain `sample_binomial` calls:
    /// one `(n − 1, P)` draw when the kernel values are bit-equal, the
    /// keep-then-flip pair otherwise.
    fn plain_step(kernel: &Kernel, n: u64, z: u64, x: u64, rng: &mut SimRng) -> u64 {
        let (p0, p1) = kernel.eval(x as f64 / n as f64);
        if p0.to_bits() == p1.to_bits() {
            z + sample_binomial(rng, n - 1, p1)
        } else {
            z + sample_binomial(rng, x - z, p1) + sample_binomial(rng, n - x - (1 - z), p0)
        }
    }

    /// The cache's draws must be bit-identical to plain `sample_binomial`
    /// calls, across repeated visits (cache hits) and band wanderings
    /// (misses and rebuilds): one call for a symmetric kernel, two for an
    /// asymmetric one.
    #[test]
    fn step_matches_plain_sampling_bit_for_bit() {
        let n = 256u64;
        let z = 1u64;
        let minority = Minority::new(5).unwrap().to_table(n).unwrap().compile().unwrap();
        let two_choices = TwoChoices::new().to_table(n).unwrap().compile().unwrap();
        for (kernel, symmetric) in [(&minority, true), (&two_choices, false)] {
            let mut cache = RoundPlanCache::new();
            let mut a = rng_from(42);
            let mut b = rng_from(42);
            let mut x = n / 2;
            let mut two_draw_rounds = 0;
            for _ in 0..2000 {
                let (p0, p1) = kernel.eval(x as f64 / n as f64);
                two_draw_rounds += usize::from(p0.to_bits() != p1.to_bits());
                let next = cache.step(kernel, n, z, x, &mut a);
                assert_eq!(next, plain_step(kernel, n, z, x, &mut b));
                x = next;
            }
            assert_eq!(two_draw_rounds == 0, symmetric, "{two_draw_rounds} two-draw rounds");
        }
    }

    /// Absorbing states (p exactly 0 or 1, empty counts) must be handled
    /// without burning randomness, like `sample_binomial`'s early returns.
    #[test]
    fn absorbing_states_are_fixed_points_and_draw_free() {
        let n = 64u64;
        let kernel = Minority::new(3).unwrap().to_table(n).unwrap().compile().unwrap();
        for z in [0u64, 1] {
            let mut cache = RoundPlanCache::new();
            // Visit twice: once through the miss path, once through a hit.
            for _ in 0..2 {
                let x = z * n;
                let mut rng = rng_from(5);
                let mut probe = rng_from(5);
                let next = cache.step(&kernel, n, z, x, &mut rng);
                assert_eq!(next, x, "consensus is absorbing");
                assert_eq!(rng.random::<u64>(), probe.random::<u64>(), "no randomness consumed");
            }
        }
    }

    /// Flipping the source opinion mid-run must not reuse plans built for
    /// the old `z`: every draw after the flip has to match a cold cache
    /// bit for bit. (Regression test: slots used to be tagged by `x`
    /// alone, so a plan for `(x, 1)` silently served `(x, 0)`.)
    #[test]
    fn source_flip_mid_run_matches_cold_cache() {
        let n = 256u64;
        let kernel = Minority::new(3).unwrap().to_table(n).unwrap().compile().unwrap();
        let mut warm = RoundPlanCache::new();
        // Warm the cache for z = 1 over a band of states.
        let mut x = n / 2;
        let mut rng = rng_from(13);
        for _ in 0..500 {
            x = warm.step(&kernel, n, 1, x, &mut rng);
        }
        // Flip the source to z = 0 and replay against a cold cache: the
        // warm cache's draws must be identical, state by state.
        let mut cold = RoundPlanCache::new();
        let mut a = rng_from(77);
        let mut b = rng_from(77);
        let mut xw = n / 2;
        let mut xc = n / 2;
        for round in 0..500 {
            xw = warm.step(&kernel, n, 0, xw, &mut a);
            xc = cold.step(&kernel, n, 0, xc, &mut b);
            assert_eq!(xw, xc, "stale z-plan served at round {round}");
        }
    }

    /// States further apart than the slot count alias the same slot; the
    /// cache must rebuild rather than reuse a stale plan, for one-draw and
    /// two-draw plans alike.
    #[test]
    fn aliasing_states_rebuild_instead_of_reusing() {
        let n = 2048u64;
        let z = 1u64;
        let minority = Minority::new(3).unwrap().to_table(n).unwrap().compile().unwrap();
        let two_choices = TwoChoices::new().to_table(n).unwrap().compile().unwrap();
        for kernel in [&minority, &two_choices] {
            let mut cache = RoundPlanCache::new();
            // x and x + 512 share a slot.
            for &x in &[700u64, 700 + 512, 700, 700 + 512] {
                let mut a = rng_from(9);
                let mut b = rng_from(9);
                let next = cache.step(kernel, n, z, x, &mut a);
                assert_eq!(next, plain_step(kernel, n, z, x, &mut b), "x={x}");
                assert_eq!(a.random::<u64>(), b.random::<u64>(), "same draw count at x={x}");
            }
        }
    }
}
