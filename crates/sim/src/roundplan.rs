//! Per-state round plans for the aggregate hot loop.
//!
//! For a fixed `(kernel, n, z)` everything a round needs — the adoption
//! probabilities `(P₀(x/n), P₁(x/n))`, the binomial counts, and the
//! sampler setups — is a pure function of the current ones-count `x`.
//! Two stores hold these plans:
//!
//! * [`PlanTable`] — a dense, immutable plan per state `x ∈ 0..=n` for
//!   the lock-step batched engine, built once per batch (once per
//!   replication call under the pooled drivers, whose shards all read it
//!   through [`SharedPlans`]; DESIGN decision 19). Every round is a load;
//!   nothing is rebuilt.
//! * [`RoundPlanCache`] — a 512-slot direct-mapped cache indexed by the
//!   low bits of `x`. It serves the per-replica
//!   [`AggregateSim`](crate::aggregate::AggregateSim) and batches above
//!   [`TABLE_MAX_STATES`]. A single chain
//!   revisits a narrow contiguous band of states (hovering around its
//!   drift fixed point, or drifting toward absorption), so the cache is
//!   collision-free whenever the band is narrower than the slot count,
//!   unlike a `(count, p)`-keyed memo where unrelated keys can hash to the
//!   same slot and evict each other every round. A batch whose replicas
//!   spread over the whole state space (Voter on its way to consensus)
//!   misses almost every round, which is what the table fixes.
//!
//! A round out of `x` is `z + Binomial(x − z, P₁) + Binomial(n − x − (1 − z), P₀)`.
//! When `P₀(x/n)` and `P₁(x/n)` are bit-equal (always, for rules that
//! ignore the agent's own opinion, such as Voter and Minority) the `n − 1`
//! non-source agents are i.i.d. and the round is exactly
//! `z + Binomial(n − 1, P)`: the plan then holds one sampler instead of
//! two (DESIGN decision 18).
//!
//! Both stores build a state's plans with the same function and draw from
//! them in the same order, and the draw code itself is byte-for-byte the
//! one behind [`sample_binomial`](crate::binomial::sample_binomial), so
//! sampled values are bit-identical for any rng state, whichever store
//! serves the round.

use std::sync::{Arc, OnceLock};

use bitdissem_core::Kernel;

use crate::binomial::{with_lnfact, Plan};
use crate::rng::SimRng;

/// Slot count of [`RoundPlanCache`] (power of two). The band one chain
/// visits is `O(√n)` wide, so 512 slots are collision-free for
/// populations up to the hundreds of thousands; beyond that the cache
/// degrades gracefully (distant states that alias simply rebuild on
/// revisit).
const SLOTS: usize = 512;

/// Most states a [`PlanTable`] covers: tables are built for `n + 1 ≤ 2¹⁷`,
/// i.e. at most 10 MiB of one-draw plans or 21 MiB of two-draw plans per
/// source opinion. Larger populations keep the per-shard
/// [`RoundPlanCache`].
pub(crate) const TABLE_MAX_STATES: u64 = 1 << 17;

/// The binomial counts and sampler setups of one round out of `x`. The
/// counts always sum to `n − 1`.
#[derive(Debug, Clone, Copy)]
struct StatePlans {
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

impl StatePlans {
    /// Evaluates the kernel at `x` and sets up the round's samplers.
    fn build(kernel: &Kernel, n: u64, z: u64, x: u64) -> Self {
        let (p0, p1) = kernel.eval(x as f64 / n as f64);
        let (keep_n, flip_n) = if p0.to_bits() == p1.to_bits() {
            // Opinion-independent round: all n − 1 non-source agents adopt 1
            // with the same probability, so the round is exactly
            // `z + Binomial(n − 1, P)` — one draw, and the empty flip
            // component is draw-free.
            (n - 1, 0)
        } else {
            // Environment perturbations can produce the transient states
            // `x < z` / `x + (1 − z) > n`; clamp into the legal band so the
            // component sizes never wrap `u64`.
            let cx = x.clamp(z, n - (1 - z));
            (cx - z, n - cx - (1 - z))
        };
        Self { keep_n, flip_n, keep: Plan::build(keep_n, p1), flip: Plan::build(flip_n, p0) }
    }
}

/// Everything needed to advance one replica from ones-count `x`.
#[derive(Debug, Clone, Copy)]
struct RoundPlan {
    /// The state this plan was built for (the slot tag: the raw `x`, also
    /// for clamped transient states, so lookups still hit).
    x: u64,
    /// The source opinion this plan was built for (part of the tag: a plan
    /// for `(x, z)` must never serve `(x, 1 − z)`).
    z: u64,
    plans: StatePlans,
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
            Some(plan) if plan.x == x && plan.z == z => &plan.plans,
            _ => &slot.insert(RoundPlan { x, z, plans: StatePlans::build(kernel, n, z, x) }).plans,
        };
        with_lnfact(n, |lnfact| {
            let keep = plan.keep.sample_with(rng, plan.keep_n, lnfact);
            let flip = plan.flip.sample_with(rng, plan.flip_n, lnfact);
            z + keep + flip
        })
    }
}

/// The plans of every state `x ∈ 0..=n` for one `(kernel, n, z)`: entry `x`
/// holds exactly the [`StatePlans`] that [`RoundPlanCache::step`] builds
/// for `(x, z)`, and [`PlanTable::step`] draws from them in the same
/// order, so both draw bit-identical rounds.
///
/// Entry `x` keeps the keep plan, and `(flip_n, flip)` only if some state
/// has a non-empty flip component; `keep_n` is `n − 1 − flip_n`. That is
/// 80 bytes per state for Voter or Minority, 168 for 2-Choices.
#[derive(Debug)]
struct PlanTable {
    n: u64,
    z: u64,
    /// `keep` per state.
    keep: Vec<Plan>,
    /// `(flip_n, flip)` per state (the draw-free `(0, Const(0))` where the
    /// flip component is empty); empty when it is empty at every state.
    flip: Vec<(u64, Plan)>,
}

impl PlanTable {
    /// Builds the plans of all `n + 1` states, serially.
    fn build(kernel: &Kernel, n: u64, z: u64) -> Self {
        let mut keep = Vec::with_capacity(n as usize + 1);
        let mut flip = Vec::new();
        for x in 0..=n {
            let plans = StatePlans::build(kernel, n, z, x);
            keep.push(plans.keep);
            if plans.flip_n > 0 || !flip.is_empty() {
                // The first state with a flip component back-fills the
                // draw-free plans before it; afterwards `flip` already has
                // length `x`.
                flip.resize(x as usize, (0, Plan::Const(0)));
                flip.push((plans.flip_n, plans.flip));
            }
        }
        flip.shrink_to_fit();
        Self { n, z, keep, flip }
    }

    /// [`RoundPlanCache::step`] with the plans read from the table and the
    /// `ln(i!)` table supplied by the caller.
    #[inline]
    fn step(&self, x: u64, rng: &mut SimRng, lnfact: &[f64]) -> u64 {
        let (flip_n, flip) = match self.flip.get(x as usize) {
            Some((flip_n, flip)) => (*flip_n, Some(flip)),
            None => (0, None),
        };
        let keep = self.keep[x as usize].sample_with(rng, self.n - 1 - flip_n, lnfact);
        self.z + keep + flip.map_or(0, |flip| flip.sample_with(rng, flip_n, lnfact))
    }

    /// Heap bytes held by the plans.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.keep.capacity() * std::mem::size_of::<Plan>()
            + self.flip.capacity() * std::mem::size_of::<(u64, Plan)>()
    }
}

/// The [`PlanTable`]s of one `(kernel, n)`, one per source opinion, read
/// by one batch or shared by every shard of a replication call. The table
/// for the start's `z` is built up front; the other on the first source
/// flip that needs it.
#[derive(Debug)]
pub(crate) struct SharedPlans {
    kernel: Arc<Kernel>,
    n: u64,
    by_z: [OnceLock<PlanTable>; 2],
}

impl SharedPlans {
    /// Builds the table for source opinion `z`, or returns `None` when
    /// `n + 1` exceeds [`TABLE_MAX_STATES`].
    pub(crate) fn new(kernel: &Arc<Kernel>, n: u64, z: u64) -> Option<Arc<Self>> {
        (n < TABLE_MAX_STATES).then(|| {
            let plans =
                Self { kernel: Arc::clone(kernel), n, by_z: [OnceLock::new(), OnceLock::new()] };
            plans.table(z);
            Arc::new(plans)
        })
    }

    /// The table for source opinion `z`, built on first use.
    fn table(&self, z: u64) -> &PlanTable {
        self.by_z[z as usize].get_or_init(|| PlanTable::build(&self.kernel, self.n, z))
    }
}

/// Where a lock-step batch reads its round plans.
#[derive(Debug)]
pub(crate) enum BatchPlans {
    /// Dense tables, shared with the other shards of a replication call.
    Shared(Arc<SharedPlans>),
    /// A private direct-mapped cache.
    Cache(RoundPlanCache),
}

impl BatchPlans {
    /// Reads `shared` when given, else a fresh cache.
    pub(crate) fn new(shared: Option<&Arc<SharedPlans>>) -> Self {
        shared.map_or_else(
            || BatchPlans::Cache(RoundPlanCache::new()),
            |shared| BatchPlans::Shared(Arc::clone(shared)),
        )
    }

    /// Advances every replica `(ones[i], rngs[i])` by one round under
    /// source opinion `z`.
    pub(crate) fn step_all(
        &mut self,
        kernel: &Kernel,
        n: u64,
        z: u64,
        ones: &mut [u64],
        rngs: &mut [SimRng],
    ) {
        match self {
            BatchPlans::Shared(plans) => {
                let table = plans.table(z);
                with_lnfact(n, |lnfact| {
                    for (x, rng) in ones.iter_mut().zip(rngs) {
                        *x = table.step(*x, rng, lnfact);
                    }
                });
            }
            BatchPlans::Cache(cache) => {
                for (x, rng) in ones.iter_mut().zip(rngs) {
                    *x = cache.step(kernel, n, z, *x, rng);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::sample_binomial;
    use crate::rng::rng_from;
    use bitdissem_core::dynamics::{Minority, Stay, TwoChoices, Voter};
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

    /// Voter, Minority(3) and 2-Choices at `n`: two one-draw kernels and
    /// one two-draw kernel.
    fn kernels(n: u64) -> Vec<Kernel> {
        vec![
            Voter::new(1).unwrap().to_table(n).unwrap().compile().unwrap(),
            Minority::new(3).unwrap().to_table(n).unwrap().compile().unwrap(),
            TwoChoices::new().to_table(n).unwrap().compile().unwrap(),
        ]
    }

    /// Every table entry must draw exactly what the cache draws for the
    /// same `(x, z)` — the same value and the same number of uniforms —
    /// for both source opinions and at every state, the transient
    /// out-of-band states `x < z` and `x + (1 − z) > n` included.
    #[test]
    fn table_matches_cache_at_every_state() {
        let n = 96u64;
        for kernel in &kernels(n) {
            for z in [0u64, 1] {
                let table = PlanTable::build(kernel, n, z);
                let mut cache = RoundPlanCache::new();
                for x in 0..=n {
                    for seed in 0..4 {
                        let mut a = rng_from(seed);
                        let mut b = rng_from(seed);
                        let from_table = with_lnfact(n, |lnfact| table.step(x, &mut a, lnfact));
                        assert_eq!(from_table, cache.step(kernel, n, z, x, &mut b), "x={x} z={z}");
                        assert_eq!(a.random::<u64>(), b.random::<u64>(), "draw count x={x} z={z}");
                    }
                }
            }
        }
    }

    /// A rule whose every round takes two draws with full-size
    /// components at the consensus states: a 0-holder adopts the
    /// opposite of its one sample, a 1-holder copies it. At `x/n = 0` a
    /// 0-holder adopts 1 surely; at `x/n = 1` a 1-holder keeps 1 surely.
    struct Contrarian;

    impl bitdissem_core::Protocol for Contrarian {
        fn sample_size(&self) -> usize {
            1
        }

        fn prob_one(&self, own: bitdissem_core::Opinion, k: usize, _n: u64) -> f64 {
            if own == bitdissem_core::Opinion::One {
                k as f64
            } else {
                1.0 - k as f64
            }
        }

        fn name(&self) -> String {
            "contrarian".into()
        }
    }

    /// A perturbation can hand the plans the transient states `x < z`
    /// (the source flipped to 1 before any agent holds 1) or
    /// `x + (1 − z) > n`. The component sizes must not wrap `u64`, and the
    /// step must stay inside `[z, n − (1 − z)]` — through the table and
    /// through the cache. (A saturating guard would pass the no-wrap half
    /// but admit `flip_n = n` for `(z, x) = (1, 0)` and `keep_n = n` for
    /// `(0, n)`, letting the contrarian rule step to `n + 1` and Stay to
    /// `n`.)
    #[test]
    fn build_clamps_transient_out_of_band_states() {
        let n = 64u64;
        let mut kernels = kernels(n);
        kernels.push(Stay::new(1).to_table(n).unwrap().compile().unwrap());
        kernels.push(Contrarian.to_table(n).unwrap().compile().unwrap());
        for kernel in &kernels {
            for (z, x) in [(1u64, 0u64), (0, n)] {
                let table = PlanTable::build(kernel, n, z);
                let mut cache = RoundPlanCache::new();
                for seed in 0..200 {
                    let from_table =
                        with_lnfact(n, |lnfact| table.step(x, &mut rng_from(seed), lnfact));
                    let from_cache = cache.step(kernel, n, z, x, &mut rng_from(seed));
                    for next in [from_table, from_cache] {
                        assert!(
                            next >= z && next <= n - (1 - z),
                            "({z}, {x}) stepped outside the band: {next}"
                        );
                    }
                }
            }
        }
    }

    /// A table built for one source opinion must never serve the other:
    /// [`SharedPlans::table`] hands out the table built for the `z` asked
    /// for, including the one built lazily after a flip.
    #[test]
    fn shared_tables_are_keyed_by_source_opinion() {
        let n = 64u64;
        for kernel in kernels(n) {
            let kernel = Arc::new(kernel);
            let shared = SharedPlans::new(&kernel, n, 1).expect("n is below the cap");
            assert!(shared.by_z[0].get().is_none(), "the other table waits for a flip");
            for z in [0u64, 1] {
                let table = shared.table(z);
                assert_eq!(table.z, z);
                let mut cache = RoundPlanCache::new();
                let (mut a, mut b) = (rng_from(3), rng_from(3));
                let mut x = n / 2;
                for _ in 0..200 {
                    let next = with_lnfact(n, |lnfact| table.step(x, &mut a, lnfact));
                    assert_eq!(next, cache.step(&kernel, n, z, x, &mut b), "z={z}");
                    x = next;
                }
            }
        }
    }

    /// One-draw kernels keep one plan per state (≤ 88 bytes); a two-draw
    /// kernel also keeps the flip column.
    #[test]
    fn opinion_independent_tables_take_one_plan_per_state() {
        let n = 1000u64;
        let states = n as usize + 1;
        let kernels = kernels(n);
        for kernel in &kernels[..2] {
            let table = PlanTable::build(kernel, n, 1);
            assert!(table.flip.is_empty(), "no flip column for a one-draw kernel");
            let per_state = table.heap_bytes() / states;
            assert!(per_state <= 88, "{per_state} bytes per state");
        }
        let two_choices = PlanTable::build(&kernels[2], n, 1);
        assert_eq!(two_choices.flip.len(), states);
    }

    /// Tables cover `n + 1 ≤ TABLE_MAX_STATES` states; one more state and
    /// the batch falls back to its cache.
    #[test]
    fn tables_stop_at_the_state_cap() {
        let voter = |n| Arc::new(Voter::new(1).unwrap().to_table(n).unwrap().compile().unwrap());
        let last = TABLE_MAX_STATES - 1;
        assert!(SharedPlans::new(&voter(last), last, 1).is_some());
        let first_above = TABLE_MAX_STATES;
        assert!(SharedPlans::new(&voter(first_above), first_above, 1).is_none());
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

    #[test]
    fn one_step_law_matches_the_exact_chain() {
        // One round out of a fixed state, drawn `m` times through the plan
        // cache (which the table matches draw for draw), against the exact
        // transition row of `bitdissem-markov`. By DKW,
        // P(sup |F_m − F| > ε) ≤ 2·exp(−2mε²), so ε = √(ln(2/α)/(2m)) gives
        // each of the 9 checks a false-alarm rate of α = 1e-9. Voter and
        // Minority take the one-draw path, 2-Choices the two-draw path.
        use crate::rng::replication_seed;
        use bitdissem_core::{Opinion, Protocol};
        use bitdissem_markov::AggregateChain;
        let n = 32u64;
        let m = 20_000u64;
        let alpha = 1e-9f64;
        let eps = ((2.0 / alpha).ln() / (2.0 * m as f64)).sqrt();
        let protocols: Vec<Box<dyn Protocol>> = vec![
            Box::new(Voter::new(1).unwrap()),
            Box::new(Minority::new(3).unwrap()),
            Box::new(TwoChoices::new()),
        ];
        for protocol in &protocols {
            let kernel = protocol.to_table(n).unwrap().compile().unwrap();
            let chain = AggregateChain::build(protocol.as_ref(), n, Opinion::One).unwrap();
            for x in [3u64, 16, 29] {
                let row = chain.transition_row(x);
                let mut cache = RoundPlanCache::new();
                let mut counts = vec![0u64; n as usize + 1];
                for rep in 0..m {
                    let mut rng = rng_from(replication_seed(0x5EED, rep));
                    counts[cache.step(&kernel, n, 1, x, &mut rng) as usize] += 1;
                }
                let (mut emp, mut exact, mut sup) = (0.0f64, 0.0f64, 0.0f64);
                for (&c, &p) in counts.iter().zip(&row) {
                    emp += c as f64 / m as f64;
                    exact += p;
                    sup = sup.max((emp - exact).abs());
                }
                assert!(
                    sup <= eps,
                    "{} at x={x}: DKW distance {sup:.4} > {eps:.4}",
                    protocol.name()
                );
            }
        }
    }
}
