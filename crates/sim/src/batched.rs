//! Lock-step batched replication of the aggregate chain.
//!
//! [`BatchedAggregateSim`] advances `B` independent replications of the
//! aggregate process one parallel round at a time, in struct-of-arrays
//! layout: one contiguous `ones` vector and one contiguous RNG vector,
//! walked linearly per round. All replicas share a single read-only
//! [`Kernel`] and one dense, immutable plan table per source opinion,
//! built once per batch — and once per call under the pooled drivers
//! ([`replicate_batched_observed`], [`replicate_batched_env_observed`]),
//! whose shards all read it — so a round never evaluates the kernel or
//! sets up a sampler, wherever the replicas are in the state space (DESIGN
//! decision 19). Above the table's state cap a batch keeps its own
//! 512-slot per-state plan cache instead.
//!
//! Replicas that reach the correct consensus are **retired** by
//! `swap_remove`, keeping the live arrays dense; the hot loop never
//! branches on dead replicas. Retirement is pure bookkeeping: each
//! replica's RNG stream is derived from its replication index alone and is
//! consumed only by that replica's own draws, so every replica's
//! trajectory is bit-identical to running it solo through
//! [`AggregateSim`](crate::aggregate::AggregateSim) with the same seed —
//! regardless of batch composition, retirement order, or chunking. The
//! `batched_matches_solo_bit_for_bit` test pins this.

use std::sync::{Arc, Mutex};

use bitdissem_core::{Configuration, Kernel};
use bitdissem_obs::{Event, LatencyId, Obs, ReplicationOutcome, Timer};
use bitdissem_pool::{effective_parallelism, Pool};

use crate::env::EnvSchedule;
use crate::rng::{replication_seed, rng_from, SimRng};
use crate::roundplan::{BatchPlans, SharedPlans};
use crate::run::Outcome;

/// `B` replicas of the aggregate chain stepped in lock-step.
///
/// Construction seeds every replica from the same start configuration;
/// replicas already at the correct consensus are retired immediately with
/// a convergence round of 0, matching the solo run-loop convention that
/// consensus is checked *before* stepping.
#[derive(Debug)]
pub struct BatchedAggregateSim {
    kernel: Arc<Kernel>,
    n: u64,
    /// Source contribution to the count of ones (1 iff the correct opinion
    /// is `One`).
    z: u64,
    /// The `ones` value that constitutes the correct consensus.
    target: u64,
    /// Rounds completed so far (shared by all live replicas).
    round: u64,
    // Dense live arrays, parallel by position.
    live_ones: Vec<u64>,
    live_rngs: Vec<SimRng>,
    live_rep: Vec<usize>,
    /// Position of each replica in the live arrays (`usize::MAX` once
    /// retired).
    pos_of_rep: Vec<usize>,
    /// Current (live) or final (retired) `ones` per replica.
    ones_by_rep: Vec<u64>,
    /// First round at which each replica held the correct consensus.
    converged_at: Vec<Option<u64>>,
    /// `false` keeps replicas stepping past the correct consensus (their
    /// first-hit round is still recorded). Required under an environment
    /// schedule that can knock a replica off consensus: consensus is no
    /// longer absorbing, so a retired replica would report a stale state.
    retire_on_consensus: bool,
    plans: BatchPlans,
}

impl BatchedAggregateSim {
    /// Creates a batch of `seeds.len()` replicas, all starting from
    /// `start`, with replica `i` drawing from `rng_from(seeds[i])`.
    #[must_use]
    pub fn new(kernel: Arc<Kernel>, start: Configuration, seeds: &[u64]) -> Self {
        Self::with_retirement(kernel, start, seeds, true)
    }

    /// [`BatchedAggregateSim::new`] with retirement pinned explicitly.
    /// `retire_on_consensus = false` keeps every replica live for the whole
    /// run — first consensus hits are recorded in `converged_at`, but the
    /// replicas continue stepping (the conformance harness needs the true
    /// post-consensus marginals when an environment schedule is active).
    ///
    /// Construction builds the batch's plan table (`n + 1` plans) unless
    /// `n + 1` exceeds the table's state cap.
    #[must_use]
    pub fn with_retirement(
        kernel: Arc<Kernel>,
        start: Configuration,
        seeds: &[u64],
        retire_on_consensus: bool,
    ) -> Self {
        let shared = shared_plans(&kernel, start);
        Self::with_plans(kernel, start, seeds, retire_on_consensus, shared.as_ref())
    }

    /// [`BatchedAggregateSim::with_retirement`] reading its round plans
    /// from `shared`, or from a private cache when it is `None`.
    fn with_plans(
        kernel: Arc<Kernel>,
        start: Configuration,
        seeds: &[u64],
        retire_on_consensus: bool,
        shared: Option<&Arc<SharedPlans>>,
    ) -> Self {
        let n = start.n();
        let z = u64::from(start.correct().as_bit());
        let target = if z == 1 { n } else { 0 };
        let b = seeds.len();
        let mut sim = Self {
            kernel,
            n,
            z,
            target,
            round: 0,
            live_ones: Vec::with_capacity(b),
            live_rngs: Vec::with_capacity(b),
            live_rep: Vec::with_capacity(b),
            pos_of_rep: vec![usize::MAX; b],
            ones_by_rep: vec![start.ones(); b],
            converged_at: vec![None; b],
            retire_on_consensus,
            plans: BatchPlans::new(shared),
        };
        for (rep, &seed) in seeds.iter().enumerate() {
            if start.ones() == target {
                sim.converged_at[rep] = Some(0);
                if retire_on_consensus {
                    continue;
                }
            }
            sim.pos_of_rep[rep] = sim.live_ones.len();
            sim.live_ones.push(start.ones());
            sim.live_rngs.push(rng_from(seed));
            sim.live_rep.push(rep);
        }
        sim
    }

    /// Total number of replicas in the batch (live and retired).
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.converged_at.len()
    }

    /// Number of replicas still running.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live_ones.len()
    }

    /// Rounds completed so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current `ones` count of replica `rep` — its final (consensus) value
    /// once retired.
    #[must_use]
    pub fn ones_of(&self, rep: usize) -> u64 {
        self.ones_by_rep[rep]
    }

    /// First round at which replica `rep` held the correct consensus, or
    /// `None` while it is still running.
    #[must_use]
    pub fn converged_at(&self, rep: usize) -> Option<u64> {
        self.converged_at[rep]
    }

    /// Advances every live replica by one parallel round, then retires the
    /// replicas that reached the correct consensus.
    pub fn step_round(&mut self) {
        self.round += 1;
        self.plans.step_all(&self.kernel, self.n, self.z, &mut self.live_ones, &mut self.live_rngs);
        for (&rep, &next) in self.live_rep.iter().zip(&self.live_ones) {
            debug_assert!(next <= self.n);
            self.ones_by_rep[rep] = next;
        }
        // Retire in a separate dense sweep so the sampling loop stays
        // branch-light; swap_remove keeps the arrays packed.
        let mut pos = 0;
        while pos < self.live_ones.len() {
            if self.live_ones[pos] == self.target {
                let rep = self.live_rep[pos];
                if self.converged_at[rep].is_none() {
                    self.converged_at[rep] = Some(self.round);
                }
                if self.retire_on_consensus {
                    self.retire(pos);
                    continue;
                }
            }
            pos += 1;
        }
    }

    /// Applies the environment schedule at the current round boundary
    /// (`t = self.round`), drawing each replica's perturbation randomness
    /// from that replica's own stream — exactly the draws the solo
    /// [`run_to_consensus_env`](crate::run::run_to_consensus_env) loop
    /// makes, so trajectories stay bit-identical to the per-replica
    /// engine. Returns the number of perturbation events across the batch.
    ///
    /// Source flips are time-scheduled, so every replica computes the same
    /// new `z`; the shared `z`/`target` pair is committed after the sweep.
    pub fn perturb_round(&mut self, env: &EnvSchedule) -> u64 {
        let t = self.round;
        let mut events_total = 0u64;
        let mut new_z = self.z;
        for pos in 0..self.live_ones.len() {
            let mut z = self.z;
            let mut x = self.live_ones[pos];
            let events = env.apply_aggregate(t, self.n, &mut z, &mut x, &mut self.live_rngs[pos]);
            if events > 0 {
                self.live_ones[pos] = x;
                self.ones_by_rep[self.live_rep[pos]] = x;
            }
            events_total += events;
            new_z = z;
        }
        if new_z != self.z {
            self.z = new_z;
            self.target = if self.z == 1 { self.n } else { 0 };
        }
        events_total
    }

    fn retire(&mut self, pos: usize) {
        self.pos_of_rep[self.live_rep[pos]] = usize::MAX;
        self.live_ones.swap_remove(pos);
        self.live_rngs.swap_remove(pos);
        self.live_rep.swap_remove(pos);
        if pos < self.live_rep.len() {
            self.pos_of_rep[self.live_rep[pos]] = pos;
        }
    }

    /// Per-replica outcomes under a round budget: `Converged` with the
    /// recorded round for retired replicas, `TimedOut { rounds: budget }`
    /// for the rest.
    #[must_use]
    pub fn outcomes(&self, budget: u64) -> Vec<Outcome> {
        self.converged_at
            .iter()
            .map(|c| match *c {
                Some(rounds) => Outcome::Converged { rounds },
                None => Outcome::TimedOut { rounds: budget },
            })
            .collect()
    }

    /// Runs until every replica has converged or `budget` rounds have
    /// elapsed, and returns the per-replica outcomes in batch order.
    ///
    /// Outcomes are bit-identical to running each replica solo through
    /// [`run_to_consensus`](crate::run::run_to_consensus) with the same
    /// seed and budget.
    pub fn run_to_consensus(&mut self, budget: u64) -> Vec<Outcome> {
        while self.live() > 0 && self.round < budget {
            self.step_round();
        }
        self.outcomes(budget)
    }

    /// [`BatchedAggregateSim::run_to_consensus`] under an environment
    /// schedule: every boundary `t` is perturbed after the consensus check
    /// at `t` (the retirement sweep of the previous round) and before the
    /// step to `t + 1` — the same convention as the solo
    /// [`run_to_consensus_env`](crate::run::run_to_consensus_env), to which
    /// each replica's trajectory is bit-identical.
    pub fn run_to_consensus_env(&mut self, budget: u64, env: &EnvSchedule) -> Vec<Outcome> {
        while self.live() > 0 && self.round < budget {
            self.perturb_round(env);
            self.step_round();
        }
        self.outcomes(budget)
    }

    /// [`BatchedAggregateSim::run_to_consensus`] with observability:
    /// emits per-replica [`Event::RoundCompleted`] events (subject to the
    /// handle's round stride; a replica that retires in round `r` reports
    /// `r` too, like the solo loop) and one [`Event::ReplicationFinished`]
    /// per replica, and batch-adds the round, sample and retirement
    /// counters so metric totals match the solo path.
    ///
    /// Events leave the batch one round at a time: each round's events
    /// fill a reusable buffer handed to [`Obs::emit_all`], so a locking
    /// sink is locked once per round rather than once per event. Each
    /// replica's events keep their order; events of concurrent shards
    /// interleave at round granularity. The round-pass latency is sampled
    /// 1 in [`LATENCY_SAMPLE_EVERY`](bitdissem_obs::LATENCY_SAMPLE_EVERY).
    ///
    /// `reps[i]` is the trace label for batch replica `i` (the replication
    /// index within the experiment). Instrumentation never touches the
    /// RNGs, so outcomes are identical to the uninstrumented run.
    ///
    /// # Panics
    ///
    /// Panics if `reps.len() != self.batch_size()`.
    pub fn run_to_consensus_observed(
        &mut self,
        budget: u64,
        obs: &Obs,
        reps: &[u64],
    ) -> Vec<Outcome> {
        self.run_observed(budget, None, obs, reps)
    }

    /// [`BatchedAggregateSim::run_to_consensus_env`] with the same
    /// observability as [`BatchedAggregateSim::run_to_consensus_observed`],
    /// plus the batch total of perturbation events folded into the
    /// `perturbations_applied` counter.
    ///
    /// # Panics
    ///
    /// Panics if `reps.len() != self.batch_size()`.
    pub fn run_to_consensus_env_observed(
        &mut self,
        budget: u64,
        env: &EnvSchedule,
        obs: &Obs,
        reps: &[u64],
    ) -> Vec<Outcome> {
        self.run_observed(budget, Some(env), obs, reps)
    }

    /// The observed loop behind both `*_observed` runs; `env` perturbs
    /// each boundary when given.
    fn run_observed(
        &mut self,
        budget: u64,
        env: Option<&EnvSchedule>,
        obs: &Obs,
        reps: &[u64],
    ) -> Vec<Outcome> {
        assert_eq!(reps.len(), self.batch_size(), "one trace label per replica");
        let timer = Timer::start();
        let mut perturbations = 0u64;
        let mut events = Vec::new();
        if obs.active() {
            // Replicas already at consensus finish at round 0, before any
            // round event — same shape as the solo loop.
            self.fill_round_events(&mut events, reps, false, &timer);
            obs.emit_all(&events);
        }
        while self.live() > 0 && self.round < budget {
            if let Some(env) = env {
                perturbations += self.perturb_round(env);
            }
            // Sampled 1-in-8: a round is microseconds, so timing every pass
            // would itself cost a few percent (see LATENCY_SAMPLE_EVERY).
            let pass_start = (obs.metrics_on()
                && self.round.is_multiple_of(bitdissem_obs::LATENCY_SAMPLE_EVERY))
            .then(std::time::Instant::now);
            self.step_round();
            if let Some(start) = pass_start {
                obs.metrics().record_latency(
                    LatencyId::RoundPass,
                    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
            }
            if obs.active() {
                // Read after the step: a source flip mid-run changes the
                // opinion the round events carry.
                self.fill_round_events(&mut events, reps, obs.wants_round(self.round), &timer);
                obs.emit_all(&events);
            }
        }
        if obs.active() {
            events.clear();
            events.extend(self.live_rep.iter().map(|&rep| Event::ReplicationFinished {
                rep: reps[rep],
                outcome: ReplicationOutcome::TimedOut,
                rounds: budget,
                elapsed_us: timer.elapsed_us(),
            }));
            obs.emit_all(&events);
        }
        if obs.metrics_on() {
            let samples_per_round = (self.kernel.sample_size() as u64).saturating_mul(self.n);
            let mut rounds_total: u64 = 0;
            let mut samples_total: u64 = 0;
            for c in &self.converged_at {
                // Without retirement every replica runs the full loop, not
                // just up to its first consensus hit.
                let steps = if self.retire_on_consensus { c.unwrap_or(budget) } else { self.round };
                rounds_total += steps;
                samples_total =
                    samples_total.saturating_add(steps.saturating_mul(samples_per_round));
            }
            obs.metrics().add_rounds(rounds_total);
            obs.metrics().add_samples(samples_total);
            let retired = self.converged_at.iter().filter(|c| c.is_some()).count();
            obs.metrics().add_retired(retired as u64);
            if env.is_some() {
                obs.metrics().add_perturbations(perturbations);
            }
        }
        self.outcomes(budget)
    }

    /// Replaces `events` with the current round's events, in emission
    /// order: when `with_rounds`, one `RoundCompleted` per live replica
    /// (post-round state, live-position order); then, in batch order, each
    /// replica that reached consensus this round reports that round too
    /// (when `with_rounds`) and its `ReplicationFinished`.
    fn fill_round_events(
        &self,
        events: &mut Vec<Event>,
        reps: &[u64],
        with_rounds: bool,
        timer: &Timer,
    ) {
        events.clear();
        let (round, source_opinion) = (self.round, self.z as u8);
        if with_rounds {
            events.extend(self.live_rep.iter().zip(&self.live_ones).map(|(&rep, &ones)| {
                Event::RoundCompleted { rep: reps[rep], round, ones, source_opinion }
            }));
        }
        for (rep, &label) in reps.iter().enumerate() {
            if self.converged_at[rep] != Some(round) {
                continue;
            }
            if with_rounds {
                let ones = self.ones_by_rep[rep];
                events.push(Event::RoundCompleted { rep: label, round, ones, source_opinion });
            }
            events.push(Event::ReplicationFinished {
                rep: label,
                outcome: ReplicationOutcome::Converged,
                rounds: round,
                elapsed_us: timer.elapsed_us(),
            });
        }
    }
}

/// The plan tables of `(kernel, n, z)` for a batch starting at `start`, or
/// `None` above the table's state cap.
fn shared_plans(kernel: &Arc<Kernel>, start: Configuration) -> Option<Arc<SharedPlans>> {
    SharedPlans::new(kernel, start.n(), u64::from(start.correct().as_bit()))
}

/// Smallest chunk a pool task will step lock-step.
const MIN_CHUNK: usize = 8;
/// Largest chunk a pool task will step lock-step. Wide enough to amortize
/// the per-round loop overhead, narrow enough that work-stealing can
/// balance heavy-tailed convergence times.
const MAX_CHUNK: usize = 64;

/// Runs the replications named by `indices` through lock-step batches over
/// the shared worker pool and returns their outcomes **in the order of
/// `indices`**.
///
/// The batched counterpart of
/// [`replicate_indices_observed`](crate::runner::replicate_indices_observed):
/// each replica still derives its RNG from its own index via
/// [`replication_seed`], so results are bit-identical to the per-replica
/// engine (and to any partition of the index set across calls — the
/// checkpoint-splicing contract), for every thread count and chunk layout.
///
/// The call builds one plan table for `(kernel, n, z)` up front (serially)
/// and every shard reads it through an `Arc`; populations above the
/// table's state cap keep a per-shard plan cache instead (DESIGN decision
/// 19).
///
/// # Panics
///
/// Panics if any batch task panics (the panic is propagated).
#[must_use]
pub fn replicate_batched_observed(
    kernel: &Arc<Kernel>,
    start: Configuration,
    indices: &[usize],
    base_seed: u64,
    threads: Option<usize>,
    budget: u64,
    obs: &Obs,
) -> Vec<Outcome> {
    replicate_batched_inner(kernel, start, indices, base_seed, threads, budget, None, obs)
}

/// [`replicate_batched_observed`] under an environment schedule: every
/// replica perturbs and steps through
/// [`BatchedAggregateSim::run_to_consensus_env_observed`], so outcomes stay
/// bit-identical to the solo
/// [`run_to_consensus_env`](crate::run::run_to_consensus_env) with the same
/// replication seed, for every thread count and chunk layout.
///
/// # Panics
///
/// Panics if any batch task panics (the panic is propagated).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn replicate_batched_env_observed(
    kernel: &Arc<Kernel>,
    start: Configuration,
    indices: &[usize],
    base_seed: u64,
    threads: Option<usize>,
    budget: u64,
    env: &EnvSchedule,
    obs: &Obs,
) -> Vec<Outcome> {
    replicate_batched_inner(kernel, start, indices, base_seed, threads, budget, Some(env), obs)
}

/// The pooled driver behind both public entry points. `threads: None`
/// resolves through [`effective_parallelism`], so it honours
/// `BITDISSEM_POOL_WORKERS`; each shard's trace labels are its replication
/// indices.
#[allow(clippy::too_many_arguments)]
fn replicate_batched_inner(
    kernel: &Arc<Kernel>,
    start: Configuration,
    indices: &[usize],
    base_seed: u64,
    threads: Option<usize>,
    budget: u64,
    env: Option<&EnvSchedule>,
    obs: &Obs,
) -> Vec<Outcome> {
    if indices.is_empty() {
        return Vec::new();
    }
    let tasks = indices.len();
    let cap = threads.unwrap_or_else(effective_parallelism).clamp(1, tasks);
    // Aim for ~4 chunks per worker so stealing can balance convergence-time
    // skew; chunk boundaries never affect results.
    let chunk = tasks.div_ceil(cap * 4).clamp(MIN_CHUNK, MAX_CHUNK);
    let shared = shared_plans(kernel, start);

    let _scope = obs.scope("replicate");
    if obs.metrics_on() {
        obs.metrics().add_rng_streams(tasks as u64);
        obs.metrics().add_replications(tasks as u64);
    }

    let slots: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; tasks]);
    let stats = Pool::global().run_chunks(tasks, chunk, cap, &|range| {
        // Batch-level latency span (one per lock-step shard), distinct
        // from the per-replication "replication" span of the reference
        // engine.
        let _span = obs.span("replication_batch");
        let chunk_indices = &indices[range.clone()];
        let seeds: Vec<u64> =
            chunk_indices.iter().map(|&rep| replication_seed(base_seed, rep as u64)).collect();
        let labels: Vec<u64> = chunk_indices.iter().map(|&rep| rep as u64).collect();
        let mut batch = BatchedAggregateSim::with_plans(
            Arc::clone(kernel),
            start,
            &seeds,
            true,
            shared.as_ref(),
        );
        let outcomes = batch.run_observed(budget, env, obs, &labels);
        {
            let mut slots = slots.lock().expect("lock-step replication slots poisoned");
            for (offset, outcome) in outcomes.into_iter().enumerate() {
                let slot = &mut slots[range.start + offset];
                debug_assert!(slot.is_none(), "replication produced twice");
                *slot = Some(outcome);
            }
        }
        if let Some(progress) = obs.progress() {
            progress.tick(chunk_indices.len() as u64);
        }
    });
    if obs.metrics_on() {
        obs.metrics().add_pool_batch(stats.tasks, stats.steals);
    }

    slots
        .into_inner()
        .expect("lock-step replication slots poisoned")
        .into_iter()
        .map(|r| r.expect("every replication index is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSim;
    use crate::rng::replication_seed;
    use crate::run::{run_to_consensus, Simulator};
    use crate::runner::replicate_indices_observed;
    use bitdissem_core::dynamics::{Minority, Stay, TwoChoices, Voter};
    use bitdissem_core::{Opinion, ProtocolExt};
    use bitdissem_obs::{Event, ReplicationOutcome};

    fn kernel_of(protocol: &dyn bitdissem_core::Protocol, n: u64) -> Arc<Kernel> {
        Arc::new(protocol.to_table(n).unwrap().compile().unwrap())
    }

    fn seeds_for(base: u64, reps: usize) -> Vec<u64> {
        (0..reps).map(|rep| replication_seed(base, rep as u64)).collect()
    }

    #[test]
    fn batched_matches_solo_bit_for_bit() {
        // Every replica of the batch must reproduce the exact trajectory of
        // a solo AggregateSim with the same seed — not just the same law.
        let n = 300;
        let minority = Minority::new(5).unwrap();
        let kernel = kernel_of(&minority, n);
        let start = Configuration::new(n, Opinion::One, 90).unwrap();
        let base = 424_242;
        let budget = 200_000;

        let solo: Vec<Outcome> = (0..24)
            .map(|rep| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                let mut rng = rng_from(replication_seed(base, rep));
                run_to_consensus(&mut sim, &mut rng, budget)
            })
            .collect();

        let mut batch = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, 24));
        let batched = batch.run_to_consensus(budget);
        assert_eq!(batched, solo);
    }

    #[test]
    fn lock_step_trajectories_match_solo_round_by_round() {
        // Stronger than outcome equality: after every lock-step round, each
        // live replica's ones count equals the solo simulator's state at
        // the same round.
        let n = 200;
        let kernel = kernel_of(&Voter::new(3).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 60).unwrap();
        assert_tracks_solo_round_by_round(&kernel, start, 500);
    }

    /// Steps a batch next to solo `AggregateSim`s for up to `rounds` rounds
    /// and asserts equal states after every round. The batch must read a
    /// plan table below the state cap and its own cache above it.
    fn assert_tracks_solo_round_by_round(kernel: &Arc<Kernel>, start: Configuration, rounds: u64) {
        let (base, reps) = (7, 8usize);
        let mut batch = BatchedAggregateSim::new(Arc::clone(kernel), start, &seeds_for(base, reps));
        let tabled = matches!(batch.plans, BatchPlans::Shared(_));
        assert_eq!(tabled, start.n() < crate::roundplan::TABLE_MAX_STATES, "n={}", start.n());
        let mut solos: Vec<(AggregateSim, SimRng)> = (0..reps)
            .map(|rep| {
                let sim = AggregateSim::with_kernel(Arc::clone(kernel), start);
                (sim, rng_from(replication_seed(base, rep as u64)))
            })
            .collect();
        while batch.live() > 0 && batch.round() < rounds {
            batch.step_round();
            for (rep, (sim, rng)) in solos.iter_mut().enumerate() {
                if !sim.configuration().is_correct_consensus() {
                    sim.step_round(rng);
                }
                let round = batch.round();
                assert_eq!(batch.ones_of(rep), sim.configuration().ones(), "rep {rep} r{round}");
            }
        }
    }

    #[test]
    fn already_converged_start_retires_everything_at_round_zero() {
        let n = 64;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::correct_consensus(n, Opinion::One);
        let mut batch = BatchedAggregateSim::new(kernel, start, &seeds_for(1, 5));
        assert_eq!(batch.live(), 0);
        assert_eq!(batch.run_to_consensus(100), vec![Outcome::Converged { rounds: 0 }; 5]);
        for rep in 0..5 {
            assert_eq!(batch.converged_at(rep), Some(0));
            assert_eq!(batch.ones_of(rep), n);
        }
    }

    #[test]
    fn stay_times_out_with_the_budget() {
        let n = 32;
        let stay = Stay::new(1);
        let kernel = kernel_of(&stay, n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let mut batch = BatchedAggregateSim::new(kernel, start, &seeds_for(3, 4));
        assert_eq!(batch.run_to_consensus(50), vec![Outcome::TimedOut { rounds: 50 }; 4]);
        assert_eq!(batch.round(), 50);
    }

    #[test]
    fn zero_budget_means_no_steps() {
        let n = 32;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let mut batch = BatchedAggregateSim::new(kernel, start, &seeds_for(3, 3));
        assert_eq!(batch.run_to_consensus(0), vec![Outcome::TimedOut { rounds: 0 }; 3]);
        assert_eq!(batch.round(), 0);
    }

    #[test]
    fn retirement_keeps_survivor_bookkeeping_consistent() {
        // Run a batch where replicas converge at different rounds and check
        // ones_of/converged_at stay coherent through the swap_removes.
        let n = 100;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 50).unwrap();
        let reps = 16usize;
        let mut batch = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(11, reps));
        let outcomes = batch.run_to_consensus(500_000);
        let distinct: std::collections::HashSet<u64> =
            outcomes.iter().filter_map(Outcome::rounds).collect();
        assert!(distinct.len() > 1, "replicas should converge at different rounds");
        for (rep, outcome) in outcomes.iter().enumerate() {
            if outcome.is_converged() {
                assert_eq!(batch.converged_at(rep), outcome.rounds());
                assert_eq!(batch.ones_of(rep), n, "retired replica holds the consensus");
            }
        }
    }

    #[test]
    fn retirement_keeps_survivor_bookkeeping_consistent_every_round() {
        // The swap_remove bookkeeping must hold after every round, not only
        // at the end: the live arrays and `pos_of_rep` index each other,
        // exactly the unconverged replicas are live, and a retired replica
        // holds the consensus it reached.
        let n = 100;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 50).unwrap();
        let reps = 16usize;
        let mut batch = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(11, reps));
        let mut retirements = 0;
        while batch.live() > 0 {
            let live_before = batch.live();
            batch.step_round();
            retirements += usize::from(batch.live() < live_before);
            let round = batch.round();
            assert_eq!(batch.live_rngs.len(), batch.live(), "r{round}");
            assert_eq!(batch.live_rep.len(), batch.live(), "r{round}");
            for (pos, &rep) in batch.live_rep.iter().enumerate() {
                assert_eq!(batch.pos_of_rep[rep], pos, "r{round} rep {rep}");
                assert_eq!(batch.ones_of(rep), batch.live_ones[pos], "r{round} rep {rep}");
                assert_eq!(batch.converged_at(rep), None, "r{round} rep {rep}");
            }
            for rep in 0..reps {
                if batch.pos_of_rep[rep] == usize::MAX {
                    assert!(batch.converged_at(rep).is_some_and(|k| k <= round), "rep {rep}");
                    assert_eq!(batch.ones_of(rep), n, "retired rep {rep} holds the consensus");
                }
            }
        }
        assert!(retirements > 1, "replicas should retire in different rounds");
    }

    #[test]
    fn batch_composition_cannot_change_a_trajectory() {
        // A replica's path is a pure function of its own stream: running
        // it in a batch of 16 and in a batch of 1 must agree bit for bit,
        // despite different retirement orders.
        let n = 250;
        let kernel = kernel_of(&Minority::new(3).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 70).unwrap();
        let seeds = seeds_for(5, 16);
        let budget = 200_000;
        let together =
            BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds).run_to_consensus(budget);
        for (rep, &seed) in seeds.iter().enumerate() {
            let alone = BatchedAggregateSim::new(Arc::clone(&kernel), start, &[seed])
                .run_to_consensus(budget);
            assert_eq!(alone[0], together[rep], "rep {rep}");
        }
    }

    #[test]
    fn driver_is_deterministic_across_thread_counts_and_shards() {
        // The pooled driver (shared tables, chunked shards) must reproduce
        // one un-sharded batch over all replications (own tables), for
        // every thread count and for a sparse index subset.
        let n = 250;
        let kernel = kernel_of(&Minority::new(3).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 70).unwrap();
        let base = 99;
        let budget = 200_000;
        let obs = Obs::none();
        let indices: Vec<usize> = (0..40).collect();

        let reference = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, 40))
            .run_to_consensus(budget);
        for &threads in &[1usize, 2, 7] {
            let sharded = replicate_batched_observed(
                &kernel,
                start,
                &indices,
                base,
                Some(threads),
                budget,
                &obs,
            );
            assert_eq!(sharded, reference, "threads={threads}");
        }
        let sparse: Vec<usize> = (0..40).filter(|i| i % 3 == 0).collect();
        let spliced =
            replicate_batched_observed(&kernel, start, &sparse, base, Some(2), budget, &obs);
        for (pos, &rep) in sparse.iter().enumerate() {
            assert_eq!(spliced[pos], reference[rep], "sparse rep {rep}");
        }
    }

    #[test]
    fn driver_finishes_an_already_converged_start_at_round_zero() {
        // Both pooled drivers, any thread count: every replication of a
        // start at the correct consensus converges at round 0 and is
        // charged no rounds.
        let n = 64;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::correct_consensus(n, Opinion::One);
        let env: EnvSchedule = "flip@3,noise:0.05".parse().unwrap();
        let reps = 20usize;
        let indices: Vec<usize> = (0..reps).collect();
        for threads in [1usize, 3] {
            for env in [None, Some(&env)] {
                let obs = Obs::none().with_metrics();
                let outcomes = replicate_batched_inner(
                    &kernel,
                    start,
                    &indices,
                    1,
                    Some(threads),
                    100,
                    env,
                    &obs,
                );
                assert_eq!(outcomes, vec![Outcome::Converged { rounds: 0 }; reps], "{threads}");
                let m = obs.metrics();
                assert_eq!(m.rounds_simulated.load(std::sync::atomic::Ordering::Relaxed), 0);
                assert_eq!(
                    m.replicas_retired.load(std::sync::atomic::Ordering::Relaxed),
                    reps as u64
                );
            }
        }
    }

    #[test]
    fn driver_times_out_with_the_budget() {
        // Stay never leaves the all-wrong start: both pooled drivers time
        // every replication out at the budget and charge it in full.
        let n = 32;
        let kernel = kernel_of(&Stay::new(1), n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let env: EnvSchedule = "noise:0.01".parse().unwrap();
        let reps = 12usize;
        let indices: Vec<usize> = (0..reps).collect();
        for threads in [1usize, 3] {
            for env in [None, Some(&env)] {
                let obs = Obs::none().with_metrics();
                let outcomes = replicate_batched_inner(
                    &kernel,
                    start,
                    &indices,
                    3,
                    Some(threads),
                    50,
                    env,
                    &obs,
                );
                assert_eq!(outcomes, vec![Outcome::TimedOut { rounds: 50 }; reps], "{threads}");
                let m = obs.metrics();
                assert_eq!(
                    m.rounds_simulated.load(std::sync::atomic::Ordering::Relaxed),
                    50 * reps as u64
                );
            }
        }
    }

    #[test]
    fn driver_zero_budget_means_no_steps() {
        // A zero budget steps nothing and perturbs nothing: an all-wrong
        // start times out at round 0, a consensus start converges there.
        let n = 32;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let env: EnvSchedule = "flip@0,noise:0.5".parse().unwrap();
        let reps = 9usize;
        let indices: Vec<usize> = (0..reps).collect();
        for (start, outcome) in [
            (Configuration::all_wrong(n, Opinion::One), Outcome::TimedOut { rounds: 0 }),
            (Configuration::correct_consensus(n, Opinion::One), Outcome::Converged { rounds: 0 }),
        ] {
            for env in [None, Some(&env)] {
                let obs = Obs::none().with_metrics();
                let outcomes =
                    replicate_batched_inner(&kernel, start, &indices, 3, Some(2), 0, env, &obs);
                assert_eq!(outcomes, vec![outcome; reps]);
                let m = obs.metrics();
                assert_eq!(m.rounds_simulated.load(std::sync::atomic::Ordering::Relaxed), 0);
                assert_eq!(m.perturbations_applied.load(std::sync::atomic::Ordering::Relaxed), 0);
            }
        }
    }

    #[test]
    fn driver_matches_per_replica_engine_bit_for_bit() {
        // The pooled batched driver and the reference per-replica engine
        // must agree on every outcome, for any thread count — including a
        // sparse index subset (the checkpoint-splicing contract).
        let n = 250;
        let minority = Minority::new(3).unwrap();
        let kernel = kernel_of(&minority, n);
        let start = Configuration::new(n, Opinion::One, 70).unwrap();
        let base = 99;
        let budget = 200_000;
        let obs = Obs::none();

        let indices: Vec<usize> = (0..40).collect();
        let reference = replicate_indices_observed(&indices, base, Some(4), &obs, |mut rng, _| {
            let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
            run_to_consensus(&mut sim, &mut rng, budget)
        });
        for &threads in &[1usize, 2, 7] {
            let batched = replicate_batched_observed(
                &kernel,
                start,
                &indices,
                base,
                Some(threads),
                budget,
                &obs,
            );
            assert_eq!(batched, reference, "threads={threads}");
        }
        let sparse: Vec<usize> = (0..40).filter(|i| i % 3 == 0).collect();
        let spliced =
            replicate_batched_observed(&kernel, start, &sparse, base, Some(2), budget, &obs);
        for (pos, &rep) in sparse.iter().enumerate() {
            assert_eq!(spliced[pos], reference[rep], "sparse rep {rep}");
        }
    }

    #[test]
    fn env_run_matches_solo_env_bit_for_bit() {
        // Under an active schedule the batched engine must still reproduce
        // the exact per-replica trajectory: perturbation draws come from
        // each replica's own stream, in the same perturb-then-step order
        // as the solo loop.
        let n = 64;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 20).unwrap();
        let env: crate::env::EnvSchedule = "flip@30,noise:0.01".parse().unwrap();
        let base = 77;
        let reps = 12usize;
        let budget = 20_000;

        let solo: Vec<Outcome> = (0..reps)
            .map(|rep| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                let mut rng = rng_from(replication_seed(base, rep as u64));
                crate::run::run_to_consensus_env(&mut sim, &env, &mut rng, budget)
            })
            .collect();
        assert!(solo.iter().any(Outcome::is_converged), "some replicas re-converge post-flip");

        let mut batch =
            BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps));
        assert_eq!(batch.run_to_consensus_env(budget, &env), solo);

        // The pooled driver agrees too, for several thread counts.
        let indices: Vec<usize> = (0..reps).collect();
        for &threads in &[1usize, 3] {
            let driven = replicate_batched_env_observed(
                &kernel,
                start,
                &indices,
                base,
                Some(threads),
                budget,
                &env,
                &Obs::none(),
            );
            assert_eq!(driven, solo, "threads={threads}");
        }
    }

    #[test]
    fn env_run_is_pure_per_stream() {
        // Perturbation draws come from each replica's own stream, so under
        // an active schedule a trajectory still cannot depend on batch
        // composition, and the pooled env driver shards without changing
        // outcomes either.
        let n = 250;
        let kernel = kernel_of(&Minority::new(3).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 70).unwrap();
        let env: EnvSchedule = "flip@60,noise:0.02".parse().unwrap();
        let seeds = seeds_for(13, 16);
        let budget = 30_000;
        let together = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds)
            .run_to_consensus_env(budget, &env);
        for (rep, &seed) in seeds.iter().enumerate() {
            let alone = BatchedAggregateSim::new(Arc::clone(&kernel), start, &[seed])
                .run_to_consensus_env(budget, &env);
            assert_eq!(alone[0], together[rep], "rep {rep}");
        }
        let indices: Vec<usize> = (0..16).collect();
        for &threads in &[1usize, 3] {
            let driven = replicate_batched_env_observed(
                &kernel,
                start,
                &indices,
                13,
                Some(threads),
                budget,
                &env,
                &Obs::none(),
            );
            assert_eq!(driven, together, "threads={threads}");
        }
    }

    #[test]
    fn source_flip_invalidates_cached_steps() {
        // Above the table cap a batch steps through its own plan cache,
        // shared by all its replicas. After a source flip, a state some
        // replica stepped from under the old `z` must be rebuilt for the
        // new `z`: every replica has to match the solo env loop bit for
        // bit. The solo runs also record the states stepped from before
        // and after the flip, to show that the batch's cache was asked
        // for a state it had warmed under the old source.
        let n = crate::roundplan::TABLE_MAX_STATES;
        let start = Configuration::new(n, Opinion::One, n / 2).unwrap();
        let env: EnvSchedule = "flip@6".parse().unwrap();
        let (base, reps, budget) = (23, 64usize, 16);
        let (voter, two_choices) = (Voter::new(1).unwrap(), TwoChoices::new());
        for protocol in [&voter as &dyn bitdissem_core::Protocol, &two_choices] {
            let kernel = kernel_of(protocol, n);
            let mut before = std::collections::HashSet::new();
            let mut after = std::collections::HashSet::new();
            let solo: Vec<u64> = (0..reps)
                .map(|rep| {
                    let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                    let mut rng = rng_from(replication_seed(base, rep as u64));
                    for t in 0..budget {
                        sim.perturb(&env, t, &mut rng);
                        let from = sim.configuration();
                        let seen =
                            if from.correct() == Opinion::One { &mut before } else { &mut after };
                        seen.insert(from.ones());
                        sim.step_round(&mut rng);
                    }
                    sim.configuration().ones()
                })
                .collect();
            assert!(before.intersection(&after).next().is_some(), "{}", protocol.name());

            let mut batch =
                BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps));
            assert!(!matches!(batch.plans, BatchPlans::Shared(_)), "n is above the cap");
            let outcomes = batch.run_to_consensus_env(budget, &env);
            assert_eq!(outcomes, vec![Outcome::TimedOut { rounds: budget }; reps]);
            for (rep, &ones) in solo.iter().enumerate() {
                assert_eq!(batch.ones_of(rep), ones, "{} rep {rep}", protocol.name());
            }
        }
    }

    #[test]
    fn no_retire_mode_tracks_solo_env_past_consensus() {
        // With retirement off every replica keeps perturbing and stepping
        // after its first consensus hit, round for round like a solo
        // simulator that never stops, for a one-draw and a two-draw rule.
        let n = 48;
        let start = Configuration::new(n, Opinion::One, 40).unwrap();
        let env: EnvSchedule = "flip@150,noise:0.005".parse().unwrap();
        let (base, reps, budget) = (9, 6usize, 400);
        let (voter, two_choices) = (Voter::new(1).unwrap(), TwoChoices::new());
        for protocol in [&voter as &dyn bitdissem_core::Protocol, &two_choices] {
            let kernel = kernel_of(protocol, n);
            let mut batch = BatchedAggregateSim::with_retirement(
                Arc::clone(&kernel),
                start,
                &seeds_for(base, reps),
                false,
            );
            let mut solos: Vec<(AggregateSim, SimRng)> = (0..reps)
                .map(|rep| {
                    let sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                    (sim, rng_from(replication_seed(base, rep as u64)))
                })
                .collect();
            let mut past_consensus = 0;
            for t in 0..budget {
                batch.perturb_round(&env);
                batch.step_round();
                for (rep, (sim, rng)) in solos.iter_mut().enumerate() {
                    past_consensus += usize::from(sim.configuration().is_correct_consensus());
                    sim.perturb(&env, t, rng);
                    sim.step_round(rng);
                    let ones = sim.configuration().ones();
                    assert_eq!(batch.ones_of(rep), ones, "{} rep {rep} t{t}", protocol.name());
                }
            }
            assert_eq!(batch.live(), reps);
            assert!(
                past_consensus > 0,
                "{}: some replica steps on from consensus",
                protocol.name()
            );
        }
    }

    #[test]
    fn observed_env_run_matches_unobserved_and_counts_metrics() {
        // The observed env loop draws exactly what the plain one draws,
        // and its round, sample and perturbation totals equal the
        // per-replica engine's.
        let n = 80;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 30).unwrap();
        let env: EnvSchedule = "flip@40,noise:0.01".parse().unwrap();
        let (base, reps, budget) = (5, 6usize, 100_000);

        let plain = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps))
            .run_to_consensus_env(budget, &env);
        let obs = Obs::none().with_metrics();
        let labels: Vec<u64> = (0..reps as u64).collect();
        let observed = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps))
            .run_to_consensus_env_observed(budget, &env, &obs, &labels);
        assert_eq!(plain, observed);

        let reference_obs = Obs::none().with_metrics();
        let indices: Vec<usize> = (0..reps).collect();
        let reference =
            replicate_indices_observed(&indices, base, Some(2), &reference_obs, |mut rng, rep| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                crate::run::run_to_consensus_env_observed(
                    &mut sim,
                    &env,
                    &mut rng,
                    budget,
                    &reference_obs,
                    rep as u64,
                )
            });
        assert_eq!(observed, reference);

        let load = |obs: &Obs| {
            let m = obs.metrics();
            let relaxed = std::sync::atomic::Ordering::Relaxed;
            (
                m.rounds_simulated.load(relaxed),
                m.opinion_samples.load(relaxed),
                m.perturbations_applied.load(relaxed),
            )
        };
        let (rounds, samples, perturbations) = load(&obs);
        assert_eq!((rounds, samples, perturbations), load(&reference_obs));
        assert_eq!(rounds, observed.iter().map(Outcome::rounds_censored).sum::<u64>());
        assert_eq!(samples, rounds * n, "voter draws ℓ = 1 sample per agent per round");
        assert!(perturbations > 0, "the flip and the noise perturb");
    }

    /// Voter, Minority(3) and 2-Choices: two one-draw rules and a two-draw
    /// rule.
    fn table_protocols() -> Vec<Box<dyn bitdissem_core::Protocol + Sync>> {
        vec![
            Box::new(Voter::new(1).unwrap()),
            Box::new(Minority::new(3).unwrap()),
            Box::new(TwoChoices::new()),
        ]
    }

    #[test]
    fn shared_tables_match_per_replica_engine_bit_for_bit() {
        // With tables (n = 256) a batch tracks the solo engine round by
        // round and the driver reproduces the per-replica engine for every
        // thread count; at the first n above the table cap the batch falls
        // back to its cache and still tracks the solo engine.
        let n = 256;
        let start = Configuration::new(n, Opinion::One, n / 2).unwrap();
        let (base, budget) = (5, 4000);
        let indices: Vec<usize> = (0..24).collect();
        for protocol in table_protocols() {
            let kernel = kernel_of(protocol.as_ref(), n);
            assert_tracks_solo_round_by_round(&kernel, start, 300);
            let reference = replicate_indices_observed(&indices, base, Some(2), &Obs::none(), {
                let kernel = Arc::clone(&kernel);
                move |mut rng, _| {
                    let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                    run_to_consensus(&mut sim, &mut rng, budget)
                }
            });
            for threads in [1usize, 2, 4] {
                let driven = replicate_batched_observed(
                    &kernel,
                    start,
                    &indices,
                    base,
                    Some(threads),
                    budget,
                    &Obs::none(),
                );
                assert_eq!(driven, reference, "{} threads={threads}", protocol.name());
            }
        }

        let n = crate::roundplan::TABLE_MAX_STATES;
        let start = Configuration::new(n, Opinion::One, n / 2).unwrap();
        for protocol in table_protocols() {
            let kernel = kernel_of(protocol.as_ref(), n);
            assert_tracks_solo_round_by_round(&kernel, start, 12);
        }
    }

    #[test]
    fn env_flip_and_noise_through_tables_match_solo_env() {
        // A source flip moves every replica onto the other source's table
        // (built on the flip), and noise moves states off the chain's
        // usual path: outcomes and final states must still equal the solo
        // `run_to_consensus_env`, for every thread count.
        let n = 256;
        let start = Configuration::new(n, Opinion::One, 200).unwrap();
        let env: crate::env::EnvSchedule = "flip@6,noise:0.002".parse().unwrap();
        let (base, reps, budget) = (41, 16usize, 3000);
        let (voter, two_choices) = (Voter::new(1).unwrap(), TwoChoices::new());
        for protocol in [&voter as &dyn bitdissem_core::Protocol, &two_choices] {
            let kernel = kernel_of(protocol, n);
            let solo: Vec<(Outcome, u64)> = (0..reps)
                .map(|rep| {
                    let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                    let mut rng = rng_from(replication_seed(base, rep as u64));
                    let outcome =
                        crate::run::run_to_consensus_env(&mut sim, &env, &mut rng, budget);
                    (outcome, sim.configuration().ones())
                })
                .collect();
            let outcomes: Vec<Outcome> = solo.iter().map(|&(o, _)| o).collect();
            assert!(outcomes.iter().any(Outcome::is_converged), "{}", protocol.name());

            let mut batch =
                BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps));
            assert!(matches!(batch.plans, BatchPlans::Shared(_)), "n is below the cap");
            assert_eq!(batch.run_to_consensus_env(budget, &env), outcomes);
            for (rep, &(_, ones)) in solo.iter().enumerate() {
                assert_eq!(batch.ones_of(rep), ones, "{} rep {rep}", protocol.name());
            }

            let indices: Vec<usize> = (0..reps).collect();
            for threads in [1usize, 2, 4] {
                let driven = replicate_batched_env_observed(
                    &kernel,
                    start,
                    &indices,
                    base,
                    Some(threads),
                    budget,
                    &env,
                    &Obs::none(),
                );
                assert_eq!(driven, outcomes, "{} threads={threads}", protocol.name());
            }
        }
    }

    #[test]
    fn no_retire_mode_keeps_stepping_past_first_consensus() {
        // Conformance contract: with retirement off, a replica that hits
        // the (old) consensus keeps its first-hit round but stays live, so
        // a post-flip checkpoint reads its true, perturbed state.
        let n = 48;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 40).unwrap();
        let env: crate::env::EnvSchedule = "flip@400".parse().unwrap();
        let reps = 6usize;
        let mut batch = BatchedAggregateSim::with_retirement(
            Arc::clone(&kernel),
            start,
            &seeds_for(9, reps),
            false,
        );
        let outcomes = batch.run_to_consensus_env(800, &env);
        assert_eq!(batch.live(), reps, "nothing retires without retirement");
        assert_eq!(batch.round(), 800, "the loop runs the whole budget");
        for (rep, outcome) in outcomes.iter().enumerate() {
            let k = outcome.rounds().expect("voter reaches the pre-flip consensus quickly");
            assert!(k < 400, "rep {rep} converged before the flip");
            assert_eq!(batch.converged_at(rep), Some(k), "first hit is kept, not overwritten");
            assert!(batch.ones_of(rep) < n, "rep {rep} was knocked off the old consensus");
        }
    }

    #[test]
    fn observed_run_matches_unobserved_and_counts_metrics() {
        let n = 80;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 30).unwrap();
        let reps = 6usize;
        let budget = 100_000;

        let plain = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(5, reps))
            .run_to_consensus(budget);

        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _).with_metrics();
        let labels: Vec<u64> = (0..reps as u64).collect();
        let observed = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(5, reps))
            .run_to_consensus_observed(budget, &obs, &labels);
        assert_eq!(plain, observed);

        // Metric totals equal the solo-path sums: Σ rounds and Σ rounds·ℓ·n.
        let total_rounds: u64 = observed.iter().map(Outcome::rounds_censored).sum();
        let m = obs.metrics();
        assert_eq!(m.rounds_simulated.load(std::sync::atomic::Ordering::Relaxed), total_rounds);
        assert_eq!(
            m.opinion_samples.load(std::sync::atomic::Ordering::Relaxed),
            total_rounds * n,
            "voter draws ℓ = 1 sample per agent per round"
        );

        // Event shape per replica: round events 1..=k (carrying X_r, the
        // consensus for r = k) plus exactly one ReplicationFinished.
        for (rep, outcome) in observed.iter().enumerate() {
            let k = outcome.rounds().expect("voter converges");
            let rounds: Vec<(u64, u64)> = sink
                .events()
                .iter()
                .filter_map(|e| match *e {
                    Event::RoundCompleted { rep: r, round, ones, .. } if r == rep as u64 => {
                        Some((round, ones))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(rounds.len() as u64, k, "rep {rep}: one event per executed round");
            for (i, &(round, ones)) in rounds.iter().enumerate() {
                assert_eq!(round, i as u64 + 1, "labels start at 1");
                assert!(ones <= n);
            }
            assert_eq!(rounds.last().unwrap().1, n, "final round event shows the consensus");
            let finishes: Vec<(ReplicationOutcome, u64)> = sink
                .events()
                .iter()
                .filter_map(|e| match *e {
                    Event::ReplicationFinished { rep: r, outcome, rounds, .. }
                        if r == rep as u64 =>
                    {
                        Some((outcome, rounds))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(finishes, vec![(ReplicationOutcome::Converged, k)]);
        }
    }

    #[test]
    fn opinion_samples_match_the_per_replica_engine_across_retirement() {
        // Audit of the retirement-round accounting (ISSUE 7 satellite):
        // replicas retired mid-run by swap_remove must be charged ℓ·n for
        // exactly the rounds they ran — the batch metric totals have to
        // equal the per-replica reference engine's, replica by replica in
        // aggregate. Minority ℓ = 3 from an off-center start staggers the
        // retirement rounds, which is the regime the ℓ·n bug family hits.
        // Voter ℓ = 3 from a supermajority start drifts to consensus at
        // replica-dependent rounds.
        let n = 120;
        let voter3 = Voter::new(3).unwrap();
        let kernel = kernel_of(&voter3, n);
        let start = Configuration::new(n, Opinion::One, 80).unwrap();
        let base = 31;
        let reps = 12usize;
        let budget = 400_000;

        let batched_obs = Obs::none().with_metrics();
        let labels: Vec<u64> = (0..reps as u64).collect();
        let outcomes = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps))
            .run_to_consensus_observed(budget, &batched_obs, &labels);
        let distinct: std::collections::HashSet<u64> =
            outcomes.iter().filter_map(Outcome::rounds).collect();
        assert!(distinct.len() > 1, "retirement must be staggered for this test to bite");

        let reference_obs = Obs::none().with_metrics();
        let indices: Vec<usize> = (0..reps).collect();
        let reference =
            replicate_indices_observed(&indices, base, Some(2), &reference_obs, |mut rng, rep| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                crate::run::run_to_consensus_observed(
                    &mut sim,
                    &mut rng,
                    budget,
                    &reference_obs,
                    rep as u64,
                )
            });
        assert_eq!(outcomes, reference);

        let load = |obs: &Obs| {
            let m = obs.metrics();
            (
                m.rounds_simulated.load(std::sync::atomic::Ordering::Relaxed),
                m.opinion_samples.load(std::sync::atomic::Ordering::Relaxed),
            )
        };
        let (batched_rounds, batched_samples) = load(&batched_obs);
        let (reference_rounds, reference_samples) = load(&reference_obs);
        assert_eq!(batched_rounds, reference_rounds);
        assert_eq!(batched_samples, reference_samples);
        // And both equal the closed form Σ rounds · ℓ · n.
        let total_rounds: u64 = outcomes.iter().map(Outcome::rounds_censored).sum();
        assert_eq!(batched_rounds, total_rounds);
        assert_eq!(batched_samples, total_rounds * 3 * n);
    }

    #[test]
    fn observed_timeout_emits_timed_out_finishes() {
        let n = 16;
        let stay = Stay::new(1);
        let kernel = kernel_of(&stay, n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _);
        let mut batch = BatchedAggregateSim::new(kernel, start, &seeds_for(2, 3));
        let outcomes = batch.run_to_consensus_observed(25, &obs, &[0, 1, 2]);
        assert_eq!(outcomes, vec![Outcome::TimedOut { rounds: 25 }; 3]);
        let finishes = sink
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::ReplicationFinished {
                        outcome: ReplicationOutcome::TimedOut,
                        rounds: 25,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(finishes, 3);
    }

    #[test]
    fn observed_respects_round_stride() {
        let n = 64;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 20).unwrap();
        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _).with_round_stride(8);
        let mut batch = BatchedAggregateSim::new(kernel, start, &seeds_for(21, 4));
        let outcomes = batch.run_to_consensus_observed(500_000, &obs, &[0, 1, 2, 3]);
        for (rep, outcome) in outcomes.iter().enumerate() {
            let k = outcome.rounds().unwrap();
            let round_events = sink
                .events()
                .iter()
                .filter(|e| matches!(e, Event::RoundCompleted { rep: r, .. } if *r == rep as u64))
                .count() as u64;
            assert_eq!(round_events, k / 8, "rep {rep}: only multiples of 8 traced");
        }
    }

    /// The per-event emission the engine used before round batching, kept
    /// as an oracle: one `emit` per event, read straight off the batch
    /// bookkeeping.
    fn reference_run(
        sim: &mut BatchedAggregateSim,
        budget: u64,
        env: Option<&EnvSchedule>,
        obs: &Obs,
        reps: &[u64],
    ) {
        let finished = |label, outcome, rounds| Event::ReplicationFinished {
            rep: label,
            outcome,
            rounds,
            elapsed_us: 0,
        };
        for (rep, &label) in reps.iter().enumerate() {
            if sim.converged_at(rep) == Some(0) {
                obs.emit(&finished(label, ReplicationOutcome::Converged, 0));
            }
        }
        while sim.live() > 0 && sim.round() < budget {
            if let Some(env) = env {
                sim.perturb_round(env);
            }
            sim.step_round();
            let (r, source_opinion) = (sim.round(), sim.z as u8);
            if obs.wants_round(r) {
                for pos in 0..sim.live() {
                    obs.emit(&Event::RoundCompleted {
                        rep: reps[sim.live_rep[pos]],
                        round: r,
                        ones: sim.live_ones[pos],
                        source_opinion,
                    });
                }
            }
            for (rep, &label) in reps.iter().enumerate() {
                if sim.converged_at(rep) == Some(r) {
                    if obs.wants_round(r) {
                        obs.emit(&Event::RoundCompleted {
                            rep: label,
                            round: r,
                            ones: sim.ones_of(rep),
                            source_opinion,
                        });
                    }
                    obs.emit(&finished(label, ReplicationOutcome::Converged, r));
                }
            }
        }
        for &rep in &sim.live_rep {
            obs.emit(&finished(reps[rep], ReplicationOutcome::TimedOut, budget));
        }
    }

    fn without_elapsed(events: Vec<Event>) -> Vec<Event> {
        events
            .into_iter()
            .map(|ev| match ev {
                Event::ReplicationFinished { rep, outcome, rounds, .. } => {
                    Event::ReplicationFinished { rep, outcome, rounds, elapsed_us: 0 }
                }
                other => other,
            })
            .collect()
    }

    #[test]
    fn round_batches_emit_the_per_event_sequence() {
        // Voter at n = 32 with budget 90: some replicas converge, some time
        // out. A start at consensus finishes everything at round 0, and a
        // source flip changes the opinion the round events carry. Eight
        // replicas make one shard (the chunk floor) at `threads = Some(1)`.
        let n = 32;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let flip: EnvSchedule = "flip@10".parse().unwrap();
        let (budget, seed, reps) = (90, 11, 8usize);
        let indices: Vec<usize> = (0..reps).collect();
        let labels: Vec<u64> = (0..reps as u64).collect();
        let mut with_rounds = 0;
        let starts = [
            Configuration::all_wrong(n, Opinion::One),
            Configuration::new(n, Opinion::One, n).unwrap(),
        ];
        for start in starts {
            for stride in [1, 3] {
                for env in [None, Some(&flip)] {
                    let sink = Arc::new(bitdissem_obs::MemorySink::new());
                    let obs = Obs::none().with_sink(sink.clone()).with_round_stride(stride);
                    match env {
                        Some(env) => replicate_batched_env_observed(
                            &kernel,
                            start,
                            &indices,
                            seed,
                            Some(1),
                            budget,
                            env,
                            &obs,
                        ),
                        None => replicate_batched_observed(
                            &kernel,
                            start,
                            &indices,
                            seed,
                            Some(1),
                            budget,
                            &obs,
                        ),
                    };
                    let oracle = Arc::new(bitdissem_obs::MemorySink::new());
                    let obs = Obs::none().with_sink(oracle.clone()).with_round_stride(stride);
                    let mut batch = BatchedAggregateSim::new(
                        Arc::clone(&kernel),
                        start,
                        &seeds_for(seed, reps),
                    );
                    reference_run(&mut batch, budget, env, &obs, &labels);
                    let got = without_elapsed(sink.events());
                    assert_eq!(got, oracle.events(), "stride {stride}, env {env:?}");
                    with_rounds += usize::from(got.len() > reps);
                }
            }
        }
        // The all-wrong runs produce round events; the consensus runs don't.
        assert_eq!(with_rounds, 4);
    }
}
