//! The observed round loop and the pooled shard driver shared by the two
//! lock-step engines, [`BatchedAggregateSim`](crate::batched::BatchedAggregateSim)
//! and [`WideBatchedSim`](crate::wide::WideBatchedSim).
//!
//! Both engines keep the same struct-of-arrays bookkeeping — dense live
//! arrays, a first-consensus round per replica, swap-remove retirement —
//! and differ only in how a round is drawn. [`LockStep`] exposes that
//! bookkeeping read-only through [`Lanes`], so event emission, metric
//! accounting and sharding are written once.
//!
//! Events leave a batch one round at a time: [`run_observed`] fills a
//! reusable buffer with the round's `RoundCompleted` and
//! `ReplicationFinished` events and hands it to [`Obs::emit_all`], so a
//! locking sink is locked once per round per shard rather than once per
//! event. Each replica's events keep their order; events of concurrent
//! shards interleave at round granularity.

use std::sync::Mutex;

use bitdissem_obs::{Event, LatencyId, Obs, ReplicationOutcome, Timer};
use bitdissem_pool::{effective_parallelism, Pool};

use crate::env::EnvSchedule;
use crate::rng::replication_seed;
use crate::run::Outcome;

/// Read-only view of a lock-step batch's bookkeeping.
pub(crate) struct Lanes<'a> {
    /// Rounds completed so far.
    pub round: u64,
    /// Source contribution to the ones count (the source's opinion).
    pub z: u64,
    /// Batch index of the replica at each live position.
    pub live_rep: &'a [usize],
    /// Ones count at each live position.
    pub live_ones: &'a [u64],
    /// Ones count per replica, final for retired replicas.
    pub ones_by_rep: &'a [u64],
    /// First round at which each replica held the correct consensus.
    pub converged_at: &'a [Option<u64>],
    /// Whether replicas leave the live arrays at their first consensus.
    pub retire_on_consensus: bool,
}

/// A lock-step batch the shared loop and driver can run.
pub(crate) trait LockStep {
    /// The batch's bookkeeping.
    fn lanes(&self) -> Lanes<'_>;
    /// Advances every live replica one parallel round.
    fn step_round(&mut self);
    /// Applies the environment schedule at the current boundary and
    /// returns the number of perturbation events.
    fn perturb_round(&mut self, env: &EnvSchedule) -> u64;
    /// Nominal opinion samples one replica draws per round (`ℓ·n`).
    fn samples_per_round(&self) -> u64;
}

/// Per-replica outcomes under a round budget: `Converged` at the recorded
/// round, `TimedOut { rounds: budget }` otherwise.
pub(crate) fn outcomes(converged_at: &[Option<u64>], budget: u64) -> Vec<Outcome> {
    converged_at
        .iter()
        .map(|c| match *c {
            Some(rounds) => Outcome::Converged { rounds },
            None => Outcome::TimedOut { rounds: budget },
        })
        .collect()
}

/// Replaces `events` with round `lanes.round`'s events, in emission order:
/// when `with_rounds`, one `RoundCompleted` per live replica (post-round
/// state, live-position order); then, in batch order, each replica that
/// reached consensus this round reports that round too (when
/// `with_rounds`) and its `ReplicationFinished`.
fn fill_round_events(
    events: &mut Vec<Event>,
    lanes: &Lanes<'_>,
    reps: &[u64],
    with_rounds: bool,
    timer: &Timer,
) {
    events.clear();
    let (round, source_opinion) = (lanes.round, lanes.z as u8);
    if with_rounds {
        events.extend(lanes.live_rep.iter().zip(lanes.live_ones).map(|(&rep, &ones)| {
            Event::RoundCompleted { rep: reps[rep], round, ones, source_opinion }
        }));
    }
    for (rep, &label) in reps.iter().enumerate() {
        if lanes.converged_at[rep] != Some(round) {
            continue;
        }
        if with_rounds {
            let ones = lanes.ones_by_rep[rep];
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

/// Runs `sim` until every replica converged or `budget` rounds elapsed,
/// perturbing each boundary under `env` when given, and returns the
/// outcomes in batch order.
///
/// With events on, it emits per-replica `RoundCompleted` events (subject
/// to the handle's round stride; a replica that retires in round `r`
/// reports `r` too, like the solo loop) and one `ReplicationFinished` per
/// replica, one round per [`Obs::emit_all`] call. With metrics on, it
/// batch-adds the round, sample, retirement and perturbation counters so
/// totals match the solo path, and samples the round-pass latency 1 in
/// [`LATENCY_SAMPLE_EVERY`](bitdissem_obs::LATENCY_SAMPLE_EVERY).
/// Instrumentation never touches the draws, so outcomes are identical to
/// an unobserved run.
///
/// # Panics
///
/// Panics if `reps` does not hold one trace label per replica.
pub(crate) fn run_observed<S: LockStep>(
    sim: &mut S,
    budget: u64,
    env: Option<&EnvSchedule>,
    obs: &Obs,
    reps: &[u64],
) -> Vec<Outcome> {
    assert_eq!(reps.len(), sim.lanes().converged_at.len(), "one trace label per replica");
    let timer = Timer::start();
    let mut perturbations = 0u64;
    let mut events = Vec::new();
    if obs.active() {
        // Replicas already at consensus finish at round 0, before any
        // round event — same shape as the solo loop.
        fill_round_events(&mut events, &sim.lanes(), reps, false, &timer);
        obs.emit_all(&events);
    }
    loop {
        let round = {
            let lanes = sim.lanes();
            if lanes.live_rep.is_empty() || lanes.round >= budget {
                break;
            }
            lanes.round
        };
        if let Some(env) = env {
            perturbations += sim.perturb_round(env);
        }
        // Sampled 1-in-8: a round is microseconds, so timing every pass
        // would itself cost a few percent (see LATENCY_SAMPLE_EVERY).
        let pass_start = (obs.metrics_on()
            && round.is_multiple_of(bitdissem_obs::LATENCY_SAMPLE_EVERY))
        .then(std::time::Instant::now);
        sim.step_round();
        if let Some(start) = pass_start {
            obs.metrics().record_latency(
                LatencyId::RoundPass,
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        if obs.active() {
            // Read after the step: a source flip mid-run changes the
            // opinion the round events carry.
            let lanes = sim.lanes();
            fill_round_events(&mut events, &lanes, reps, obs.wants_round(lanes.round), &timer);
            obs.emit_all(&events);
        }
    }
    let lanes = sim.lanes();
    if obs.active() {
        events.clear();
        events.extend(lanes.live_rep.iter().map(|&rep| Event::ReplicationFinished {
            rep: reps[rep],
            outcome: ReplicationOutcome::TimedOut,
            rounds: budget,
            elapsed_us: timer.elapsed_us(),
        }));
        obs.emit_all(&events);
    }
    if obs.metrics_on() {
        let samples_per_round = sim.samples_per_round();
        let mut rounds_total: u64 = 0;
        let mut samples_total: u64 = 0;
        for c in lanes.converged_at {
            // Without retirement every replica runs the full loop, not
            // just up to its first consensus hit.
            let steps = if lanes.retire_on_consensus { c.unwrap_or(budget) } else { lanes.round };
            rounds_total += steps;
            samples_total = samples_total.saturating_add(steps.saturating_mul(samples_per_round));
        }
        obs.metrics().add_rounds(rounds_total);
        obs.metrics().add_samples(samples_total);
        let retired = lanes.converged_at.iter().filter(|c| c.is_some()).count();
        obs.metrics().add_retired(retired as u64);
        if env.is_some() {
            obs.metrics().add_perturbations(perturbations);
        }
    }
    outcomes(lanes.converged_at, budget)
}

/// Runs the replications named by `indices` through lock-step shards over
/// the worker pool and returns their outcomes **in the order of
/// `indices`**.
///
/// `threads: None` resolves through [`effective_parallelism`], so it
/// honours `BITDISSEM_POOL_WORKERS`. `chunk(tasks, cap)` sizes the shards.
/// `build` makes a shard from its replicas' streams
/// (`replication_seed(base_seed, rep)`); the shard's trace labels are the
/// replication indices.
///
/// # Panics
///
/// Panics if any shard task panics (the panic is propagated).
#[allow(clippy::too_many_arguments)]
pub(crate) fn replicate_sharded<S, B>(
    indices: &[usize],
    base_seed: u64,
    threads: Option<usize>,
    budget: u64,
    env: Option<&EnvSchedule>,
    obs: &Obs,
    chunk: impl FnOnce(usize, usize) -> usize,
    build: B,
) -> Vec<Outcome>
where
    S: LockStep,
    B: Fn(&[u64]) -> S + Sync,
{
    if indices.is_empty() {
        return Vec::new();
    }
    let tasks = indices.len();
    let cap = threads.unwrap_or_else(effective_parallelism).clamp(1, tasks);
    let chunk = chunk(tasks, cap);

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
        let streams: Vec<u64> =
            chunk_indices.iter().map(|&rep| replication_seed(base_seed, rep as u64)).collect();
        let labels: Vec<u64> = chunk_indices.iter().map(|&rep| rep as u64).collect();
        let outcomes = run_observed(&mut build(&streams), budget, env, obs, &labels);
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
    use crate::batched::{
        replicate_batched_env_observed, replicate_batched_observed, BatchedAggregateSim,
    };
    use crate::wide::{replicate_wide_env_observed, replicate_wide_observed, WideBatchedSim};
    use bitdissem_core::dynamics::Voter;
    use bitdissem_core::{Configuration, Kernel, Opinion, ProtocolExt};
    use bitdissem_obs::MemorySink;
    use std::sync::Arc;

    /// The per-event emission the engines used before round batching, kept
    /// as an oracle: one `emit` per event, read straight off the batch
    /// bookkeeping.
    fn reference_run<S: LockStep>(
        sim: &mut S,
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
            if sim.lanes().converged_at[rep] == Some(0) {
                obs.emit(&finished(label, ReplicationOutcome::Converged, 0));
            }
        }
        while !sim.lanes().live_rep.is_empty() && sim.lanes().round < budget {
            if let Some(env) = env {
                sim.perturb_round(env);
            }
            sim.step_round();
            let lanes = sim.lanes();
            let (r, source_opinion) = (lanes.round, lanes.z as u8);
            if obs.wants_round(r) {
                for pos in 0..lanes.live_rep.len() {
                    obs.emit(&Event::RoundCompleted {
                        rep: reps[lanes.live_rep[pos]],
                        round: r,
                        ones: lanes.live_ones[pos],
                        source_opinion,
                    });
                }
            }
            for (rep, &label) in reps.iter().enumerate() {
                if lanes.converged_at[rep] == Some(r) {
                    if obs.wants_round(r) {
                        obs.emit(&Event::RoundCompleted {
                            rep: label,
                            round: r,
                            ones: lanes.ones_by_rep[rep],
                            source_opinion,
                        });
                    }
                    obs.emit(&finished(label, ReplicationOutcome::Converged, r));
                }
            }
        }
        for &rep in sim.lanes().live_rep {
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

    /// Runs `driver` (one shard at `threads = Some(1)`) and the oracle on
    /// a fresh batch from `build`, and returns both event sequences.
    fn both_sequences<S: LockStep>(
        stride: u64,
        budget: u64,
        env: Option<&EnvSchedule>,
        driver: impl Fn(&Obs) -> Vec<Outcome>,
        build: impl Fn() -> S,
        reps: usize,
    ) -> (Vec<Event>, Vec<Event>) {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(sink.clone()).with_round_stride(stride);
        driver(&obs);
        let oracle = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(oracle.clone()).with_round_stride(stride);
        let labels: Vec<u64> = (0..reps as u64).collect();
        reference_run(&mut build(), budget, env, &obs, &labels);
        (without_elapsed(sink.events()), oracle.events())
    }

    #[test]
    fn round_batches_emit_the_per_event_sequence() {
        // Voter at n = 32 with budget 90: some replicas converge, some time
        // out. A start at consensus finishes everything at round 0, and a
        // source flip changes the opinion the round events carry.
        let n = 32;
        let kernel: Arc<Kernel> =
            Arc::new(Voter::new(1).unwrap().to_table(n).unwrap().compile().unwrap());
        let flip: EnvSchedule = "flip@10".parse().unwrap();
        let (budget, seed) = (90, 11);
        let streams = |reps: usize| -> Vec<u64> {
            (0..reps as u64).map(|rep| replication_seed(seed, rep)).collect()
        };
        // One shard per driver call: the batched floor is 8 replicas, the
        // wide floor 16.
        let (batched, wide): (Vec<usize>, Vec<usize>) = ((0..8).collect(), (0..16).collect());
        let mut with_rounds = 0;
        let starts = [
            Configuration::all_wrong(n, Opinion::One),
            Configuration::new(n, Opinion::One, n).unwrap(),
        ];
        for start in starts {
            for stride in [1, 3] {
                for env in [None, Some(&flip)] {
                    let (got, want) = both_sequences(
                        stride,
                        budget,
                        env,
                        |obs| match env {
                            Some(env) => replicate_batched_env_observed(
                                &kernel,
                                start,
                                &batched,
                                seed,
                                Some(1),
                                budget,
                                env,
                                obs,
                            ),
                            None => replicate_batched_observed(
                                &kernel,
                                start,
                                &batched,
                                seed,
                                Some(1),
                                budget,
                                obs,
                            ),
                        },
                        || BatchedAggregateSim::new(Arc::clone(&kernel), start, &streams(8)),
                        8,
                    );
                    assert_eq!(got, want, "batched, stride {stride}, env {env:?}");
                    with_rounds += usize::from(got.len() > 8);

                    let (got, want) = both_sequences(
                        stride,
                        budget,
                        env,
                        |obs| match env {
                            Some(env) => replicate_wide_env_observed(
                                &kernel,
                                start,
                                &wide,
                                seed,
                                Some(1),
                                budget,
                                env,
                                obs,
                            ),
                            None => replicate_wide_observed(
                                &kernel,
                                start,
                                &wide,
                                seed,
                                Some(1),
                                budget,
                                obs,
                            ),
                        },
                        || WideBatchedSim::new(Arc::clone(&kernel), start, &streams(16)),
                        16,
                    );
                    assert_eq!(got, want, "wide, stride {stride}, env {env:?}");
                    with_rounds += usize::from(got.len() > 16);
                }
            }
        }
        // The all-wrong runs produce round events; the consensus runs don't.
        assert_eq!(with_rounds, 8);
    }
}
