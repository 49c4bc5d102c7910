//! The four paper workloads: inputs generated from the seed, one pass of
//! each through the crates' public functions, and the checks that decide
//! whether a pass's outputs are correct.
//!
//! Every call into a workspace layer is wrapped in a span named after the
//! layer; the harness turns those spans into the per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

use bitdissem_analysis::{LowerBoundWitness, WitnessCase};
use bitdissem_core::dynamics::{Minority, TwoChoices, Voter};
use bitdissem_core::{Configuration, Kernel, Opinion, Protocol, ProtocolExt};
use bitdissem_experiments::trace::TraceAccumulator;
use bitdissem_experiments::workload::{
    measure_convergence_observed, measure_crossing_observed, pow2_sweep, OutcomeBatch,
};
use bitdissem_markov::absorbing::expected_hitting_times;
use bitdissem_markov::linalg::banded_solve;
use bitdissem_markov::{
    expected_hitting_times_sparse, survival_curve_sparse, AggregateChain, SparseChain,
};
use bitdissem_obs::columnar::Block;
use bitdissem_obs::{CheckpointLog, ColumnarReader, ColumnarSink, Obs};
use bitdissem_sim::batched::BatchedAggregateSim;
use bitdissem_sim::rng::replication_seed;
use bitdissem_sim::run::Outcome;
use bitdissem_stats::regression::{compare_models, fit_power_law};

use crate::trace::Tracer;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] =
    ["thm2_voter_sweep", "thm1_crossing", "exact_frontier", "observed_sweep"];

/// Input size: the paper shapes, or a tiny version for the benchmark's
/// own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workload table names.
    Full,
    /// A few small points, for tests.
    Tiny,
}

/// What the harness hands a pass.
pub struct Ctx<'a> {
    /// Span recorder (disabled in untraced passes).
    pub tracer: &'a mut Tracer,
    /// Worker count passed as `threads: Some(_)` to every replication call.
    pub threads: usize,
    /// The program's observability handle: `Obs::none()` untraced,
    /// `Obs::none().with_metrics()` traced.
    pub obs: Obs,
    /// `observed_sweep` only: run the sweep alone, without sink or log.
    pub plain: bool,
    /// Directory for the files a pass writes.
    pub work_dir: &'a Path,
    /// Wall time of the timed part of the last pass, in seconds.
    pub wall_s: f64,
    /// Span id of the last pass's root, when traced.
    pub root: Option<usize>,
    /// Wall-clock end of the timed part of the last pass.
    pub ended: Option<SystemTime>,
}

impl Ctx<'_> {
    /// Runs the timed part of a pass under the root span `pass`.
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let first = self.tracer.spans().len();
        let start = Instant::now();
        let out = self.tracer.span("pass", f);
        self.wall_s = start.elapsed().as_secs_f64();
        self.ended = Some(SystemTime::now());
        self.root = self.tracer.enabled().then_some(first);
        out
    }
}

/// The outcome of one pass: its output checks and the layer counts it saw.
#[derive(Debug, Default)]
pub struct PassOut {
    /// `(check, passed)` for every output check.
    pub checks: Vec<(String, bool)>,
    /// Layer counts and stage times the pass measured itself.
    pub counts: BTreeMap<&'static str, f64>,
}

impl PassOut {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.checks.push((what.into(), ok));
    }

    fn count(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    fn outcomes(&mut self, outcomes: &[Outcome]) {
        self.count("replicas", outcomes.len() as f64);
        self.count("replica_rounds", outcomes.iter().map(|o| o.rounds_censored() as f64).sum());
        self.count("retired", outcomes.iter().filter(|o| o.is_converged()).count() as f64);
    }
}

/// One workload's inputs and pass.
pub trait Workload {
    /// The name `--workload` selects it by.
    fn name(&self) -> &'static str;
    /// A digest of the generated inputs (differs between seeds).
    fn inputs(&self) -> String;
    /// Runs one pass: the timed part through [`Ctx::timed`], then checks.
    fn pass(&self, ctx: &mut Ctx<'_>) -> PassOut;
    /// Whether the pass honours `Ctx::threads` (a single-thread pass then
    /// gives the pool speed-up).
    fn threaded(&self) -> bool {
        true
    }
    /// `(replica-rounds, seconds)` of the largest-`n` batch stepped on one
    /// thread through the default engine's batch type, without the pool.
    fn bare(&self) -> Option<(f64, f64)> {
        None
    }
}

/// Builds the named workload from the seed.
#[must_use]
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    let tiny = scale == Scale::Tiny;
    Some(match name {
        "thm2_voter_sweep" => Box::new(VoterSweep(Sweep {
            ns: if tiny { pow2_sweep(32, 3) } else { pow2_sweep(256, 8) },
            reps: 50,
            seed: mix(seed, 2, 0),
        })),
        "thm1_crossing" => Box::new(Crossing {
            ns: if tiny { pow2_sweep(32, 3) } else { pow2_sweep(128, 5) },
            reps: if tiny { 16 } else { 64 },
            budget_factor: if tiny { 20 } else { 100 },
            min_exponent: if tiny { 0.4 } else { 0.65 },
            seed,
        }),
        "exact_frontier" => Box::new(Frontier {
            ns: if tiny { vec![64, 128] } else { vec![512, 2048, 8192] },
            correct: if mix(seed, 0, 0) & 1 == 1 { Opinion::One } else { Opinion::Zero },
        }),
        "observed_sweep" => Box::new(ObservedSweep(Sweep {
            ns: if tiny { pow2_sweep(32, 2) } else { pow2_sweep(256, 6) },
            reps: if tiny { 8 } else { 50 },
            seed: mix(seed, 3, 0),
        })),
        _ => return None,
    })
}

/// The seed pass `k` of a run draws its inputs from; pass 0 (the cold
/// pass) uses the run's seed itself.
#[must_use]
pub fn pass_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        mix(seed, u64::MAX, k)
    }
}

/// SplitMix64 finalizer over the seed and two input coordinates.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn voter() -> Voter {
    Voter::new(1).expect("l = 1 is a valid sample size")
}

/// The `to_table` + `compile` step every replication call performs once
/// per batch, repeated here so its cost shows as its own span.
fn compile_probe<P: Protocol + ?Sized>(t: &mut Tracer, protocol: &P, n: u64) {
    t.span("poly.compile", |_| {
        let kernel: Kernel = protocol
            .to_table(n)
            .expect("paper protocols materialize")
            .compile()
            .expect("validated table compiles");
        std::hint::black_box(kernel);
    });
}

fn voter_budget(n: u64) -> u64 {
    let n = n as f64;
    (8.0 * n * n.ln()).ceil() as u64
}

/// Steps the whole batch on the calling thread to its budget.
fn bare_batch(
    kernel: Kernel,
    start: Configuration,
    reps: usize,
    seed: u64,
    budget: u64,
) -> (f64, f64) {
    let seeds: Vec<u64> = (0..reps as u64).map(|r| replication_seed(seed, r)).collect();
    let mut batch = BatchedAggregateSim::new(Arc::new(kernel), start, &seeds);
    let t0 = Instant::now();
    let outcomes = batch.run_to_consensus(budget);
    let secs = t0.elapsed().as_secs_f64();
    (outcomes.iter().map(|o| o.rounds_censored() as f64).sum(), secs)
}

/// Voter ℓ = 1 from all-wrong at each `n`, `reps` replications per point.
struct Sweep {
    ns: Vec<u64>,
    reps: usize,
    seed: u64,
}

impl Sweep {
    /// `(n, base seed)` per point.
    fn points(&self) -> Vec<(u64, u64)> {
        self.ns.iter().map(|&n| (n, mix(self.seed, 0, n))).collect()
    }

    fn inputs(&self) -> String {
        format!("ns={:?} reps={} points={:?}", self.ns, self.reps, self.points())
    }

    /// One replication call per point through `obs`, each in a span
    /// called `span` after the compile probe.
    fn run(
        &self,
        t: &mut Tracer,
        obs: &Obs,
        threads: usize,
        span: &'static str,
    ) -> Vec<OutcomeBatch> {
        let voter = voter();
        self.points()
            .into_iter()
            .map(|(n, seed)| {
                compile_probe(t, &voter, n);
                t.span(span, |_| {
                    measure_convergence_observed(
                        obs,
                        &voter,
                        Configuration::all_wrong(n, Opinion::One),
                        self.reps,
                        voter_budget(n),
                        seed,
                        Some(threads),
                    )
                })
            })
            .collect()
    }

    fn bare(&self) -> Option<(f64, f64)> {
        let (n, seed) = *self.points().last()?;
        let kernel = voter().to_table(n).ok()?.compile().ok()?;
        let start = Configuration::all_wrong(n, Opinion::One);
        Some(bare_batch(kernel, start, self.reps, seed, voter_budget(n)))
    }
}

/// Theorem 2: the Voter sweep over `n = 256·2^k`, then the scaling fit.
struct VoterSweep(Sweep);

/// Exact mean and standard deviation of the Voter convergence time from
/// the all-wrong start at `n`, solved once per process (outside any timed
/// region) and shared by every pass.
///
/// The mean comes from `expected_hitting_times_sparse`. The second moment
/// solves `(I − Q) m₂ = 2 m₁ − 1` over the same truncated operator, since
/// `T = 1 + T'` gives `m₂ = 1 + Q(2 m₁ + m₂)`.
fn exact_voter_moments(n: u64) -> (f64, f64) {
    static CACHE: Mutex<BTreeMap<u64, (f64, f64)>> = Mutex::new(BTreeMap::new());
    let mut cache = CACHE.lock().expect("exact-moment cache poisoned");
    *cache.entry(n).or_insert_with(|| {
        let chain = SparseChain::build(&voter(), n, Opinion::One).expect("valid");
        let m1 = expected_hitting_times_sparse(&chain).expect("voter absorbs");
        // Source holds One: the states are 1..=n and the target n is last,
        // so the transient states are the first `m` ones.
        let lo = chain.state_lo();
        let m = chain.num_states() - 1;
        let (mut band_lo, mut offsets, mut vals) = (Vec::new(), vec![0], Vec::new());
        for i in 0..m {
            let (first, weights) = chain.row(lo + i as u64);
            let first = (first - lo) as usize;
            let (l, r) = (first.min(i), (first + weights.len()).min(m).max(i + 1));
            let mut band = vec![0.0; r - l];
            for (j, &p) in (first..).zip(weights).filter(|&(j, _)| j < m) {
                band[j - l] -= p;
            }
            band[i - l] += 1.0;
            band_lo.push(l);
            vals.extend(band);
            offsets.push(vals.len());
        }
        let rhs: Vec<f64> = (0..m).map(|i| 2.0 * m1.from_state(lo + i as u64) - 1.0).collect();
        let m2 = banded_solve(&band_lo, &offsets, &vals, &rhs).expect("voter absorbs");
        let x0 = Configuration::all_wrong(n, Opinion::One).ones();
        let mean = m1.from_state(x0);
        (mean, (m2[(x0 - lo) as usize] - mean * mean).max(0.0).sqrt())
    })
}

impl Workload for VoterSweep {
    fn name(&self) -> &'static str {
        "thm2_voter_sweep"
    }

    fn inputs(&self) -> String {
        self.0.inputs()
    }

    fn pass(&self, ctx: &mut Ctx<'_>) -> PassOut {
        let (obs, threads, sweep) = (ctx.obs.clone(), ctx.threads, &self.0);
        let (batches, cmp) = ctx.timed(|t| {
            let batches = sweep.run(t, &obs, threads, "experiments.measure");
            let cmp = t.span("stats.fit", |_| {
                let ns: Vec<f64> = sweep.ns.iter().map(|&n| n as f64).collect();
                let medians: Vec<f64> = batches
                    .iter()
                    .map(|b| b.censored_summary().expect("non-empty").median().max(1.0))
                    .collect();
                compare_models(&ns, &medians)
            });
            (batches, cmp)
        });

        let mut out = PassOut::default();
        out.check(cmp.is_some(), "scaling-model comparison fits");
        for (&n, batch) in sweep.ns.iter().zip(&batches) {
            out.outcomes(batch.outcomes());
            out.check(batch.converged_fraction() == 1.0, format!("n={n}: every replica converges"));
            if n > 2048 {
                continue;
            }
            let (exact, sd) = exact_voter_moments(n);
            let mean = batch.censored_summary().expect("non-empty").mean();
            let tol = 5.0 * sd / (sweep.reps as f64).sqrt();
            out.check(
                (mean - exact).abs() <= tol,
                format!("n={n}: mean T {mean:.1} within {tol:.1} of exact {exact:.1}"),
            );
        }
        out
    }

    fn bare(&self) -> Option<(f64, f64)> {
        self.0.bare()
    }
}

/// Theorem 1/12: time to cross the witness threshold for four constant-`ℓ`
/// protocols.
struct Crossing {
    ns: Vec<u64>,
    reps: usize,
    budget_factor: u64,
    /// Lowest accepted crossing-time exponent for Voter-like protocols.
    min_exponent: f64,
    seed: u64,
}

fn crossing_protocols() -> Vec<Box<dyn Protocol + Send + Sync>> {
    vec![
        Box::new(voter()),
        Box::new(Minority::new(3).expect("valid")),
        Box::new(Minority::new(5).expect("valid")),
        Box::new(TwoChoices::new()),
    ]
}

impl Workload for Crossing {
    fn name(&self) -> &'static str {
        "thm1_crossing"
    }

    fn inputs(&self) -> String {
        let seeds: Vec<u64> = self.ns.iter().map(|&n| mix(self.seed, 1, n)).collect();
        format!(
            "ns={:?} reps={} budget={}n seeds={seeds:?}",
            self.ns, self.reps, self.budget_factor
        )
    }

    fn pass(&self, ctx: &mut Ctx<'_>) -> PassOut {
        let (obs, threads) = (ctx.obs.clone(), ctx.threads);
        let protocols = crossing_protocols();
        let results = ctx.timed(|t| {
            let mut per_protocol = Vec::new();
            for (pi, protocol) in protocols.iter().enumerate() {
                let mut runs = Vec::new();
                for &n in &self.ns {
                    let witness = t.span("analysis.witness", |_| {
                        LowerBoundWitness::construct(protocol, n).expect("valid protocol")
                    });
                    compile_probe(t, protocol.as_ref(), n);
                    let budget = self.budget_factor * n;
                    let outcomes = t.span("experiments.measure", |_| {
                        measure_crossing_observed(
                            &obs,
                            protocol,
                            &witness,
                            self.reps,
                            budget,
                            mix(self.seed, 1 + pi as u64, n),
                            Some(threads),
                        )
                    });
                    runs.push((witness.case(), OutcomeBatch::new(outcomes, budget)));
                }
                let fit = t.span("stats.fit", |_| {
                    let ns: Vec<f64> = self.ns.iter().map(|&n| n as f64).collect();
                    let medians: Vec<f64> = runs
                        .iter()
                        .map(|(_, b)| b.censored_summary().expect("non-empty").median().max(1.0))
                        .collect();
                    let crossed = runs.last().map_or(0.0, |(_, b)| b.converged_fraction());
                    (fit_power_law(&ns, &medians), crossed)
                });
                per_protocol.push((runs, fit));
            }
            per_protocol
        });

        let mut out = PassOut::default();
        for (protocol, (runs, (fit, crossed))) in protocols.iter().zip(&results) {
            for (_, batch) in runs {
                out.outcomes(batch.outcomes());
            }
            let name = protocol.name();
            match runs.last().map(|(case, _)| *case) {
                Some(WitnessCase::VoterLike) => {
                    let b = fit.map_or(f64::NAN, |(b, _, _)| b);
                    out.check(
                        b >= self.min_exponent,
                        format!("{name}: crossing time scales like n^{b:.2}"),
                    );
                }
                _ => out.check(
                    *crossed <= 0.25,
                    format!("{name}: {:.0}% crossed at the largest n", crossed * 100.0),
                ),
            }
        }
        out
    }

    fn bare(&self) -> Option<(f64, f64)> {
        // Minority(3) never crosses, so the bare batch burns the full
        // budget from the witness start, as the driver's replicas do.
        let n = *self.ns.last()?;
        let protocol = Minority::new(3).ok()?;
        let witness = LowerBoundWitness::construct(&protocol, n).ok()?;
        let kernel = protocol.to_table(n).ok()?.compile().ok()?;
        let seed = mix(self.seed, 2, n);
        Some(bare_batch(kernel, witness.start(), self.reps, seed, self.budget_factor * n))
    }
}

/// Theorem 2 vs Theorem 12 solved exactly on the sparse chain.
struct Frontier {
    ns: Vec<u64>,
    /// The source's opinion (both are the same work by symmetry).
    correct: Opinion,
}

impl Workload for Frontier {
    fn name(&self) -> &'static str {
        "exact_frontier"
    }

    fn inputs(&self) -> String {
        format!("ns={:?} correct={}", self.ns, self.correct.as_bit())
    }

    fn threaded(&self) -> bool {
        false
    }

    fn pass(&self, ctx: &mut Ctx<'_>) -> PassOut {
        let correct = self.correct;
        let minority = Minority::new(3).expect("valid");
        let mut out = PassOut::default();
        let results = ctx.timed(|t| {
            let mut rows = Vec::new();
            for &n in &self.ns {
                let chain = t.span("markov.build", |_| {
                    SparseChain::build(&voter(), n, correct).expect("valid")
                });
                let worst = t.span("markov.hitting", |_| {
                    expected_hitting_times_sparse(&chain).expect("voter absorbs").worst().1
                });
                let slow = t.span("markov.build", |_| {
                    SparseChain::build(&minority, n, correct).expect("valid")
                });
                let budget = (n as f64).powf(0.9).ceil() as usize;
                let start = Configuration::all_wrong(n, correct).ones();
                let survival = t.span("markov.survival", |_| {
                    *survival_curve_sparse(&slow, start, budget).last().expect("non-empty curve")
                });
                rows.push((
                    n,
                    worst,
                    survival,
                    [&chain, &slow].map(|c| (c.num_states(), c.nnz())),
                    budget,
                ));
            }
            rows
        });

        let mut ratios = Vec::new();
        for &(n, worst, survival, sizes, budget) in &results {
            for (states, nnz) in sizes {
                out.count("markov_rows", states as f64);
                out.count("markov_nnz", nnz as f64);
            }
            out.count("survival_steps", budget as f64);
            let ratio = worst / (n as f64 * (n as f64).ln());
            ratios.push(ratio);
            out.check(ratio < 1.0, format!("n={n}: Voter worst E[T]/(n ln n) = {ratio:.4} < 1"));
            out.check(
                survival >= 0.99,
                format!("n={n}: Minority(3) survival {survival:.6} >= 0.99"),
            );
        }
        out.check(
            ratios.windows(2).all(|w| w[1] <= w[0] * 1.05),
            format!("E[T]/(n ln n) non-increasing along n: {ratios:?}"),
        );
        out.check(sparse_matches_dense(correct), "sparse rows match the dense chain at n = 256");
        out
    }
}

/// Every ε-truncated sparse row is within its tail bound of the dense row.
fn sparse_matches_dense(correct: Opinion) -> bool {
    let n = 256;
    let sparse = SparseChain::build(&voter(), n, correct).expect("valid");
    let dense = AggregateChain::build(&voter(), n, correct).expect("valid");
    let rows_ok = dense.states().all(|x| {
        let l1: f64 = sparse
            .dense_row(x)
            .iter()
            .zip(dense.transition_row(x))
            .map(|(a, b)| (a - b).abs())
            .sum();
        l1 <= sparse.tail_bound(x) + 1e-12
    });
    let ts = expected_hitting_times_sparse(&sparse).expect("voter absorbs");
    let td = expected_hitting_times(&dense).expect("voter absorbs");
    rows_ok && ts.iter().zip(td.iter()).all(|((_, a), (_, b))| (a - b).abs() <= 1e-9 * b.max(1.0))
}

/// The Voter sweep written through the trace store and checkpoint log,
/// read back, and resumed.
struct ObservedSweep(Sweep);

impl Workload for ObservedSweep {
    fn name(&self) -> &'static str {
        "observed_sweep"
    }

    fn inputs(&self) -> String {
        self.0.inputs()
    }

    fn pass(&self, ctx: &mut Ctx<'_>) -> PassOut {
        let (obs, threads, sweep) = (ctx.obs.clone(), ctx.threads, &self.0);
        let outcomes = |batches: Vec<OutcomeBatch>| -> Vec<Outcome> {
            batches.iter().flat_map(|b| b.outcomes().to_vec()).collect()
        };
        let mut out = PassOut::default();
        if ctx.plain {
            let written = ctx.timed(|t| sweep.run(t, &obs, threads, "experiments.measure"));
            out.outcomes(&outcomes(written));
            return out;
        }
        let (trace_path, log_path) =
            (ctx.work_dir.join("trace.bct"), ctx.work_dir.join("checkpoint.jsonl"));
        let (written, write_s, (analysis, round_events, events), (records, resumed, hits)) = ctx
            .timed(|t| {
                let start = Instant::now();
                let sink = ColumnarSink::create(&trace_path).expect("trace file is writable");
                let log = CheckpointLog::create(&log_path).expect("checkpoint log is writable");
                let obs =
                    obs.with_metrics().with_sink(Arc::new(sink)).with_checkpoint(Arc::new(log));
                let written = sweep.run(t, &obs, threads, "experiments.measure");
                t.span("obs.flush", |_| {
                    obs.flush();
                    drop(obs);
                });
                let write_s = start.elapsed().as_secs_f64();

                let read = t.span("obs.analyze", |_| {
                    let reader = ColumnarReader::open(&trace_path).expect("trace reads back");
                    let mut acc = TraceAccumulator::new();
                    let mut round_events = 0;
                    for block in reader.blocks() {
                        if let Block::RoundCompleted(c) = &block {
                            round_events += c.len;
                        }
                        acc.ingest_block(&block);
                    }
                    (acc.finish(0), round_events, reader.event_count())
                });

                let log = t.span("obs.resume", |_| {
                    CheckpointLog::open(&log_path).expect("checkpoint log reopens")
                });
                let records = log.len();
                let obs = Obs::none().with_metrics().with_checkpoint(Arc::new(log));
                let resumed = sweep.run(t, &obs, threads, "obs.resume");
                (
                    written,
                    write_s,
                    read,
                    (records, resumed, obs.metrics().snapshot().checkpoint_hits),
                )
            });
        let (written, resumed) = (outcomes(written), outcomes(resumed));

        out.outcomes(&written);
        out.count("write_s", write_s);
        out.count("trace_events", events as f64);
        out.count("trace_bytes", file_len(&trace_path));
        out.count("checkpoint_records", records as f64);
        out.count("checkpoint_bytes", file_len(&log_path));
        out.count("resume_hits", hits as f64);
        out.count("resume_total", resumed.len() as f64);

        out.check(!analysis.has_violations(), "trace analysis reports no Prop-4/Prop-5 violations");
        let rounds: u64 = written.iter().map(|o| o.rounds_censored()).sum();
        out.check(
            round_events as u64 == rounds,
            format!("{round_events} round events vs {rounds} outcome rounds"),
        );
        out.check(resumed == written, "resumed outcomes are bit-identical");
        out.check(
            hits as usize == resumed.len(),
            format!("{hits} of {} resumed from cache", resumed.len()),
        );
        out
    }

    fn bare(&self) -> Option<(f64, f64)> {
        self.0.bare()
    }
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_voter_moments_match_a_large_simulation() {
        let n = 64;
        let (mean, sd) = exact_voter_moments(n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let batch =
            measure_convergence_observed(&Obs::none(), &voter(), start, 4000, 1 << 20, 9, Some(2));
        let s = batch.censored_summary().unwrap();
        assert!((s.mean() - mean).abs() < 5.0 * sd / 4000f64.sqrt(), "{} vs {mean}", s.mean());
        assert!((s.std_dev() / sd - 1.0).abs() < 0.1, "{} vs {sd}", s.std_dev());
    }
}
