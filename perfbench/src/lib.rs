//! End-to-end paper-sweep benchmark for the `bitdissem` workspace.
//!
//! One run executes one workload ([`workloads::WORKLOADS`]) for a fixed
//! number of seconds and reports either the end-to-end metrics (untraced
//! run) or the per-layer metrics (traced run). See `README.md` beside this
//! crate for the workloads, the metrics and the command that runs them.

pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Instant, SystemTime};

use bitdissem_obs::{LatencyId, Obs};

use trace::Tracer;
use workloads::{Ctx, PassOut, Scale, Workload};

/// `(name, unit)` of every end-to-end metric, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")];

/// `(name, unit)` of every per-layer metric, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("poly.compile_s", "s"),
    ("analysis.witness_s", "s"),
    ("experiments.measure_s", "s"),
    ("experiments.measure_share", "ratio"),
    ("sim.replica_rounds", "count"),
    ("sim.replica_rounds_per_s", "1/s"),
    ("sim.opinion_samples", "count"),
    ("sim.retired_frac", "ratio"),
    ("sim.round_pass_ns_p50", "ns"),
    ("sim.round_pass_ns_p99", "ns"),
    ("sim.bare_rounds_per_s", "1/s"),
    ("sim.driver_over_bare", "ratio"),
    ("pool.batches", "count"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.speedup", "ratio"),
    ("markov.build_s", "s"),
    ("markov.rows_per_s", "1/s"),
    ("markov.nnz", "count"),
    ("markov.hitting_s", "s"),
    ("markov.survival_s", "s"),
    ("markov.survival_steps_per_s", "1/s"),
    ("stats.fit_s", "s"),
    ("obs.write_overhead_frac", "ratio"),
    ("obs.trace_events", "count"),
    ("obs.trace_bytes_per_event", "B"),
    ("obs.checkpoint_records", "count"),
    ("obs.checkpoint_bytes", "B"),
    ("obs.analyze_s", "s"),
    ("obs.analyze_events_per_s", "1/s"),
    ("obs.resume_s", "s"),
    ("obs.resume_hit_frac", "ratio"),
    ("bench.explained_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
];

/// How one run is set up.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of warm passes to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Worker threads passed to every replication call.
    pub threads: usize,
}

/// Output checks over every pass of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// Checks failed (a panicking pass counts as one failure).
    pub failed: u64,
}

impl Checks {
    fn add(&mut self, checks: &[(String, bool)]) {
        for (what, ok) in checks {
            self.attempted += 1;
            if !ok {
                self.failed += 1;
                eprintln!("check failed: {what}");
            }
        }
    }

    /// Counts one check with outcome `ok`.
    pub fn record(&mut self, ok: bool, what: &str) {
        self.add(&[(what.to_string(), ok)]);
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Output checks.
    pub checks: Checks,
    /// `(name, unit, value)` per reported metric.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Wall time of every untraced warm pass, in seconds.
    pub pass_walls: Vec<f64>,
    /// Recorded spans (empty for untraced runs).
    pub tracer: Tracer,
}

impl RunResult {
    /// The final line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(m, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed
        )
    }
}

/// Median of `xs` (0 for an empty slice).
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload does
/// not exercise).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What kind of pass to run.
#[derive(Debug, Clone, Copy)]
struct PassKind {
    traced: bool,
    plain: bool,
    threads: usize,
}

/// One finished pass.
struct PassRun {
    wall_s: f64,
    root: Option<usize>,
    ended: Option<SystemTime>,
    out: PassOut,
    obs: Obs,
}

/// Runs one pass, catching a panic as a failed check.
fn run_pass(
    w: &dyn Workload,
    tracer: &mut Tracer,
    kind: PassKind,
    work_dir: &Path,
    checks: &mut Checks,
) -> Option<PassRun> {
    let obs = if kind.traced { Obs::none().with_metrics() } else { Obs::none() };
    let mut ctx = Ctx {
        tracer,
        threads: kind.threads,
        obs: obs.clone(),
        plain: kind.plain,
        work_dir,
        wall_s: 0.0,
        root: None,
        ended: None,
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.pass(&mut ctx))) {
        Ok(out) => {
            checks.add(&out.checks);
            Some(PassRun { wall_s: ctx.wall_s, root: ctx.root, ended: ctx.ended, out, obs })
        }
        Err(_) => {
            checks.record(false, &format!("{} pass panicked", w.name()));
            None
        }
    }
}

/// Runs the cold pass of a fresh process: the body of one set-up
/// measurement. Returns the pass's checks and the wall-clock end of its
/// timed part (`None` if it panicked).
///
/// # Panics
///
/// Panics on an unknown workload name.
#[must_use]
pub fn cold_pass(opts: &Options, work_dir: &Path) -> (Checks, Option<SystemTime>) {
    let mut checks = Checks::default();
    let w = workloads::build(&opts.workload, opts.seed, opts.scale).expect("known workload");
    let kind = PassKind { traced: false, plain: false, threads: opts.threads };
    let run = run_pass(w.as_ref(), &mut Tracer::new(false), kind, work_dir, &mut checks);
    (checks, run.and_then(|r| r.ended))
}

/// Per-layer values of one traced pass.
struct LayerSample {
    wall_s: f64,
    /// Self time per span name, in seconds.
    self_time: BTreeMap<&'static str, f64>,
    explained: f64,
    counts: BTreeMap<&'static str, f64>,
}

fn layer_sample(tracer: &Tracer, root: usize, wall_s: f64, out: PassOut, obs: &Obs) -> LayerSample {
    let mut self_time = BTreeMap::new();
    let mut explained_ns = 0;
    for s in tracer.descendants(root) {
        let own = tracer.self_ns(s.id);
        explained_ns += own;
        *self_time.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    let mut counts = out.counts;
    let snap = obs.metrics().snapshot();
    counts.insert("opinion_samples", snap.opinion_samples as f64);
    counts.insert("pool_batches", snap.pool_batches as f64);
    counts.insert("pool_tasks", snap.pool_tasks as f64);
    counts.insert("pool_steals", snap.pool_steals as f64);
    let round_pass = &obs.metrics().latency_snapshots()[LatencyId::RoundPass as usize].1;
    counts.insert("round_pass_p50", round_pass.quantile(0.5).unwrap_or(0.0));
    counts.insert("round_pass_p99", round_pass.quantile(0.99).unwrap_or(0.0));
    let root_ns = tracer.spans()[root].duration_ns();
    LayerSample { wall_s, self_time, explained: ratio(explained_ns as f64, root_ns as f64), counts }
}

/// Runs one benchmark run: a cold pass, then warm passes for
/// `opts.seconds`, then the metrics of the requested kind.
///
/// `setup_samples` are the set-up times measured in separate processes
/// (used by untraced runs only).
///
/// # Panics
///
/// Panics on an unknown workload name.
#[must_use]
pub fn run(opts: &Options, setup_samples: &[f64], work_dir: &Path) -> RunResult {
    // Pass `k` runs on inputs drawn from `(seed, k)`: warm passes cover
    // several inputs, so their median does not hinge on one draw.
    let build = |k: u64| {
        workloads::build(&opts.workload, workloads::pass_seed(opts.seed, k), opts.scale)
            .expect("known workload")
    };
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(opts.trace);
    let mut quiet = Tracer::new(false);
    let plain = PassKind { traced: false, plain: false, threads: opts.threads };

    // Cold pass: fills lazy caches and the worker pool; not timed.
    run_pass(build(0).as_ref(), &mut quiet, plain, work_dir, &mut checks);

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut overhead = Vec::new();
    let mut write_overhead = Vec::new();
    let start = Instant::now();
    for k in 1.. {
        let w = build(k);
        let w = w.as_ref();
        let Some(base) = run_pass(w, &mut quiet, plain, work_dir, &mut checks) else {
            // A panicking pass is a failed check; keep to the time budget.
            if start.elapsed().as_secs_f64() >= opts.seconds {
                break;
            }
            continue;
        };
        untraced.push(base.wall_s);
        if opts.trace {
            // Traced and plain-sweep passes reuse the inputs of the
            // untraced pass they are compared with.
            let kind = PassKind { traced: true, ..plain };
            if let Some(r) = run_pass(w, &mut tracer, kind, work_dir, &mut checks) {
                let root = r.root.expect("traced passes record a root span");
                overhead.push(r.wall_s / base.wall_s - 1.0);
                traced.push(layer_sample(&tracer, root, r.wall_s, r.out, &r.obs));
            }
            if let Some(&write_s) = base.out.counts.get("write_s") {
                let kind = PassKind { plain: true, ..plain };
                if let Some(r) = run_pass(w, &mut quiet, kind, work_dir, &mut checks) {
                    write_overhead.push(write_s / r.wall_s - 1.0);
                }
            }
        }
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let pass_s = median(&untraced);

    let metrics = if opts.trace {
        let w = build(1);
        let speedup = if w.threaded() && !untraced.is_empty() {
            let kind = PassKind { threads: 1, ..plain };
            run_pass(w.as_ref(), &mut quiet, kind, work_dir, &mut checks)
                .map_or(0.0, |r| r.wall_s / untraced[0])
        } else {
            0.0
        };
        let bare = w.bare().map_or(0.0, |(rounds, secs)| ratio(rounds, secs));
        let med =
            |f: &dyn Fn(&LayerSample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let self_s = |name: &str| med(&|s| s.self_s(name));
        let count = |key: &str| med(&|s| s.count(key));
        let rate = |key: &str, span: &str| med(&|s| ratio(s.count(key), s.self_s(span)));
        let rounds_per_s = rate("replica_rounds", "experiments.measure");
        let values = [
            ("poly.compile_s", self_s("poly.compile")),
            ("analysis.witness_s", self_s("analysis.witness")),
            ("experiments.measure_s", self_s("experiments.measure")),
            (
                "experiments.measure_share",
                med(&|s| ratio(s.self_s("experiments.measure"), s.wall_s)),
            ),
            ("sim.replica_rounds", count("replica_rounds")),
            ("sim.replica_rounds_per_s", rounds_per_s),
            ("sim.opinion_samples", count("opinion_samples")),
            ("sim.retired_frac", med(&|s| ratio(s.count("retired"), s.count("replicas")))),
            ("sim.round_pass_ns_p50", count("round_pass_p50")),
            ("sim.round_pass_ns_p99", count("round_pass_p99")),
            ("sim.bare_rounds_per_s", bare),
            ("sim.driver_over_bare", ratio(rounds_per_s, bare)),
            ("pool.batches", count("pool_batches")),
            ("pool.tasks", count("pool_tasks")),
            ("pool.steals", count("pool_steals")),
            ("pool.speedup", speedup),
            ("markov.build_s", self_s("markov.build")),
            ("markov.rows_per_s", rate("markov_rows", "markov.build")),
            ("markov.nnz", count("markov_nnz")),
            ("markov.hitting_s", self_s("markov.hitting")),
            ("markov.survival_s", self_s("markov.survival")),
            ("markov.survival_steps_per_s", rate("survival_steps", "markov.survival")),
            ("stats.fit_s", self_s("stats.fit")),
            ("obs.write_overhead_frac", median(&write_overhead)),
            ("obs.trace_events", count("trace_events")),
            (
                "obs.trace_bytes_per_event",
                med(&|s| ratio(s.count("trace_bytes"), s.count("trace_events"))),
            ),
            ("obs.checkpoint_records", count("checkpoint_records")),
            ("obs.checkpoint_bytes", count("checkpoint_bytes")),
            ("obs.analyze_s", self_s("obs.analyze")),
            ("obs.analyze_events_per_s", rate("trace_events", "obs.analyze")),
            ("obs.resume_s", self_s("obs.resume")),
            (
                "obs.resume_hit_frac",
                med(&|s| ratio(s.count("resume_hits"), s.count("resume_total"))),
            ),
            ("bench.explained_frac", med(&|s| s.explained)),
            ("bench.trace_overhead_frac", median(&overhead)),
            ("bench.failed_frac", ratio(checks.failed as f64, checks.attempted as f64)),
        ];
        named(&PER_LAYER, &values)
    } else {
        let values = [
            ("setup_s", median(setup_samples)),
            ("pass_s", pass_s),
            ("peak_rss_mb", peak_rss_mb()),
        ];
        named(&END_TO_END, &values)
    };
    RunResult { checks, metrics, pass_walls: untraced, tracer }
}

/// Pairs each declared `(name, unit)` with its computed value.
fn named(
    declared: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Vec<(&'static str, &'static str, f64)> {
    assert_eq!(declared.len(), values.len(), "one value per declared metric");
    declared
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            (name, unit, v.unwrap_or_else(|| panic!("no value computed for {name}")))
        })
        .collect()
}

impl LayerSample {
    fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    fn self_s(&self, span: &str) -> f64 {
        self.self_time.get(span).copied().unwrap_or(0.0)
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build provenance as one JSON object.
#[must_use]
pub fn provenance(threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"cpu_model\": \"{}\", \"nproc\": {nproc}, \"workers\": {threads}, \"pool_workers\": {}, \"profile\": \"{profile}\", \"git_rev\": \"{}\"}}",
        cpu.replace('"', "'"),
        bitdissem_pool::effective_parallelism(),
        git_revision(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
    )
}

/// The commit `HEAD` names, read from the repository files.
fn git_revision(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}
