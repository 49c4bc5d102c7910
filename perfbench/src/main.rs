//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a provenance line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Run it from the
//! repository root through `cargo run --release --manifest-path
//! perfbench/Cargo.toml -- …` (see `README.md`).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use perfbench::workloads::{self, Scale};
use perfbench::{Checks, Options};

/// Separate processes timed for `setup_s`; the median is reported.
const SETUP_RUNS: usize = 3;

struct Args {
    opts: Options,
    out_dir: PathBuf,
    /// Set in a set-up child: when the parent spawned it (ns since the
    /// Unix epoch).
    spawned_ns: Option<u128>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from(".perfbench");
    let mut spawned_ns = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("seconds > 0"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("full or tiny")),
                };
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            "--setup-child" => spawned_ns = Some(value.parse().map_err(|_| bad("an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {:?})", workloads::WORKLOADS));
    }
    let seed = seed.ok_or("missing --seed")?;
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let opts = Options {
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        scale,
        threads,
    };
    Ok(Args { opts, out_dir, spawned_ns })
}

fn unix_ns(t: SystemTime) -> u128 {
    t.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos())
}

/// Times `SETUP_RUNS` fresh processes from spawn to the end of their cold
/// pass, one after another.
fn measure_setup(args: &Args, checks: &mut Checks) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    let scale = match args.opts.scale {
        Scale::Full => "full",
        Scale::Tiny => "tiny",
    };
    let mut samples = Vec::new();
    for _ in 0..SETUP_RUNS {
        let spawned = unix_ns(SystemTime::now()).to_string();
        let out = Command::new(&exe)
            .args(["--workload", &args.opts.workload, "--seed", &args.opts.seed.to_string()])
            .args(["--scale", scale, "--setup-child", &spawned])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let secs = out.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .find_map(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse::<f64>().ok())
        });
        checks.record(secs.is_some(), "set-up process ran its cold pass cleanly");
        samples.extend(secs);
    }
    samples
}

/// A per-process scratch directory under `out_dir`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(out_dir: &Path) -> std::io::Result<Self> {
        let dir = out_dir.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::new(&args.out_dir) {
        Ok(w) => w,
        Err(e) => {
            eprintln!(
                "perfbench: cannot create a work directory in {}: {e}",
                args.out_dir.display()
            );
            return ExitCode::from(2);
        }
    };

    if let Some(spawned_ns) = args.spawned_ns {
        let (checks, ended) = perfbench::cold_pass(&args.opts, &work.0);
        let Some(ended) = ended.filter(|_| checks.failed == 0) else {
            return ExitCode::from(3);
        };
        let elapsed = unix_ns(ended).saturating_sub(spawned_ns);
        let elapsed = Duration::from_nanos(u64::try_from(elapsed).unwrap_or(u64::MAX));
        println!("setup_s {:?}", elapsed.as_secs_f64());
        return ExitCode::SUCCESS;
    }

    let mut setup_checks = Checks::default();
    let setup = if args.opts.trace { Vec::new() } else { measure_setup(&args, &mut setup_checks) };
    let mut result = perfbench::run(&args.opts, &setup, &work.0);
    result.checks.attempted += setup_checks.attempted;
    result.checks.failed += setup_checks.failed;

    let provenance = perfbench::provenance(args.opts.threads);
    let inputs = workloads::build(&args.opts.workload, args.opts.seed, args.opts.scale)
        .map(|w| w.inputs())
        .unwrap_or_default();
    let header = format!(
        "{{\"provenance\": {provenance}, \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"passes\": {}, \"pass_s_all\": {:?}, \"inputs\": \"{inputs}\"}}",
        args.opts.workload,
        args.opts.seed,
        args.opts.trace,
        result.pass_walls.len(),
        result.pass_walls
    );
    if args.opts.trace {
        let path =
            args.out_dir.join(format!("spans-{}-seed{}.jsonl", args.opts.workload, args.opts.seed));
        if let Err(e) = result.tracer.write_jsonl(&path, &header) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{header}");
    println!("{}", result.json());
    ExitCode::SUCCESS
}
