//! The benchmark's own tests: tiny runs of every workload emit every named
//! metric, spans nest, and the seed changes inputs but not metric names.

use std::path::PathBuf;
use std::process::Command;

use bitdissem_obs::json::{parse, Value};
use perfbench::trace::Tracer;
use perfbench::workloads::{self, Scale, WORKLOADS};
use perfbench::{Options, END_TO_END, PER_LAYER};

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the benchmark binary at tiny scale and parses its last line.
fn tiny_run(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.05"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .arg("--out-dir")
        .arg(out_dir(&format!("{workload}-{seed}-{trace}")))
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    parse(stdout.lines().last().unwrap()).unwrap()
}

fn metric_names(result: &Value) -> Vec<String> {
    match result.get("metrics") {
        Some(Value::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Value::Arr(items)) = spec.get(list) else { panic!("{list} missing") };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let pairs = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect()
    };
    assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
}

#[test]
fn tiny_runs_emit_every_metric_with_unit_and_finite_value() {
    for workload in WORKLOADS {
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = tiny_run(workload, 5, trace);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{workload}");
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            let metrics = result.get("metrics").unwrap();
            assert_eq!(metric_names(&result).len(), list.len(), "{workload} trace={trace}");
            for (name, unit) in list {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
                let v = m.get("value").and_then(Value::as_f64).unwrap();
                assert!(v.is_finite(), "{workload}: {name} = {v}");
            }
        }
    }
}

#[test]
fn spans_nest_inside_their_parents() {
    let opts = Options {
        workload: "observed_sweep".to_string(),
        seed: 3,
        seconds: 0.05,
        trace: true,
        scale: Scale::Tiny,
        threads: 2,
    };
    let work = out_dir("nesting");
    let result = perfbench::run(&opts, &[], &work);
    let spans = result.tracer.spans();
    assert!(spans.iter().any(|s| s.name == "obs.analyze"));
    for s in spans {
        assert!(s.start_ns <= s.end_ns);
        let Some(p) = s.parent else {
            assert_eq!(s.name, "pass");
            continue;
        };
        let parent = &spans[p];
        assert!(p < s.id, "a parent opens before its children");
        assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns, "{s:?} in {parent:?}");
    }
    // Siblings never overlap, so self time is duration minus children.
    for p in spans {
        let kids: Vec<_> = spans.iter().filter(|s| s.parent == Some(p.id)).collect();
        for w in kids.windows(2) {
            assert!(w[0].end_ns <= w[1].start_ns);
        }
        let covered: u64 = kids.iter().map(|k| k.duration_ns()).sum();
        assert_eq!(result.tracer.self_ns(p.id), p.duration_ns() - covered);
    }
}

#[test]
fn self_time_of_a_nested_span_excludes_only_its_children() {
    let mut t = Tracer::new(true);
    t.span("pass", |t| t.span("outer", |t| t.span("inner", |_| ())));
    let s = t.spans();
    assert_eq!(t.self_ns(1), s[1].duration_ns() - s[2].duration_ns());
    assert_eq!(t.descendants(0).len(), 2);
}

#[test]
fn seed_changes_inputs_but_not_metric_names() {
    for workload in WORKLOADS {
        let digests: Vec<String> = (1..=8)
            .map(|seed| workloads::build(workload, seed, Scale::Full).unwrap().inputs())
            .collect();
        assert!(digests.iter().any(|d| d != &digests[0]), "{workload}: seed changes nothing");
        for trace in [false, true] {
            let a = metric_names(&tiny_run(workload, 1, trace));
            let b = metric_names(&tiny_run(workload, 2, trace));
            assert_eq!(a, b, "{workload} trace={trace}");
        }
    }
}
