//! Real-clock benchmark of the ComputeCOVID19+ workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <slice512|serve_open|cluster_closed|monitor_repeat> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up (model, server or
//! cluster, warm-up operation), measures for `--seconds`, checks the
//! program's outputs, and prints one line per metric followed by one
//! JSON object as the last line of stdout:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end metrics, the same four
//! for every workload. With `--trace 1` the run measures the workload
//! twice for half as long, untraced and then with spans recorded around
//! every call into the program (which gives the tracing overhead), then
//! sweeps every layer with short fixed-size probes (see [`layers`]) and
//! prints the per-layer metrics derived from the spans. `--out`
//! additionally writes the full report (and the spans of a traced run)
//! into the given directory; without it the benchmark writes no files.
//!
//! A failed output check prints `"correct": false` with no metrics and
//! exits 1. Usage errors and a guarded environment variable exit 2; an
//! operation error that leaves a metric unmeasurable exits 3.

mod cluster_closed;
mod common;
mod layers;
mod monitor_repeat;
mod openloop;
mod serve_open;
mod slice512;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::{Ctx, Metric, Outcome, Scale};

/// Environment variables that silently change the program under
/// measurement (SIMD dispatch, conv backend, manual clocks, fault
/// injection); the benchmark refuses to run when any is set.
const GUARDED_ENV: [&str; 4] = [
    "CC19_SIMD",
    "CC19_CONV_BACKEND",
    "CC19_OBS_DETERMINISTIC",
    "CC19_FAULT_SEED",
];

/// The end-to-end metrics every workload reports, `(name, unit)`. An
/// operation is the workload's unit of work: a 512² slice (`slice512`), a
/// served study (`serve_open`, `cluster_closed`) or a monitored scan
/// (`monitor_repeat`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics every traced run reports: the layer sweep of
/// [`layers`] plus the workload's own tracing overhead.
pub const PER_LAYER: [&str; 35] = [
    "ddnet.conv_s",
    "ddnet.deconv_s",
    "ddnet.enhance_s",
    "tensor.gemm_gflops",
    "tensor.conv5x5_gflops",
    "tensor.deconv5x5_gflops",
    "kernels.conv5x5_gflops",
    "kernels.deconv5x5_gflops",
    "kernels.ddnet512_s",
    "kernels.ddnet512.conv_s",
    "kernels.ddnet512.deconv_s",
    "kernels.ddnet512.other_s",
    "pipeline.enhance_ms",
    "pipeline.segment_ms",
    "pipeline.classify_ms",
    "serve.admit_us",
    "serve.queue_p50_ms",
    "serve.queue_p95_ms",
    "serve.overhead_p50_ms",
    "serve.batch_mean",
    "serve.depth_max",
    "cluster.admit_us",
    "cluster.overhead_p50_ms",
    "cluster.dispatched_per_study",
    "cluster.inflight_max",
    "cluster.scaling_2v1",
    "monitor.volume_digest_us",
    "monitor.weights_digest_us",
    "monitor.burden_us",
    "monitor.hit_ratio",
    "monitor.evictions",
    "monitor.local_stages_ms",
    "monitor.remote_diagnose_ms",
    "bench.gen_lag_p95_ms",
    "bench.trace_overhead_pct",
];

/// A workload and its runner. A traced run of the workload reports only
/// `bench.trace_overhead_pct` (and its spans); [`run`] adds the sweep.
struct Workload {
    name: &'static str,
    run: fn(&Ctx) -> Result<Outcome, String>,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "slice512",
        run: slice512::run,
    },
    Workload {
        name: "serve_open",
        run: serve_open::run,
    },
    Workload {
        name: "cluster_closed",
        run: cluster_closed::run,
    },
    Workload {
        name: "monitor_repeat",
        run: monitor_repeat::run,
    },
];

/// Run a workload; a traced run then sweeps every layer.
fn run(w: &Workload, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = (w.run)(ctx)?;
    if ctx.trace {
        layers::sweep(ctx, &mut out)?;
    }
    validate(ctx.trace, out)
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let t_proc = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: {var} is set; it changes the program under measurement, unset it to benchmark");
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::paper(),
        tamper: false,
        t_proc,
    };
    let env_line = format!(
        "workload={} seed={} seconds={} trace={} simd={} nproc={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cc19_kernels::simd::detected().tag(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("# perfbench {env_line}");
    let outcome = match run(args.workload, &ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name);
            return ExitCode::from(3);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for why in &outcome.mismatches {
        eprintln!("perfbench: output check failed: {why}");
    }
    let correct = outcome.mismatches.is_empty();
    if correct {
        for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
    }
    // Failures are the result line's `failed` of `attempted`; as a share
    // they are 0 on a healthy run, so they are printed but not a metric.
    println!(
        "failed_share = {} ratio",
        outcome.failed as f64 / outcome.attempted as f64
    );
    let shown: &[Metric] = match (correct, args.trace) {
        (false, _) => &[],
        (true, false) => &outcome.end_to_end,
        (true, true) => &outcome.per_layer,
    };
    if let Some(dir) = &args.out {
        if let Err(e) = write_report(dir, &env_line, &args, &outcome) {
            eprintln!("perfbench: writing the report to {}: {e}", dir.display());
            return ExitCode::from(3);
        }
    }
    println!("{}", result_json(correct, &outcome, shown));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Reject an outcome that does not report exactly the declared metrics
/// as finite numbers.
fn validate(trace: bool, o: Outcome) -> Result<Outcome, String> {
    let check = |got: &[Metric], want: &[&str]| -> Result<(), String> {
        let names: Vec<&str> = got.iter().map(|m| m.name).collect();
        let mut sorted_names = names.clone();
        sorted_names.sort_unstable();
        let mut sorted_want = want.to_vec();
        sorted_want.sort_unstable();
        if sorted_names != sorted_want {
            return Err(format!("reported {names:?}, expected {want:?}"));
        }
        match got.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("{} is not finite ({})", m.name, m.value)),
            None => Ok(()),
        }
    };
    if o.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let e2e: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
    check(&o.end_to_end, &e2e)?;
    check(&o.per_layer, if trace { &PER_LAYER } else { &[] })?;
    if let Some(m) = o
        .end_to_end
        .iter()
        .find(|m| END_TO_END.iter().any(|(n, u)| *n == m.name && *u != m.unit))
    {
        return Err(format!("{} reported in {}", m.name, m.unit));
    }
    Ok(o)
}

fn result_json(correct: bool, o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        body.join(", ")
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write `<workload>-seed<n>-trace<t>.json` (and `.spans.jsonl` for a
/// traced run) into `dir`.
fn write_report(
    dir: &std::path::Path,
    env_line: &str,
    args: &Args,
    o: &Outcome,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let metrics = |ms: &[Metric]| {
        ms.iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let list = |xs: &[String]| {
        xs.iter()
            .map(|x| json_str(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let report = format!(
        "{{\"env\": {}, \"attempted\": {}, \"failed\": {}, \"mismatches\": [{}], \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}, \"notes\": [{}]}}\n",
        json_str(env_line),
        o.attempted,
        o.failed,
        list(&o.mismatches),
        metrics(&o.end_to_end),
        metrics(&o.per_layer),
        list(&o.notes),
    );
    std::fs::write(dir.join(format!("{stem}.json")), report)?;
    if let Some(t) = &o.tracer {
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), t.to_jsonl())?;
    }
    Ok(())
}

#[cfg(test)]
mod smoke {
    //! Tiny-scale runs of every workload: each must pass its own output
    //! check, fail it when the expected outputs are corrupted, and
    //! report exactly its declared metrics.

    use super::*;

    fn ctx(seconds: f64, trace: bool, tamper: bool) -> Ctx {
        Ctx {
            seed: 7,
            seconds,
            trace,
            scale: Scale::tiny(),
            tamper,
            t_proc: Instant::now(),
        }
    }

    fn smoke(name: &str, seconds: f64) {
        let w = WORKLOADS.iter().find(|w| w.name == name).unwrap();
        for trace in [false, true] {
            let o = run(w, &ctx(seconds, trace, false)).unwrap();
            assert!(o.mismatches.is_empty(), "{name}: {:?}", o.mismatches);
            assert_eq!(o.failed, 0, "{name}");
            assert_eq!(o.tracer.is_some(), trace);
        }
        let bad = (w.run)(&ctx(seconds, false, true)).unwrap();
        assert!(
            !bad.mismatches.is_empty(),
            "{name}: tampered expectations went unnoticed"
        );
        assert_eq!(bad.failed, bad.mismatches.len() as u64, "{name}");
        assert!(result_json(false, &bad, &[]).ends_with("\"metrics\": {}}"));
    }

    #[test]
    fn slice512_smoke() {
        smoke("slice512", 0.05);
    }

    #[test]
    fn serve_open_smoke() {
        smoke("serve_open", 0.3);
    }

    #[test]
    fn cluster_closed_smoke() {
        smoke("cluster_closed", 0.3);
    }

    #[test]
    fn monitor_repeat_smoke() {
        smoke("monitor_repeat", 0.5);
    }

    #[test]
    fn serve_open_counts_rejections_as_failures() {
        let mut c = ctx(0.1, false, false);
        c.scale.serve_rate = 2000.0;
        c.scale.queue_bound = 1;
        let o = serve_open::run(&c).unwrap();
        assert!(o.mismatches.is_empty(), "{:?}", o.mismatches);
        assert_eq!(o.attempted, 400, "200 lead-in and 200 measured arrivals");
        assert!(
            o.failed > 0,
            "a one-slot queue at 2000 studies/s must reject"
        );
    }

    #[test]
    fn args_and_json() {
        let a: Vec<String> = "--workload hit --seed 1 --seconds 1 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        assert!(parse_args(&a).is_err());
        let a: Vec<String> = "--workload serve_open --seed 3 --seconds 2.5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let p = parse_args(&a).unwrap();
        assert_eq!(
            (p.workload.name, p.seed, p.seconds, p.trace),
            ("serve_open", 3, 2.5, true)
        );
        let o = Outcome {
            attempted: 4,
            failed: 1,
            ..Outcome::default()
        };
        let m = [Metric {
            name: "x_ms",
            unit: "ms",
            value: 1.25,
        }];
        assert_eq!(
            result_json(true, &o, &m),
            r#"{"correct": true, "attempted": 4, "failed": 1, "metrics": {"x_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
        assert_eq!(json_str("a\"b\n"), r#""a\"b\u000a""#);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let declared: std::collections::BTreeSet<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut ours: std::collections::BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        ours.extend(END_TO_END.iter().map(|(name, _)| *name));
        ours.extend(PER_LAYER);
        assert_eq!(declared, ours);
    }
}
