//! Types and helpers shared by the workloads.

use std::time::{Duration, Instant};

use cc19_ctsim::phantom::Severity;
use cc19_data::sources::{DataSource, Modality, ScanMeta};
use cc19_data::volume::CtVolume;
use cc19_serve::{PendingDiagnosis, ServeResponse};
use cc19_tensor::rng::Xorshift;
use computecovid19::framework::Framework;
use computecovid19::Diagnosis;
use crossbeam::channel::RecvTimeoutError;

use crate::trace::Tracer;

/// Seed of every model replica. Weights do not change the work done, and
/// one fixed model lets the output checks compare served answers with a
/// direct `Framework::diagnose` bit for bit.
pub const MODEL_SEED: u64 = 31;

/// Decision threshold of every diagnosis.
pub const THRESHOLD: f64 = 0.5;

/// Input sizes and rates. [`Scale::paper`] is what the benchmark runs;
/// [`Scale::tiny`] keeps the smoke tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Extent of the `slice512` slices.
    pub slice_n: usize,
    /// Slices enhanced at least, however long they take.
    pub min_slices: usize,
    /// `(D, H, W)` of every served, clustered and monitored study.
    pub study: [usize; 3],
    /// `serve_open` arrival rate (studies/s).
    pub serve_rate: f64,
    /// `serve_open` admission-queue bound.
    pub queue_bound: usize,
    /// Load before the measured window of `serve_open` and
    /// `cluster_closed`, answered but not measured, so every server
    /// thread is warm and the load is in its steady state.
    pub lead_in: Duration,
    /// Length of the layer sweep's server and cluster passes.
    pub layer_pass: Duration,
    /// Distinct timepoints per monitored patient.
    pub timepoints: usize,
    /// Submissions per monitored patient (about half are re-reads).
    pub scans_per_patient: usize,
    /// Square GEMM extent of the tensor probe.
    pub gemm_n: usize,
    /// Extent of the 16→16 5×5 conv/deconv probes and the kernel-ladder
    /// DDnet.
    pub conv_n: usize,
    /// Repeats of each short per-layer probe.
    pub probe_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn paper() -> Self {
        Scale {
            slice_n: 512,
            min_slices: 2,
            study: [8, 64, 64],
            serve_rate: 6.0,
            queue_bound: 64,
            lead_in: Duration::from_secs(2),
            layer_pass: Duration::from_secs(3),
            timepoints: 6,
            scans_per_patient: 12,
            gemm_n: 1024,
            conv_n: 512,
            probe_reps: 8,
        }
    }

    /// Smoke-test sizes.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Scale {
            slice_n: 32,
            min_slices: 2,
            study: [4, 32, 32],
            serve_rate: 40.0,
            queue_bound: 64,
            lead_in: Duration::from_millis(100),
            layer_pass: Duration::from_millis(200),
            timepoints: 4,
            scans_per_patient: 8,
            gemm_n: 64,
            conv_n: 32,
            probe_reps: 2,
        }
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of each measured pass.
    pub seconds: f64,
    /// Run a traced pass and derive per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Corrupt the expected outputs, so a test can see the check fail.
    pub tamper: bool,
    /// When the process started (the origin of `setup_s`).
    pub t_proc: Instant,
}

impl Ctx {
    /// Length of each measured pass. A traced run makes two passes, one
    /// untraced and one traced, in the time of one.
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in BENCHMARK.json.
    pub name: &'static str,
    /// Unit as in BENCHMARK.json.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (all passes).
    pub attempted: u64,
    /// Operations failed, rejected or failing their check.
    pub failed: u64,
    /// Output-check failures; any makes the run incorrect.
    pub mismatches: Vec<String>,
    /// End-to-end metrics, from the untraced pass.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, from the traced pass (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable context lines (sample counts, spreads).
    pub notes: Vec<String>,
    /// Spans of the traced pass.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Add an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.end_to_end.push(Metric { name, unit, value });
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric { name, unit, value });
    }

    /// Record an output-check failure.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }
}

/// Metadata of a phantom study; `severity` applies to positives only.
pub fn study_meta(id: u64, positive: bool, severity: Severity, slices: usize) -> ScanMeta {
    ScanMeta {
        id,
        source: DataSource::Midrc,
        modality: Modality::Ct,
        positive,
        severity: positive.then_some(severity),
        slices,
        circular_artifact: false,
        has_projections: false,
    }
}

/// A random severity.
pub fn severity(rng: &mut Xorshift) -> Severity {
    match rng.next_u64() % 3 {
        0 => Severity::Mild,
        1 => Severity::Moderate,
        _ => Severity::Severe,
    }
}

/// `n` distinct phantom studies of `dims`, about half of them positive.
pub fn studies(rng: &mut Xorshift, n: usize, dims: [usize; 3]) -> Result<Vec<CtVolume>, String> {
    let base = rng.next_u64() >> 16;
    (0..n as u64)
        .map(|i| {
            let positive = rng.next_u64() & 1 == 1;
            let meta = study_meta(base + i, positive, severity(rng), dims[0]);
            CtVolume::synthesize(&meta, dims[1], dims[0]).map_err(|e| format!("synthesize: {e}"))
        })
        .collect()
}

/// The model every server, cluster node and direct check uses.
pub fn framework() -> Framework {
    Framework::untrained_reduced(MODEL_SEED)
}

/// A served answer as seen by the load generator.
#[derive(Debug)]
pub struct Reply<T> {
    /// The generator's tag (request index, due time, …).
    pub tag: T,
    /// The response; `None` if the server dropped the request.
    pub response: Option<ServeResponse>,
    /// When the generator saw it.
    pub at: Instant,
}

/// Collect every response that has arrived among `inflight`, waiting at
/// most about a millisecond for the oldest. Polling keeps completion
/// times accurate to that millisecond whatever order answers arrive in.
pub fn poll<T>(inflight: &mut Vec<(T, PendingDiagnosis)>) -> Vec<Reply<T>> {
    let mut ready = Vec::new();
    let mut i = 0;
    while i < inflight.len() {
        let wait = if i == 0 {
            Duration::from_millis(1)
        } else {
            Duration::ZERO
        };
        let got = match inflight[i].1.wait_timeout(wait) {
            Ok(r) => Some(Some(r)),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(None),
        };
        match got {
            Some(response) => {
                let (tag, _) = inflight.swap_remove(i);
                ready.push(Reply {
                    tag,
                    response,
                    at: Instant::now(),
                });
            }
            None => i += 1,
        }
    }
    ready
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Slowdown of the traced pass over the untraced one, in percent of the
/// untraced value of the workload's primary metric.
pub fn overhead_pct(untraced: f64, traced: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (traced / untraced - 1.0) * 100.0
    } else {
        (untraced / traced - 1.0) * 100.0
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `xs`, or an error naming the empty sample.
pub fn median_of(what: &str, xs: &[f64]) -> Result<f64, String> {
    crate::stats::median(xs).ok_or_else(|| format!("no samples for {what}"))
}

/// Nearest-rank percentile of `xs`, or an error naming the empty sample.
pub fn percentile_of(what: &str, xs: &[f64], p: f64) -> Result<f64, String> {
    crate::stats::percentile(xs, p).ok_or_else(|| format!("no samples for {what}"))
}

/// Print-ready summary of a sample: median, quartiles and count.
pub fn spread_note(name: &str, unit: &str, xs: &[f64]) -> String {
    match crate::stats::quartiles(xs) {
        Some((q1, m, q3)) => format!(
            "{name}: median {m:.4} {unit}, quartiles [{q1:.4}, {q3:.4}], n={}",
            xs.len()
        ),
        None => format!("{name}: no samples"),
    }
}

/// Time the three pipeline stages directly on each of `vols`
/// (`pipeline.*` spans) and add their medians as per-layer metrics.
pub fn stage_probes(
    vols: &[CtVolume],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    use computecovid19::framework::Scratch;
    let fw = framework();
    let mut scratch = Scratch::new();
    for (op, vol) in vols.iter().enumerate() {
        let op = op as u64;
        let enh = tracer.time("pipeline.run_enhance", None, op, || {
            fw.run_enhance(&vol.hu, &mut scratch)
        });
        let enh = enh.map_err(|e| format!("run_enhance: {e}"))?;
        let seg = tracer.time("pipeline.run_segment", None, op, || {
            fw.run_segment(enh, &mut scratch)
        });
        let seg = seg.map_err(|e| format!("run_segment: {e}"))?;
        let diag = tracer.time("pipeline.run_classify", None, op, || {
            fw.run_classify(seg, THRESHOLD, &mut scratch)
        });
        diag.map_err(|e| format!("run_classify: {e}"))?;
    }
    for (span, metric) in [
        ("pipeline.run_enhance", "pipeline.enhance_ms"),
        ("pipeline.run_segment", "pipeline.segment_ms"),
        ("pipeline.run_classify", "pipeline.classify_ms"),
    ] {
        out.layer(metric, "ms", median_of(span, &tracer.secs(span))? * 1e3);
    }
    Ok(())
}

/// Served answers compared with a direct `Framework::diagnose`.
const CHECKED: usize = 8;

/// Compare [`CHECKED`] served answers, spread evenly over `answered`
/// (`(volume index, diagnosis)`), with direct `Framework::diagnose`
/// calls on the same volumes, bit for bit.
pub fn check_against_direct(
    what: &str,
    answered: &[(usize, Diagnosis)],
    vols: &[CtVolume],
    tamper: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let fw = framework();
    let k = CHECKED.min(answered.len());
    for (i, got) in (0..k).map(|j| &answered[j * answered.len() / k]) {
        let want = fw
            .diagnose(&vols[*i].hu, THRESHOLD)
            .map_err(|e| format!("direct diagnose: {e}"))?;
        let want_bits = want.probability.to_bits() ^ u64::from(tamper);
        if got.probability.to_bits() != want_bits || got.positive != want.positive {
            out.mismatch(format!(
                "{what} study {i}: served p={} positive={}, direct p={} positive={}",
                got.probability,
                got.positive,
                f64::from_bits(want_bits),
                want.positive
            ));
        }
    }
    Ok(())
}
