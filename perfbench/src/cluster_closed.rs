//! `cluster_closed`: a closed loop keeping four 8×64×64 studies
//! outstanding (two per generator thread) against a two-worker
//! `ServeCluster`. Router, byte links and per-node servers are on every
//! request; throughput at saturation is the cluster-scaling figure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cc19_data::volume::CtVolume;
use cc19_serve::{ClusterCfg, ServeCluster, ServeRequest};
use cc19_tensor::rng::Xorshift;
use computecovid19::Diagnosis;

use crate::common::{
    self, check_against_direct, median_of, ms, overhead_pct, percentile_of, poll, spread_note,
    studies, Ctx, Outcome,
};
use crate::stats;
use crate::trace::Tracer;

/// Generator threads.
const THREADS: usize = 2;

/// Studies each generator thread keeps outstanding.
const PER_THREAD: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Distinct studies generated per second of run; the loop cycles
/// through them if it outruns the estimate.
const STUDIES_PER_S: f64 = 25.0;

/// A started cluster, warmed by one full round of outstanding studies.
fn start(workers: usize, warm: &[CtVolume]) -> Result<ServeCluster, String> {
    let cluster = ServeCluster::start(
        ClusterCfg {
            workers,
            ..ClusterCfg::default()
        },
        common::framework,
    )
    .map_err(|e| format!("cluster start: {e}"))?;
    let client = cluster.client();
    let pending: Vec<_> = warm
        .iter()
        .enumerate()
        .map(|(i, v)| client.submit(u64::MAX - i as u64, ServeRequest::routine(v.hu.clone())))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("warm-up rejected: {e:?}"))?;
    for p in pending {
        p.wait()
            .ok_or("warm-up dropped")?
            .result
            .map_err(|e| format!("warm-up failed: {e}"))?;
    }
    Ok(cluster)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Xorshift::new(ctx.seed);
    let warm = studies(&mut rng, THREADS * PER_THREAD, ctx.scale.study)?;

    let mut setups = Vec::new();
    let mut cluster: Option<ServeCluster> = None;
    for k in 0..SETUPS {
        if let Some(old) = cluster.take() {
            old.shutdown();
        }
        let t0 = if k == 0 { ctx.t_proc } else { Instant::now() };
        cluster = Some(start(2, &warm)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let cluster = cluster.ok_or("no cluster")?;

    let count = (ctx.seconds * STUDIES_PER_S).ceil() as usize;
    let vols = studies(&mut rng, count, ctx.scale.study)?;
    let seconds = Duration::from_secs_f64(ctx.pass_seconds());

    let plain = pass(&cluster, &vols, ctx.scale.lead_in, seconds, false, &mut out);
    check_against_direct(
        "cluster_closed",
        &plain.answered,
        &vols,
        ctx.tamper,
        &mut out,
    )?;
    let tput = plain.throughput();
    out.e2e("setup_s", "s", median_of("setup", &setups)?);
    out.e2e("peak_rss_mb", "MiB", common::peak_rss_mb()?);
    out.e2e(
        "op_p50_ms",
        "ms",
        percentile_of("study latency", &plain.lat_ms, 50.0)?,
    );
    out.e2e("ops_per_s", "1/s", tput);
    out.notes.push(format!(
        "cluster_closed: {} studies outstanding on 2 workers, {} answered in {:.2} s after {} s lead-in; p95 {:.1} ms ({} beyond p95; highest supported percentile p{:?})",
        THREADS * PER_THREAD,
        plain.lat_ms.len(),
        plain.elapsed.as_secs_f64(),
        ctx.scale.lead_in.as_secs_f64(),
        percentile_of("study latency", &plain.lat_ms, 95.0)?,
        stats::beyond(plain.lat_ms.len(), 95.0),
        stats::highest_supported_percentile(plain.lat_ms.len()),
    ));
    out.notes.push(spread_note("setup_s", "s", &setups));

    if ctx.trace {
        let traced = pass(&cluster, &vols, ctx.scale.lead_in, seconds, true, &mut out);
        out.layer(
            "bench.trace_overhead_pct",
            "%",
            overhead_pct(tput, traced.throughput(), false),
        );
        out.tracer = Some(traced.tracer);
    }
    cluster.shutdown();
    Ok(out)
}

/// The cluster layer: a fresh two-worker cluster, then a one-worker one,
/// each under the workload's closed loop for `ctx.scale.layer_pass`
/// (`cluster.*`).
pub fn layers(
    ctx: &Ctx,
    rng: &mut Xorshift,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let warm = studies(rng, THREADS * PER_THREAD, ctx.scale.study)?;
    let vols = studies(
        rng,
        (ctx.scale.layer_pass.as_secs_f64() * STUDIES_PER_S).ceil() as usize,
        ctx.scale.study,
    )?;
    let mut throughput = Vec::new();
    for workers in [2, 1] {
        let cluster = start(workers, &warm)?;
        let before = cluster.metrics().snapshot();
        let p = pass(
            &cluster,
            &vols,
            Duration::ZERO,
            ctx.scale.layer_pass,
            workers == 2,
            out,
        );
        let after = cluster.metrics().snapshot();
        cluster.shutdown();
        throughput.push(p.throughput());
        if workers == 1 {
            continue;
        }
        out.layer(
            "cluster.overhead_p50_ms",
            "ms",
            median_of("overhead", &p.overhead_ms)?,
        );
        // Dispatch frames per answered study: 1 when no request is
        // re-dispatched (the useful/attempt ratio, inverted).
        let completed = (after.completed - before.completed).max(1);
        out.layer(
            "cluster.dispatched_per_study",
            "ratio",
            (after.dispatched - before.dispatched) as f64 / completed as f64,
        );
        out.layer("cluster.inflight_max", "studies", after.inflight_max as f64);
        tracer.absorb(p.tracer);
        out.layer(
            "cluster.admit_us",
            "us",
            median_of("cluster.submit", &tracer.secs("cluster.submit"))? * 1e6,
        );
    }
    out.layer(
        "cluster.scaling_2v1",
        "ratio",
        throughput[0] / throughput[1],
    );
    Ok(())
}

/// What one closed-loop pass saw.
struct Pass {
    /// Latency from submit of every answered study.
    lat_ms: Vec<f64>,
    /// `(study index, diagnosis)` of every answered study, by index.
    answered: Vec<(usize, Diagnosis)>,
    /// Latency from submit minus queue wait and `t_total`.
    overhead_ms: Vec<f64>,
    /// Answers after the lead-in.
    answers: usize,
    /// End of the lead-in to the last answer.
    elapsed: Duration,
    tracer: Tracer,
}

impl Pass {
    fn throughput(&self) -> f64 {
        self.answers as f64 / self.elapsed.as_secs_f64()
    }
}

/// Keep [`PER_THREAD`] studies outstanding from each of [`THREADS`]
/// threads for `lead_in`, then until `seconds` more have passed; then
/// drain. Latencies are of studies submitted after the lead-in,
/// throughput is of answers after it.
fn pass(
    cluster: &ServeCluster,
    vols: &[CtVolume],
    lead_in: Duration,
    seconds: Duration,
    traced: bool,
    out: &mut Outcome,
) -> Pass {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let measured = start + lead_in;
    let results: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let client = cluster.client();
                let next = &next;
                s.spawn(move || {
                    let mut tracer = Tracer::new(start, traced);
                    let (mut inflight, mut done, mut rejected) = (Vec::new(), Vec::new(), 0u64);
                    loop {
                        let time_up = measured.elapsed() >= seconds;
                        while !time_up && inflight.len() < PER_THREAD {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let req = ServeRequest::routine(vols[i % vols.len()].hu.clone());
                            let t0 = Instant::now();
                            let admitted = client.submit(i as u64, req);
                            let t1 = Instant::now();
                            match admitted {
                                Ok(p) => inflight.push(((i, t0, t1), p)),
                                Err(_) => rejected += 1,
                            }
                        }
                        if time_up && inflight.is_empty() {
                            return (done, rejected, tracer);
                        }
                        for r in poll(&mut inflight) {
                            let (i, t0, t1) = r.tag;
                            let op = tracer.record("cluster.op", t0, r.at, None, i as u64);
                            tracer.record("cluster.submit", t0, t1, op, i as u64);
                            tracer.record("cluster.wait", t1, r.at, op, i as u64);
                            done.push((i, t0, r.response, r.at));
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("generator thread"))
            .collect()
    });

    let mut p = Pass {
        lat_ms: vec![],
        answered: vec![],
        overhead_ms: vec![],
        answers: 0,
        elapsed: Duration::ZERO,
        tracer: Tracer::new(start, traced),
    };
    for (done, rejected, tracer) in results {
        out.attempted += rejected;
        out.failed += rejected;
        p.tracer.absorb(tracer);
        for (i, t0, response, at) in done {
            out.attempted += 1;
            match response.map(|r| r.result) {
                Some(Ok(d)) => {
                    if at > measured {
                        p.answers += 1;
                        p.elapsed = p.elapsed.max(at - measured);
                    }
                    if t0 >= measured {
                        p.lat_ms.push(ms(at - t0));
                        p.overhead_ms
                            .push(ms(at - t0) - ms(d.t_queue) - ms(d.t_total));
                        p.answered.push((i % vols.len(), d));
                    }
                }
                _ => out.failed += 1,
            }
        }
    }
    p.answered.sort_by_key(|(i, _)| *i);
    p
}
