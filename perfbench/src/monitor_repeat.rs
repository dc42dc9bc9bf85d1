//! `monitor_repeat`: longitudinal series through
//! `PatientSeries::add_scan_clustered` on a two-worker cluster, one scan
//! in flight at a time. About half the submissions re-read an earlier
//! scan, and each series' cache holds about half of its patient's
//! distinct studies, so some re-reads arrive after LRU eviction: the
//! cache serves hits beside misses that compute and insert, over a
//! working set larger than the cache.

use std::sync::Arc;
use std::time::Instant;

use cc19_data::progression::progression_series;
use cc19_data::volume::CtVolume;
use cc19_data::ProgressionCourse;
use cc19_monitor::burden::quantify_masked;
use cc19_monitor::digest::{volume_digest, weights_digest};
use cc19_monitor::{LesionBurden, PatientSeries, Provenance, ScanRecord};
use cc19_obs::Registry;
use cc19_serve::{ClusterCfg, ClusterClient, ServeCluster, ServeRequest};
use cc19_tensor::rng::Xorshift;
use computecovid19::framework::Scratch;

use crate::common::{
    self, median_of, overhead_pct, severity, spread_note, Ctx, Outcome, THRESHOLD,
};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Patients generated per second of run; each takes about two seconds.
const PATIENTS_PER_S: f64 = 1.5;

/// One patient's inputs and the cache behaviour they must produce.
pub struct Patient {
    /// The distinct timepoint scans.
    pub vols: Vec<CtVolume>,
    /// Submission order, as indices into `vols`.
    pub steps: Vec<usize>,
    /// Whether each submission must be a cache hit.
    pub hits: Vec<bool>,
    /// Evictions after each submission, cumulative.
    pub evictions: Vec<u64>,
}

/// A submission order over `timepoints` scans: every scan once in
/// acquisition order, interleaved with re-reads of earlier scans so that
/// `len - timepoints` submissions are re-reads.
pub fn schedule(rng: &mut Xorshift, timepoints: usize, len: usize) -> Vec<usize> {
    let mut steps = Vec::with_capacity(len);
    let mut next = 0;
    while steps.len() < len {
        let left = len - steps.len();
        let must_new = left == timepoints - next;
        if next < timepoints && (next == 0 || must_new || rng.next_u64() & 1 == 0) {
            steps.push(next);
            next += 1;
        } else {
            steps.push((rng.next_u64() % next as u64) as usize);
        }
    }
    steps
}

/// The hits and cumulative evictions an LRU cache of `capacity`
/// entries yields on `steps`.
pub fn simulate_lru(steps: &[usize], capacity: usize) -> (Vec<bool>, Vec<u64>) {
    let mut lru: Vec<usize> = Vec::new(); // most recent last
    let (mut hits, mut evictions, mut evicted) = (Vec::new(), Vec::new(), 0u64);
    for &s in steps {
        let hit = lru.iter().position(|&e| e == s);
        if let Some(at) = hit {
            lru.remove(at);
        }
        lru.push(s);
        if lru.len() > capacity {
            lru.remove(0);
            evicted += 1;
        }
        hits.push(hit.is_some());
        evictions.push(evicted);
    }
    (hits, evictions)
}

/// A [`schedule`] whose re-reads are two-thirds cache hits and one third
/// misses after eviction, under a cache of half the timepoints, with its
/// [`simulate_lru`] hits and evictions. Every patient gets the same mix,
/// so the share of hits (and so `scans_per_s`) does not vary with the
/// seed.
pub fn plan(
    rng: &mut Xorshift,
    timepoints: usize,
    len: usize,
) -> (Vec<usize>, Vec<bool>, Vec<u64>) {
    let want = (len - timepoints) * 2 / 3;
    loop {
        let steps = schedule(rng, timepoints, len);
        let (hits, evictions) = simulate_lru(&steps, timepoints / 2);
        if hits.iter().filter(|&&h| h).count() == want {
            return (steps, hits, evictions);
        }
    }
}

/// Cache budget holding `capacity` studies of `dims` (enhanced volume
/// plus mask, f32 each).
pub fn budget(dims: [usize; 3], capacity: usize) -> usize {
    capacity * 2 * dims.iter().product::<usize>() * std::mem::size_of::<f32>()
}

fn patients(ctx: &Ctx, rng: &mut Xorshift, count: usize) -> Result<Vec<Patient>, String> {
    let [d, n, _] = ctx.scale.study;
    let t = ctx.scale.timepoints;
    (0..count)
        .map(|_| {
            let id = rng.next_u64() >> 16;
            let course = if rng.next_u64() & 1 == 0 {
                ProgressionCourse::worsening(t)
            } else {
                ProgressionCourse::recovering(t)
            };
            let vols = progression_series(id, &course, n, d, severity(rng))
                .map_err(|e| format!("progression: {e}"))?;
            let (steps, hits, evictions) = plan(rng, t, ctx.scale.scans_per_patient);
            Ok(Patient {
                vols,
                steps,
                hits,
                evictions,
            })
        })
        .collect()
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Xorshift::new(ctx.seed);
    let warm = patients(ctx, &mut rng, 1)?;
    let cache_bytes = budget(ctx.scale.study, ctx.scale.timepoints / 2);
    let cfg = || ClusterCfg {
        workers: 2,
        ..ClusterCfg::default()
    };

    let mut setups = Vec::new();
    let mut cluster: Option<ServeCluster> = None;
    for k in 0..SETUPS {
        if let Some(old) = cluster.take() {
            old.shutdown();
        }
        let t0 = if k == 0 { ctx.t_proc } else { Instant::now() };
        let c = ServeCluster::start(cfg(), common::framework)
            .map_err(|e| format!("cluster start: {e}"))?;
        let mut series = PatientSeries::with_registry(
            common::framework(),
            THRESHOLD,
            cache_bytes,
            Arc::new(Registry::new()),
        );
        series
            .add_scan_clustered("warm-up", &warm[0].vols[0], &c.client())
            .map_err(|e| format!("warm-up: {e}"))?;
        setups.push(t0.elapsed().as_secs_f64());
        cluster = Some(c);
    }
    let cluster = cluster.ok_or("no cluster")?;
    let client = cluster.client();

    let count = ((ctx.seconds * PATIENTS_PER_S).ceil() as usize).max(2);
    let mut pts = patients(ctx, &mut rng, count)?;
    if ctx.tamper {
        pts[0].hits[0] = !pts[0].hits[0];
    }

    let plain = pass(
        ctx.pass_seconds(),
        &pts,
        &client,
        cache_bytes,
        false,
        &mut out,
    );
    let latencies = |hit: bool| -> Vec<f64> {
        plain
            .scans
            .iter()
            .filter(|s| s.0 == hit)
            .map(|s| s.1)
            .collect()
    };
    let all: Vec<f64> = plain.scans.iter().map(|s| s.1).collect();
    let scans_per_s = plain.scans.len() as f64 / plain.elapsed_s;
    out.e2e("setup_s", "s", median_of("setup", &setups)?);
    out.e2e("peak_rss_mb", "MiB", common::peak_rss_mb()?);
    out.e2e("op_p50_ms", "ms", median_of("scan latency", &all)?);
    out.e2e("ops_per_s", "1/s", scans_per_s);
    out.notes.push(format!(
        "monitor_repeat: {} scans of {} patients in {:.2} s, {} hits / {} misses / {} evictions; cache holds {} of {} timepoints; hit p50 {:.3} ms, miss p50 {:.1} ms",
        plain.scans.len(),
        plain.patients,
        plain.elapsed_s,
        plain.stats.0,
        plain.stats.1,
        plain.stats.2,
        ctx.scale.timepoints / 2,
        ctx.scale.timepoints,
        median_of("hit latency", &latencies(true))?,
        median_of("miss latency", &latencies(false))?,
    ));
    out.notes.push(spread_note("setup_s", "s", &setups));

    if ctx.trace {
        let traced = pass(
            ctx.pass_seconds(),
            &pts,
            &client,
            cache_bytes,
            true,
            &mut out,
        );
        let traced_rate = traced.scans.len() as f64 / traced.elapsed_s;
        out.layer(
            "bench.trace_overhead_pct",
            "%",
            overhead_pct(scans_per_s, traced_rate, false),
        );
        out.tracer = Some(traced.tracer);
    }
    cluster.shutdown();
    Ok(out)
}

/// The monitoring layer: one patient's whole schedule on a fresh
/// two-worker cluster (`monitor.hit_ratio`, `monitor.evictions`), then
/// probes of its scans (digests, burden, local stages, remote diagnosis).
pub fn layers(
    ctx: &Ctx,
    rng: &mut Xorshift,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let pts = patients(ctx, rng, 1)?;
    let cache_bytes = budget(ctx.scale.study, ctx.scale.timepoints / 2);
    let cluster = ServeCluster::start(
        ClusterCfg {
            workers: 2,
            ..ClusterCfg::default()
        },
        common::framework,
    )
    .map_err(|e| format!("cluster start: {e}"))?;
    let client = cluster.client();
    let p = pass(f64::INFINITY, &pts, &client, cache_bytes, true, out);
    tracer.absorb(p.tracer);
    let (hits, misses, evictions) = p.stats;
    out.layer(
        "monitor.hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.layer("monitor.evictions", "count", evictions as f64);
    let probed = probes(ctx, &pts, &client, tracer, out);
    cluster.shutdown();
    probed
}

/// What one pass over the patients saw.
struct Pass {
    /// `(cache hit, latency ms)` of every successful scan.
    scans: Vec<(bool, f64)>,
    /// Patients started.
    patients: usize,
    elapsed_s: f64,
    /// Cache (hits, misses, evictions) over the pass.
    stats: (u64, u64, u64),
    tracer: Tracer,
}

/// Submit the patients' schedules for `seconds` (or until they are all
/// done) and check each series against its expected cache behaviour.
fn pass(
    seconds: f64,
    pts: &[Patient],
    client: &ClusterClient,
    cache_bytes: usize,
    traced: bool,
    out: &mut Outcome,
) -> Pass {
    let registry = Arc::new(Registry::new());
    let start = Instant::now();
    let mut p = Pass {
        scans: vec![],
        patients: 0,
        elapsed_s: 0.0,
        stats: (0, 0, 0),
        tracer: Tracer::new(start, traced),
    };
    let (mut want_hits, mut want_steps, mut want_evictions) = (0u64, 0u64, 0u64);
    let mut op = 0u64;
    let mut stats = (0, 0, 0);
    for (pi, pt) in pts.iter().enumerate() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        p.patients += 1;
        let mut series = PatientSeries::with_registry(
            common::framework(),
            THRESHOLD,
            cache_bytes,
            Arc::clone(&registry),
        );
        let (mut ok, mut last) = (Vec::new(), None);
        for (k, &t) in pt.steps.iter().enumerate() {
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let t0 = Instant::now();
            let result = series.add_scan_clustered(format!("p{pi}-t{t}"), &pt.vols[t], client);
            let t1 = Instant::now();
            out.attempted += 1;
            match result {
                Ok(report) => {
                    let hit = report.provenance == Provenance::CacheHit;
                    let name = if hit {
                        "monitor.scan_hit"
                    } else {
                        "monitor.scan_miss"
                    };
                    p.tracer.record(name, t0, t1, None, op);
                    p.scans.push((hit, (t1 - t0).as_secs_f64() * 1e3));
                    ok.push(k);
                }
                Err(_) => out.failed += 1,
            }
            want_steps += 1;
            want_hits += u64::from(pt.hits[k]);
            last = Some(k);
            op += 1;
        }
        want_evictions += last.map_or(0, |k| pt.evictions[k]);
        check_series(pi, pt, &ok, series.records(), out);
        // Every series counts on the pass's registry, so these are
        // totals over the pass.
        stats = series.cache().stats();
    }
    p.elapsed_s = start.elapsed().as_secs_f64();
    p.stats = stats;
    let want = (want_hits, want_steps - want_hits, want_evictions);
    if p.stats != want {
        out.mismatch(format!(
            "cache (hits, misses, evictions) {:?}, schedule says {want:?}",
            p.stats
        ));
    }
    p
}

/// Check one series: provenance follows the schedule, every hit replays
/// the computation it was cached from bit for bit (timings included),
/// and every recomputation after eviction reproduces the original
/// diagnosis and burden bit for bit.
fn check_series(pi: usize, pt: &Patient, ok: &[usize], records: &[ScanRecord], out: &mut Outcome) {
    let mut first: Vec<Option<&ScanRecord>> = vec![None; pt.vols.len()];
    let mut cached: Vec<Option<&ScanRecord>> = vec![None; pt.vols.len()];
    for (&k, rec) in ok.iter().zip(records) {
        let t = pt.steps[k];
        let hit = rec.provenance == Provenance::CacheHit;
        if hit != pt.hits[k] {
            out.mismatch(format!(
                "patient {pi} step {k}: cache hit {hit}, schedule says {}",
                pt.hits[k]
            ));
        }
        if !hit {
            cached[t] = Some(rec);
        }
        let orig = *first[t].get_or_insert(rec);
        let same_answer = rec.diagnosis.probability.to_bits()
            == orig.diagnosis.probability.to_bits()
            && rec.diagnosis.positive == orig.diagnosis.positive
            && same_burden(&rec.burden, &orig.burden)
            && rec.key == orig.key;
        let replayed = !hit || cached[t].is_some_and(|c| c.diagnosis == rec.diagnosis);
        if !(same_answer && replayed) {
            out.mismatch(format!(
                "patient {pi} step {k}: timepoint {t} ({}) gave {:?} {:?}, its first computation {:?} {:?}",
                rec.provenance.tag(),
                rec.diagnosis,
                rec.burden,
                orig.diagnosis,
                orig.burden
            ));
        }
    }
}

fn same_burden(a: &LesionBurden, b: &LesionBurden) -> bool {
    a.lung_ml.to_bits() == b.lung_ml.to_bits()
        && a.lesion_ml.to_bits() == b.lesion_ml.to_bits()
        && a.mean_lung_hu.to_bits() == b.mean_lung_hu.to_bits()
}

/// Per-layer probes on the first patients' scans: digests, burden, the
/// local enhance+segment stages and the remote diagnosis.
fn probes(
    ctx: &Ctx,
    pts: &[Patient],
    client: &ClusterClient,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let vols: Vec<&CtVolume> = pts
        .iter()
        .flat_map(|p| &p.vols)
        .take(ctx.scale.probe_reps)
        .collect();
    let fw = common::framework();
    let mut scratch = Scratch::new();
    for (op, vol) in vols.iter().enumerate() {
        let op = op as u64;
        std::hint::black_box(
            tracer.time("monitor.volume_digest", None, op, || volume_digest(&vol.hu)),
        );
        std::hint::black_box(
            tracer.time("monitor.weights_digest", None, op, || weights_digest(&fw)),
        );
        let capture = tracer.time("monitor.local_stages", None, op, || {
            let enh = fw.run_enhance(&vol.hu, &mut scratch)?;
            fw.run_segment_capturing(enh, &mut scratch)
        });
        let (seg, capture) = capture.map_err(|e| format!("local stages: {e}"))?;
        scratch.recycle(seg.masked);
        let burden = tracer.time("monitor.quantify_masked", None, op, || {
            quantify_masked(&capture.enhanced_hu, &capture.mask, vol.voxel_spacing())
        });
        std::hint::black_box(burden.map_err(|e| format!("burden: {e}"))?);
        let (id, req) = (
            volume_digest(&vol.hu),
            ServeRequest::routine(vol.hu.clone()),
        );
        let answer = tracer.time("monitor.remote_diagnose", None, op, || {
            client.submit(id, req).ok().and_then(|p| p.wait())
        });
        answer
            .ok_or("remote diagnosis dropped")?
            .result
            .map_err(|e| format!("remote diagnosis: {e}"))?;
    }
    let med = |name: &str, scale: f64| -> Result<f64, String> {
        Ok(median_of(name, &tracer.secs(name))? * scale)
    };
    out.layer(
        "monitor.volume_digest_us",
        "us",
        med("monitor.volume_digest", 1e6)?,
    );
    out.layer(
        "monitor.weights_digest_us",
        "us",
        med("monitor.weights_digest", 1e6)?,
    );
    out.layer(
        "monitor.burden_us",
        "us",
        med("monitor.quantify_masked", 1e6)?,
    );
    out.layer(
        "monitor.local_stages_ms",
        "ms",
        med("monitor.local_stages", 1e3)?,
    );
    out.layer(
        "monitor.remote_diagnose_ms",
        "ms",
        med("monitor.remote_diagnose", 1e3)?,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_submits_each_timepoint_once_in_order_plus_rereads() {
        for seed in 1..50 {
            let steps = schedule(&mut Xorshift::new(seed), 6, 12);
            assert_eq!(steps.len(), 12);
            let firsts: Vec<usize> = (0..6)
                .map(|t| steps.iter().position(|&s| s == t).unwrap())
                .collect();
            assert!(firsts.windows(2).all(|w| w[0] < w[1]), "{steps:?}");
            for (k, &s) in steps.iter().enumerate() {
                assert!(
                    s == 0 || steps[..k].contains(&(s - 1)),
                    "timepoint {s} before {}",
                    s - 1
                );
            }
        }
    }

    #[test]
    fn every_plan_has_the_same_mix() {
        let mut rng = Xorshift::new(3);
        for (t, len) in [(6, 12), (4, 8)] {
            for _ in 0..20 {
                let (steps, hits, evictions) = plan(&mut rng, t, len);
                assert_eq!(steps.len(), len);
                assert_eq!(hits.iter().filter(|&&h| h).count(), (len - t) * 2 / 3);
                assert_eq!(
                    *evictions.last().unwrap() as usize,
                    len - (len - t) * 2 / 3 - t / 2
                );
            }
        }
    }

    #[test]
    fn lru_simulation_counts_hits_and_evictions() {
        // capacity 2: 0 1 0 2 1 0 → miss miss hit miss(evict 1) miss(evict 0) miss(evict 2)
        let (hits, ev) = simulate_lru(&[0, 1, 0, 2, 1, 0], 2);
        assert_eq!(hits, vec![false, false, true, false, false, false]);
        assert_eq!(ev, vec![0, 0, 0, 1, 2, 3]);
        assert_eq!(budget([8, 64, 64], 3), 3 * 2 * 8 * 64 * 64 * 4);
    }
}
