//! `slice512`: single-threaded offline enhancement of 512² slices with
//! the paper's DDnet through `Framework::run_enhance` — the paper's
//! headline seconds per slice (Tables 4/5/7). The conv engine does
//! nearly all the work; serve, cluster and monitor do none.

use std::time::Instant;

use cc19_data::prep::normalize_for_enhancement;
use cc19_data::volume::CtVolume;
use cc19_ddnet::{Ddnet, DdnetConfig};
use cc19_kernels::conv::{conv2d_with, ConvShape};
use cc19_kernels::count::conv_layer_counts;
use cc19_kernels::deconv::deconv2d_with;
use cc19_kernels::{run_ddnet_inference, simd, DdnetShape, KernelTimes, OptLevel};
use cc19_tensor::conv::Conv2dSpec;
use cc19_tensor::conv_backend::{conv2d_dispatch, conv_transpose2d_dispatch, ConvBackend};
use cc19_tensor::gemm::sgemm;
use cc19_tensor::rng::Xorshift;
use cc19_tensor::Tensor;
use computecovid19::framework::{Framework, Scratch};

use crate::common::{
    self, median_of, overhead_pct, severity, spread_note, study_meta, Ctx, Outcome, MODEL_SEED,
};
use crate::trace::Tracer;

/// Largest absolute difference allowed between a served slice and the
/// set-up reference from `Ddnet::enhance`, on the `[0, 1]` output scale.
/// Both run the same forward today and agree exactly; the tolerance
/// leaves room for a reordered but equivalent inference engine.
pub const TOLERANCE: f32 = 1e-4;

/// The paper's Xeon seconds per 512² slice (Table 4).
const PAPER_XEON_S: f64 = 1.64;

/// The kernel-ladder stage the ceiling is measured at.
const LADDER: OptLevel = OptLevel::RefactoredPrefetchUnrolled;

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let n = ctx.scale.slice_n;

    // Set-up: the model, one phantom slice, and the reference output,
    // whose `Ddnet::enhance` call is also the warm-up that pays lazy
    // initialisation.
    let fw = paper_framework();
    let net = fw.enhancer.as_ref().ok_or("framework has no enhancer")?;
    let mut rng = Xorshift::new(ctx.seed);
    let vol = slice(&mut rng, n)?;
    let mut reference = net
        .enhance(&normalize_for_enhancement(&vol.slice(0), fw.prep))
        .map_err(|e| format!("reference enhance: {e}"))?;
    let setup_s = ctx.t_proc.elapsed().as_secs_f64();
    if ctx.tamper {
        reference.data_mut()[0] += 1.0;
    }

    let mut plain = Tracer::new(Instant::now(), false);
    let (slice_s, elapsed_s) = pass(ctx, &fw, &vol, &reference, &mut plain, &mut out);
    let slice_med = median_of("slice_s", &slice_s)?;
    out.e2e("setup_s", "s", setup_s);
    out.e2e("peak_rss_mb", "MiB", common::peak_rss_mb()?);
    out.e2e("op_p50_ms", "ms", slice_med * 1e3);
    out.e2e("ops_per_s", "1/s", slice_s.len() as f64 / elapsed_s);
    out.notes.push(format!(
        "{} (paper Xeon: {PAPER_XEON_S} s/slice)",
        spread_note("slice_s", "s", &slice_s)
    ));

    if !ctx.trace {
        // The kernel-ladder ceiling beside the serving engine's figure;
        // a traced run measures it in the layer sweep instead.
        let ladder = ladder(ctx);
        out.notes.push(format!(
            "kernels.ddnet512_s: {:.4} s (conv {:.4} / deconv {:.4} / other {:.4}) on the {} ladder — bench-only, not the serving path",
            ladder.total().as_secs_f64(),
            ladder.conv.as_secs_f64(),
            ladder.deconv.as_secs_f64(),
            ladder.other.as_secs_f64(),
            simd::detected().tag(),
        ));
        return Ok(out);
    }
    let mut tracer = Tracer::new(Instant::now(), true);
    let (traced, _) = pass(ctx, &fw, &vol, &reference, &mut tracer, &mut out);
    out.layer(
        "bench.trace_overhead_pct",
        "%",
        overhead_pct(slice_med, median_of("traced slice_s", &traced)?, true),
    );
    out.tracer = Some(tracer);
    Ok(out)
}

/// The pipeline with the paper's DDnet as its enhancer.
fn paper_framework() -> Framework {
    Framework {
        enhancer: Some(Ddnet::new(DdnetConfig::paper(), MODEL_SEED)),
        ..common::framework()
    }
}

/// One `n`×`n` phantom slice.
fn slice(rng: &mut Xorshift, n: usize) -> Result<CtVolume, String> {
    let meta = study_meta(rng.next_u64() >> 16, true, severity(rng), 1);
    CtVolume::synthesize(&meta, n, 1).map_err(|e| format!("synthesize: {e}"))
}

/// The paper DDnet at the probe extent on the kernel ladder.
fn ladder(ctx: &Ctx) -> KernelTimes {
    run_ddnet_inference(
        DdnetShape {
            n: ctx.scale.conv_n,
            ..DdnetShape::paper()
        },
        LADDER,
        ctx.seed,
    )
}

/// The engine's layers: one warm `Framework::run_enhance` of a
/// paper-DDnet slice beside the `cc19-tensor` dispatch time of its conv
/// and deconv layers (`ddnet.*`), and the tensor and kernel-ladder probes
/// (`tensor.*`, `kernels.*`).
pub fn layers(
    ctx: &Ctx,
    rng: &mut Xorshift,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let fw = paper_framework();
    let net = fw.enhancer.as_ref().ok_or("framework has no enhancer")?;
    let vol = slice(rng, ctx.scale.slice_n)?;
    let mut scratch = Scratch::new();
    // Unmeasured first call: pays lazy initialisation.
    let warm = fw
        .run_enhance(&vol.hu, &mut scratch)
        .map_err(|e| format!("run_enhance: {e}"))?;
    scratch.recycle(warm.unit);
    let enhanced = tracer.time("ddnet.run_enhance", None, 0, || {
        fw.run_enhance(&vol.hu, &mut scratch)
    });
    scratch.recycle(enhanced.map_err(|e| format!("run_enhance: {e}"))?.unit);
    ddnet_layers(net, ctx.scale.slice_n, rng, tracer)?;
    tensor_probes(ctx, rng, tracer)?;
    kernel_probes(ctx, rng, tracer);
    let timings = tracer.time("kernels.run_ddnet_inference", None, 0, || ladder(ctx));

    let sum = |name: &str| tracer.secs(name).iter().sum::<f64>();
    let (conv_s, deconv_s) = (sum("ddnet.conv_layer"), sum("ddnet.deconv_layer"));
    out.layer("ddnet.conv_s", "s", conv_s);
    out.layer("ddnet.deconv_s", "s", deconv_s);
    let enhance_s = sum("ddnet.run_enhance");
    out.layer("ddnet.enhance_s", "s", enhance_s);
    // The rest of the slice is a difference of separately timed calls,
    // which host noise can push below zero, so it is a note only.
    out.notes.push(format!(
        "ddnet split: enhance {enhance_s:.4} s = conv {conv_s:.4} + deconv {deconv_s:.4} + other {:.4} s",
        enhance_s - conv_s - deconv_s
    ));
    let gflops = |name: &str, flops: f64| -> Result<f64, String> {
        Ok(flops / median_of(name, &tracer.secs(name))? * 1e-9)
    };
    let (g, c) = (ctx.scale.gemm_n as f64, ctx.scale.conv_n as u64);
    let conv_flops = conv_layer_counts(c, c, 16, 16, 5).flops as f64;
    out.layer(
        "tensor.gemm_gflops",
        "GFLOP/s",
        gflops("tensor.sgemm", 2.0 * g * g * g)?,
    );
    out.layer(
        "tensor.conv5x5_gflops",
        "GFLOP/s",
        gflops("tensor.conv2d_dispatch", conv_flops)?,
    );
    out.layer(
        "tensor.deconv5x5_gflops",
        "GFLOP/s",
        gflops("tensor.conv_transpose2d_dispatch", conv_flops)?,
    );
    out.layer(
        "kernels.conv5x5_gflops",
        "GFLOP/s",
        gflops("kernels.conv2d", conv_flops)?,
    );
    out.layer(
        "kernels.deconv5x5_gflops",
        "GFLOP/s",
        gflops("kernels.deconv2d", conv_flops)?,
    );
    out.layer(
        "kernels.ddnet512_s",
        "s",
        sum("kernels.run_ddnet_inference"),
    );
    out.layer("kernels.ddnet512.conv_s", "s", timings.conv.as_secs_f64());
    out.layer(
        "kernels.ddnet512.deconv_s",
        "s",
        timings.deconv.as_secs_f64(),
    );
    out.layer("kernels.ddnet512.other_s", "s", timings.other.as_secs_f64());
    Ok(())
}

/// Enhance the slice again and again for `ctx.pass_seconds()` (and at
/// least `min_slices` times, once in a traced run); returns seconds per
/// slice of each call and the seconds the pass took.
fn pass(
    ctx: &Ctx,
    fw: &Framework,
    vol: &CtVolume,
    reference: &Tensor,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<f64>, f64) {
    let mut scratch = Scratch::new();
    let mut per_slice = Vec::new();
    let t0 = Instant::now();
    let min_slices = if ctx.trace { 1 } else { ctx.scale.min_slices };
    let mut op = 0;
    while (op as usize) < min_slices || t0.elapsed().as_secs_f64() < ctx.pass_seconds() {
        let start = Instant::now();
        let result = fw.run_enhance(&vol.hu, &mut scratch);
        let end = Instant::now();
        tracer.record("pipeline.run_enhance", start, end, None, op);
        out.attempted += 1;
        match result {
            Ok(enh) => {
                per_slice.push((end - start).as_secs_f64() / vol.slices() as f64);
                if let Some(why) = compare(enh.unit.data(), reference.data()) {
                    out.mismatch(format!("slice512 op {op}: {why}"));
                }
                scratch.recycle(enh.unit);
            }
            Err(_) => out.failed += 1,
        }
        op += 1;
    }
    (per_slice, t0.elapsed().as_secs_f64())
}

/// Why `got` does not match `want` within [`TOLERANCE`], if it does not.
pub fn compare(got: &[f32], want: &[f32]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} values, expected {}", got.len(), want.len()));
    }
    if let Some(i) = got.iter().position(|v| !v.is_finite()) {
        return Some(format!("non-finite value at {i}"));
    }
    let worst = got
        .iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    (worst > TOLERANCE).then(|| format!("max |diff| {worst} > {TOLERANCE}"))
}

/// One conv or deconv layer of the paper DDnet at the probe extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerShape {
    /// Transposed convolution.
    pub deconv: bool,
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Square filter extent.
    pub k: usize,
    /// Spatial extent.
    pub r: usize,
}

/// Every conv and deconv layer shape of `net` on an `n`×`n` input, walked
/// from the architecture table `Ddnet::layer_table` audits.
pub fn layer_shapes(net: &Ddnet, n: usize) -> Result<Vec<LayerShape>, String> {
    let cfg = net.cfg;
    let mut shapes = Vec::new();
    let mut prev_c = 1;
    for row in net.layer_table(n) {
        let (r, _, c) = row.output;
        let k = row
            .detail
            .split("size=")
            .nth(1)
            .and_then(|s| s.split('x').next())
            .and_then(|s| s.trim_start_matches('[').parse::<usize>().ok());
        let name = row.layer.as_str();
        if name.starts_with("Dense Block") {
            for j in 0..cfg.per_block {
                let cin = prev_c + j * cfg.growth;
                shapes.push(LayerShape {
                    deconv: false,
                    cin,
                    cout: cfg.growth,
                    k: 1,
                    r,
                });
                shapes.push(LayerShape {
                    deconv: false,
                    cin: cfg.growth,
                    cout: cfg.growth,
                    k: 5,
                    r,
                });
            }
        } else if name.starts_with("Convolution") {
            let k = k.ok_or_else(|| format!("no filter size in {row:?}"))?;
            shapes.push(LayerShape {
                deconv: false,
                cin: prev_c,
                cout: c,
                k,
                r,
            });
        } else if name.starts_with("Deconvolution") {
            let k = k.ok_or_else(|| format!("no filter size in {row:?}"))?;
            // The "b" deconvolution reads the "a" output concatenated
            // with the encoder skip (base channels).
            let cin = if name.ends_with('b') && !cfg.no_global_shortcuts {
                prev_c + cfg.base
            } else {
                prev_c
            };
            shapes.push(LayerShape {
                deconv: true,
                cin,
                cout: c,
                k,
                r,
            });
        }
        prev_c = c;
    }
    let convs = shapes.iter().filter(|s| !s.deconv).count();
    if convs != net.conv_layer_count() || shapes.len() - convs != net.deconv_layer_count() {
        return Err(format!(
            "layer walk found {convs} conv / {} deconv layers, the model has {} / {}",
            shapes.len() - convs,
            net.conv_layer_count(),
            net.deconv_layer_count()
        ));
    }
    Ok(shapes)
}

/// Time the `cc19-tensor` dispatch call of every conv and deconv layer
/// of `net` at `n`×`n` once, as `ddnet.conv_layer` / `ddnet.deconv_layer`
/// spans under one `ddnet.layers` span.
fn ddnet_layers(
    net: &Ddnet,
    n: usize,
    rng: &mut Xorshift,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut spans = Vec::new();
    for (op, s) in layer_shapes(net, n)?.into_iter().enumerate() {
        let input = rng.uniform_tensor([1, s.cin, s.r, s.r], 0.0, 1.0);
        let wdims = if s.deconv {
            [s.cin, s.cout, s.k, s.k]
        } else {
            [s.cout, s.cin, s.k, s.k]
        };
        let weight = rng.uniform_tensor(wdims, -0.1, 0.1);
        let bias = rng.uniform_tensor([s.cout], -0.1, 0.1);
        let spec = Conv2dSpec {
            stride: 1,
            padding: s.k / 2,
        };
        let start = Instant::now();
        let y = if s.deconv {
            conv_transpose2d_dispatch(ConvBackend::Auto, &input, &weight, Some(&bias), spec)
        } else {
            conv2d_dispatch(ConvBackend::Auto, &input, &weight, Some(&bias), spec)
        }
        .map_err(|e| format!("layer {s:?}: {e}"))?;
        let end = Instant::now();
        std::hint::black_box(y);
        let name = if s.deconv {
            "ddnet.deconv_layer"
        } else {
            "ddnet.conv_layer"
        };
        spans.push((name, start, end, op as u64));
    }
    let root = tracer.record("ddnet.layers", t0, Instant::now(), None, 0);
    for (name, start, end, op) in spans {
        tracer.record(name, start, end, root, op);
    }
    Ok(())
}

/// SGEMM and the default-dispatch 16→16 5×5 conv / deconv of `cc19-tensor`.
fn tensor_probes(ctx: &Ctx, rng: &mut Xorshift, tracer: &mut Tracer) -> Result<(), String> {
    let g = ctx.scale.gemm_n;
    let a = rng.uniform_tensor([g, g], -1.0, 1.0);
    let b = rng.uniform_tensor([g, g], -1.0, 1.0);
    let mut c = vec![0.0f32; g * g];
    for op in 0..ctx.scale.probe_reps as u64 {
        c.fill(0.0);
        tracer.time("tensor.sgemm", None, op, || {
            sgemm(false, false, g, g, g, a.data(), b.data(), &mut c)
        });
        std::hint::black_box(&c);
    }
    let n = ctx.scale.conv_n;
    let input = rng.uniform_tensor([1, 16, n, n], 0.0, 1.0);
    let weight = rng.uniform_tensor([16, 16, 5, 5], -0.1, 0.1);
    let bias = rng.uniform_tensor([16], -0.1, 0.1);
    let spec = Conv2dSpec {
        stride: 1,
        padding: 2,
    };
    for op in 0..conv_reps(ctx) {
        let y = tracer.time("tensor.conv2d_dispatch", None, op, || {
            conv2d_dispatch(ConvBackend::Auto, &input, &weight, Some(&bias), spec)
        });
        std::hint::black_box(y.map_err(|e| format!("conv2d probe: {e}"))?);
        let y = tracer.time("tensor.conv_transpose2d_dispatch", None, op, || {
            conv_transpose2d_dispatch(ConvBackend::Auto, &input, &weight, Some(&bias), spec)
        });
        std::hint::black_box(y.map_err(|e| format!("deconv probe: {e}"))?);
    }
    Ok(())
}

/// The LU-stage 16→16 5×5 conv / deconv of the kernel ladder at the
/// detected SIMD level.
fn kernel_probes(ctx: &Ctx, rng: &mut Xorshift, tracer: &mut Tracer) {
    let n = ctx.scale.conv_n;
    let s = ConvShape {
        cin: 16,
        cout: 16,
        h: n,
        w: n,
        k: 5,
        pad: 2,
    };
    let mut vals = |len: usize| {
        (0..len)
            .map(|_| rng.uniform(-0.1, 0.1))
            .collect::<Vec<f32>>()
    };
    let (input, weight, bias) = (vals(s.in_len()), vals(16 * 16 * 25), vals(16));
    let level = simd::detected();
    for op in 0..conv_reps(ctx) {
        let y = tracer.time("kernels.conv2d", None, op, || {
            conv2d_with(LADDER, level, &input, &weight, &bias, s)
        });
        std::hint::black_box(y);
        let y = tracer.time("kernels.deconv2d", None, op, || {
            deconv2d_with(LADDER, level, &input, &weight, &bias, s)
        });
        std::hint::black_box(y);
    }
}

/// Repeats of the 512² conv probes: each takes up to seconds.
fn conv_reps(ctx: &Ctx) -> u64 {
    ctx.scale.probe_reps.min(2) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ddnet_has_37_conv_and_8_deconv_shapes() {
        let net = Ddnet::new(DdnetConfig::paper(), 1);
        let shapes = layer_shapes(&net, 512).unwrap();
        assert_eq!(shapes.len(), 45);
        assert_eq!(
            shapes[0],
            LayerShape {
                deconv: false,
                cin: 1,
                cout: 16,
                k: 7,
                r: 512
            }
        );
        // first dense layer of block 1, its 5×5, the last 1×1 of block 4
        assert_eq!(
            shapes[1],
            LayerShape {
                deconv: false,
                cin: 16,
                cout: 16,
                k: 1,
                r: 256
            }
        );
        assert_eq!(
            shapes[2],
            LayerShape {
                deconv: false,
                cin: 16,
                cout: 16,
                k: 5,
                r: 256
            }
        );
        assert_eq!(
            shapes[9],
            LayerShape {
                deconv: false,
                cin: 80,
                cout: 16,
                k: 1,
                r: 256
            }
        );
        let last = shapes[44];
        assert_eq!(
            last,
            LayerShape {
                deconv: true,
                cin: 48,
                cout: 1,
                k: 1,
                r: 512
            }
        );
        assert_eq!(
            shapes[43],
            LayerShape {
                deconv: true,
                cin: 16,
                cout: 32,
                k: 5,
                r: 512
            }
        );
    }

    #[test]
    fn compare_flags_drift_and_non_finite_values() {
        assert_eq!(compare(&[0.5, 0.25], &[0.5, 0.25]), None);
        assert_eq!(compare(&[0.5, 0.25 + TOLERANCE / 2.0], &[0.5, 0.25]), None);
        assert!(compare(&[0.5, 0.3], &[0.5, 0.25]).is_some());
        assert!(compare(&[f32::NAN, 0.25], &[0.5, 0.25]).is_some());
        assert!(compare(&[0.5], &[0.5, 0.25]).is_some());
    }
}
