//! The layer sweep of a traced run.
//!
//! Every traced run reports every per-layer metric, whichever workload it
//! measured, so after the workload's own traced pass the sweep measures
//! each layer with short probes of a fixed size: the engine (`ddnet.*`,
//! `tensor.*`, `kernels.*`), the pipeline stages (`pipeline.*`), and a
//! fresh server, cluster and patient series (`serve.*`, `cluster.*`,
//! `monitor.*`). Its inputs come from the run's seed.

use std::time::Instant;

use cc19_tensor::rng::Xorshift;

use crate::common::{self, studies, Ctx, Outcome};
use crate::trace::Tracer;
use crate::{cluster_closed, monitor_repeat, serve_open, slice512};

/// Separates the sweep's inputs from the workload's under one seed.
const SWEEP_SALT: u64 = 0x5eed_1a7e_0000_0001;

/// Measure every layer; the spans join the workload's traced pass.
pub fn sweep(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut tracer = out
        .tracer
        .take()
        .unwrap_or_else(|| Tracer::new(Instant::now(), true));
    let mut rng = Xorshift::new(ctx.seed ^ SWEEP_SALT);
    slice512::layers(ctx, &mut rng, &mut tracer, out)?;
    let vols = studies(&mut rng, ctx.scale.probe_reps, ctx.scale.study)?;
    common::stage_probes(&vols, &mut tracer, out)?;
    serve_open::layers(ctx, &mut rng, &mut tracer, out)?;
    cluster_closed::layers(ctx, &mut rng, &mut tracer, out)?;
    monitor_repeat::layers(ctx, &mut rng, &mut tracer, out)?;
    out.tracer = Some(tracer);
    Ok(())
}
