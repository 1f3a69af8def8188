//! `serve-int8` and `serve-http`: deployed Plain-20-ALF, width 16, 70%
//! of code filters clipped, served by 2 workers with micro-batches of up
//! to 8, under open-loop load at two fixed rates (`lo`, `hi`) and a rate
//! ladder.
//!
//! * `serve-int8` — an in-process `alf_serve::Server` at
//!   `Precision::Int8` (16 pool images calibrate it), one generator.
//! * `serve-http` — an `alf_net::NetServer` over loopback at f32; two
//!   pipelined keep-alive predict connections with one generator thread
//!   each, and a checkpoint POST of the served weights every second on a
//!   third connection.
//!
//! The traced run repeats the `lo` phase untraced for a baseline, then
//! runs `lo` and `hi` with queue sampling and request spans, and finally
//! times the layers on their own: `Replica::run_batch`,
//! `QuantizedModel::forward`, the deployed convolutions, `checkpoint::load`
//! and single closed-loop requests over HTTP and in process.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use alf_core::checkpoint;
use alf_core::deploy::{self, Pipeline, QuantSpec};
use alf_core::{CnnModel, QuantizedModel};
use alf_hwmodel::{alf_pair, Accelerator, ConvWorkload, Dataflow, Mapper, NetworkReport};
use alf_net::client::HttpClient;
use alf_net::{ModelSpec, NetConfig, NetServer};
use alf_nn::{Layer, RunCtx};
use alf_obs::json::JsonWriter;
use alf_obs::metrics::MetricsRegistry;
use alf_serve::{Precision, Replica, ServeConfig, Server};
use alf_tensor::ops::{gemm_i8_into, im2col_i8_into, Workspace};
use alf_tensor::rng::Rng;
use alf_tensor::Tensor;

use crate::common::{self, med, sub_seed, CHANNELS, IMAGE};
use crate::loadgen::{self, Arrival, HttpLoad, PhaseOut};
use crate::report::Report;
use crate::stats::{ladder_search, median, percentile, spearman};
use crate::trace::Tracer;
use crate::Args;

/// Which front end serves the load.
#[derive(Clone, Copy, PartialEq)]
pub enum Front {
    InProcess,
    Http,
}

const WIDTH: usize = 16;
const PRUNED_FRACTION: f64 = 0.7;
const WORKERS: usize = 2;
const MAX_BATCH: usize = 8;
const QUEUE_DEPTH: usize = 64;
const POOL: usize = 64;
const CALIB: usize = 16;
const HELD_OUT: usize = 128;
const MODEL: &str = "m";
const SWAP_PERIOD: Duration = Duration::from_secs(1);
/// Predict connections (and generator threads) of `serve-http`.
const HTTP_CONNS: usize = 2;
/// Rounds of the untraced serving run.
const ROUNDS: usize = 4;
/// Pipelined predicts per connection in the closed-loop capacity phase.
const HTTP_DEPTH: usize = 4;

/// Offered load of one serving workload. The rates were chosen once, at
/// about 30% and 70% of the capacity measured on a 2-core x86-64 host,
/// and are never recomputed from the program under test.
struct Load {
    lo: f64,
    hi: f64,
    /// p99 latency limit of a passing ladder rung, ms.
    p99_limit_ms: f64,
    /// Rates probed for `max_rate_img_s`, ascending.
    ladder: &'static [f64],
}

const INT8_LOAD: Load = Load {
    lo: 65.0,
    hi: 150.0,
    p99_limit_ms: 80.0,
    ladder: &[
        120.0, 140.0, 160.0, 180.0, 200.0, 220.0, 240.0, 260.0, 280.0, 300.0,
    ],
};

const HTTP_LOAD: Load = Load {
    lo: 40.0,
    hi: 90.0,
    p99_limit_ms: 100.0,
    ladder: &[
        60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0,
    ],
};

/// The seeded inputs and model forms, built once per set-up.
struct Inputs {
    pool: Vec<Tensor>,
    held_out: Tensor,
    calib: Tensor,
    deployed: CnnModel,
    deploy_ms: f64,
    /// Reference int8 engine (`serve-int8` only) and its lowering time.
    quantized: Option<(QuantizedModel, f64)>,
}

/// The server under load. Dropping it shuts it down and joins its
/// threads.
enum Running {
    InProcess(Server),
    Http {
        net: NetServer,
        registry: MetricsRegistry,
    },
}

impl Running {
    fn server(&self) -> &Server {
        match self {
            Running::InProcess(s) => s,
            Running::Http { net, .. } => net.router().server(MODEL).expect("served model"),
        }
    }
}

fn stack(images: &[Tensor]) -> Tensor {
    let mut data = Vec::with_capacity(images.len() * images[0].len());
    for img in images {
        data.extend_from_slice(img.data());
    }
    Tensor::from_vec(data, &[images.len(), CHANNELS, IMAGE, IMAGE]).expect("stack images")
}

fn serve_config(front: Front, calib: &Tensor) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        max_batch: MAX_BATCH,
        max_wait: Duration::from_millis(1),
        queue_depth: QUEUE_DEPTH,
        precision: match front {
            Front::InProcess => Precision::Int8(calib.clone()),
            Front::Http => Precision::F32,
        },
        ..ServeConfig::new(CHANNELS, IMAGE, IMAGE)
    }
}

fn setup(seed: u64, front: Front) -> (Inputs, Running) {
    let data = common::dataset(seed, POOL, HELD_OUT);
    let gather = |split, n: usize| -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                let (x, _) = data.gather(split, &[i]).expect("gather image");
                x.reshape(&[CHANNELS, IMAGE, IMAGE]).expect("one image")
            })
            .collect()
    };
    let pool = gather(alf_data::Split::Train, POOL);
    let held_out = stack(&gather(alf_data::Split::Test, HELD_OUT));
    let calib = stack(&pool[..CALIB]);
    let alf = common::serving_model(WIDTH, PRUNED_FRACTION);
    let t = Instant::now();
    let deployed = Pipeline::new().run(&alf).expect("deploy").model;
    let deploy_ms = common::ms(t.elapsed());
    let quantized = (front == Front::InProcess).then(|| {
        let t = Instant::now();
        let q = Pipeline::new()
            .fold_bn(true)
            .quantize(QuantSpec::int8(calib.clone()))
            .run(&deployed)
            .expect("int8 lowering")
            .quantized
            .expect("quantize produces an engine");
        (q, common::ms(t.elapsed()))
    });
    let cfg = serve_config(front, &calib);
    let running = match front {
        Front::InProcess => {
            Running::InProcess(Server::start(&deployed, cfg).expect("start server"))
        }
        Front::Http => {
            let registry = MetricsRegistry::new();
            let net = NetServer::start(
                vec![ModelSpec {
                    name: MODEL.to_string(),
                    model: deployed.clone(),
                    serve: cfg,
                }],
                NetConfig {
                    threads: Some(WORKERS),
                    ..NetConfig::new("127.0.0.1:0")
                },
                registry.clone(),
            )
            .expect("start net server");
            Running::Http { net, registry }
        }
    };
    let inputs = Inputs {
        pool,
        held_out,
        calib,
        deployed,
        deploy_ms,
        quantized,
    };
    (inputs, running)
}

fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let k = logits.dims()[1];
    logits
        .data()
        .chunks_exact(k)
        .map(|row| (0..k).fold(0, |best, i| if row[i] > row[best] { i } else { best }))
        .collect()
}

/// Drives one front end: builds each phase's schedule and runs it.
struct Traffic<'a> {
    front: Front,
    running: &'a Running,
    pool: &'a [Tensor],
    predicts: Vec<Vec<u8>>,
    swap_wire: Vec<u8>,
    reference: &'a [usize],
    rng: Rng,
}

impl Traffic<'_> {
    /// Closed-loop capacity: the most work the front end completes with
    /// its pipeline kept full.
    fn capacity(&mut self, seconds: f64) -> PhaseOut {
        let seed = self.rng.next_u64();
        match self.front {
            Front::InProcess => loadgen::closed_in_process(
                self.running.server(),
                self.pool,
                self.reference,
                WORKERS * MAX_BATCH * 2,
                seconds,
                &mut self.rng,
            ),
            Front::Http => {
                let loads = self.http_loads(false);
                loadgen::closed_http(&loads, HTTP_DEPTH, seconds, seed)
            }
        }
    }

    fn http_loads(&self, traced: bool) -> Vec<HttpLoad<'_>> {
        let addr = self.addr();
        (0..HTTP_CONNS)
            .map(|i| HttpLoad {
                addr,
                predicts: &self.predicts,
                reference: self.reference,
                swap: (i == 0).then_some((self.swap_wire.as_slice(), SWAP_PERIOD)),
                queue: (i == 0 && traced).then(|| self.running.server()),
            })
            .collect()
    }

    fn addr(&self) -> SocketAddr {
        match self.running {
            Running::Http { net, .. } => net.addr(),
            Running::InProcess(_) => unreachable!("in-process front has no address"),
        }
    }

    fn phase(&mut self, rate: f64, seconds: f64, traced: bool) -> PhaseOut {
        match self.front {
            Front::InProcess => {
                let arrivals = loadgen::schedule(rate, seconds, POOL, &mut self.rng);
                let server = self.running.server();
                loadgen::in_process(server, self.pool, self.reference, &arrivals, traced)
            }
            Front::Http => {
                let per_conn = rate / HTTP_CONNS as f64;
                let schedules: Vec<Vec<Arrival>> = (0..HTTP_CONNS)
                    .map(|_| loadgen::schedule(per_conn, seconds, POOL, &mut self.rng))
                    .collect();
                loadgen::http_phase(&self.http_loads(traced), &schedules, seconds)
            }
        }
    }
}

/// One probed rung of the rate ladder.
#[derive(Clone, Copy)]
struct Rung {
    rate: f64,
    goodput: f64,
    p99_ms: f64,
    pass: bool,
}

/// `max_rate_img_s`: the goodput of the highest passing rung, moved
/// toward the next rung up by where the p99 limit falls between the two
/// rungs' p99s. Without that refinement a run would report one of a few
/// rung values and flip between neighbours on noise. With no passing
/// rung it is the lowest rung's goodput scaled by limit over p99.
fn max_rate(rungs: &[Rung], best: Option<f64>, limit_ms: f64) -> f64 {
    let find = |rate: f64| rungs.iter().find(|r| r.rate == rate);
    let Some(pass) = best.and_then(find) else {
        return rungs
            .iter()
            .min_by(|a, b| a.rate.total_cmp(&b.rate))
            .map_or(0.0, |r| r.goodput * (limit_ms / r.p99_ms).min(1.0));
    };
    let next = rungs
        .iter()
        .filter(|r| r.rate > pass.rate && !r.pass)
        .min_by(|a, b| a.rate.total_cmp(&b.rate));
    match next {
        Some(fail) if fail.p99_ms > limit_ms => {
            let frac = crate::stats::crossing(pass.p99_ms, fail.p99_ms, limit_ms);
            pass.goodput + (fail.goodput - pass.goodput) * frac
        }
        _ => pass.goodput,
    }
}

/// Probes the rate ladder by bisection, `rung_s` seconds a rung, and
/// returns [`max_rate`] with the number of rungs probed.
fn ladder(
    traffic: &mut Traffic<'_>,
    load: &Load,
    rung_s: f64,
    responses: &mut u64,
) -> (f64, usize) {
    let mut rungs: Vec<Rung> = Vec::new();
    let best = ladder_search(load.ladder, |rate| {
        let out = traffic.phase(rate, rung_s, false);
        let rung = Rung {
            rate,
            goodput: out.goodput(),
            p99_ms: percentile(&out.lat_ms, 99.0).unwrap_or(f64::INFINITY),
            pass: rung_passes(&out, load.p99_limit_ms),
        };
        println!(
            "ladder {rate:>6.1} img/s: goodput {:.1}, p99 {:.2} ms, failed {}, backlog {} -> {}",
            rung.goodput,
            rung.p99_ms,
            out.failed,
            out.backlog,
            if rung.pass { "pass" } else { "fail" }
        );
        *responses += out.responses;
        rungs.push(rung);
        rung.pass
    });
    let rate = max_rate(&rungs, best.map(|i| load.ladder[i]), load.p99_limit_ms);
    (rate, rungs.len())
}

/// Whether a ladder rung held: no failures, p99 within the limit, and no
/// backlog beyond what the batching window explains.
fn rung_passes(out: &PhaseOut, limit_ms: f64) -> bool {
    out.failed == 0
        && percentile(&out.lat_ms, 99.0).is_some_and(|p| p <= limit_ms)
        && out.backlog <= WORKERS * MAX_BATCH
}

/// The untraced measurement: rounds of `lo`, `hi` and capacity windows,
/// each end-to-end metric the median over rounds, so a burst of load from
/// outside the benchmark spoils one round's figures rather than the
/// run's. Returns the HTTP answers received.
fn rounds(traffic: &mut Traffic<'_>, load: &Load, s: f64, report: &mut Report) -> u64 {
    let round = 0.95 * s / ROUNDS as f64;
    let (mut lo, mut hi, mut cap) = (
        PhaseOut::default(),
        PhaseOut::default(),
        PhaseOut::default(),
    );
    let (mut lo_p50, mut cap_img_s) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let l = traffic.phase(load.lo, 0.35 * round, false);
        let h = traffic.phase(load.hi, 0.4 * round, false);
        let c = traffic.capacity(0.25 * round);
        lo_p50.push(median(&l.lat_ms));
        cap_img_s.push(c.goodput());
        lo.merge(l);
        hi.merge(h);
        cap.merge(c);
    }
    for out in [&lo, &hi] {
        count_phase(report, out);
    }
    check_phases(report, &[&lo, &hi, &cap]);
    let (v, n) = med(&cap_img_s);
    report.set("throughput_img_s", v, n);
    let (v, n) = med(&lo_p50);
    report.set("lat_ms_p50", v, n);
    report.section(
        "latency",
        latency_json(&[("lo", &lo), ("hi", &hi), ("capacity", &cap)]),
    );
    lo.responses + hi.responses + cap.responses
}

/// The class each pool image should be served with, computed at set-up:
/// `QuantizedModel::predict` for int8, `CnnModel::forward` for f32. For
/// int8 it also checks top-1 agreement with f32 on held-out images.
fn reference_classes(inputs: &mut Inputs, report: &mut Report) -> Vec<usize> {
    let pool_batch = stack(&inputs.pool);
    let mut f32_model = inputs.deployed.clone();
    let mut ctx = RunCtx::eval();
    let mut f32_classes =
        |x: &Tensor| argmax_rows(&f32_model.forward(x, &mut ctx).expect("f32 forward"));
    let Some((q, _)) = &mut inputs.quantized else {
        return f32_classes(&pool_batch);
    };
    let held_f32 = f32_classes(&inputs.held_out);
    let held_q = q.predict(&inputs.held_out).expect("int8 predict");
    let agree =
        held_f32.iter().zip(&held_q).filter(|(a, b)| a == b).count() as f64 / HELD_OUT as f64;
    println!("int8 top-1 agreement with f32 on {HELD_OUT} held-out images: {agree:.4}");
    report.check(
        format!("int8 and f32 top-1 agreement {agree:.4} >= 0.99"),
        agree >= 0.99,
    );
    q.predict(&pool_batch).expect("int8 predict")
}

fn count_phase(report: &mut Report, out: &PhaseOut) {
    report.count_ops(out.sent, out.failed);
}

pub fn run(args: &Args, front: Front, report: &mut Report) {
    let load = match front {
        Front::InProcess => &INT8_LOAD,
        Front::Http => &HTTP_LOAD,
    };
    let (setup_times, (mut inputs, running)) = common::timed_setups(|| setup(args.seed, front));

    let reference = reference_classes(&mut inputs, report);
    let blob = checkpoint::save(&inputs.deployed).to_vec();
    let target = format!("/v1/models/{MODEL}/predict");
    let mut traffic = Traffic {
        front,
        running: &running,
        pool: &inputs.pool,
        predicts: inputs
            .pool
            .iter()
            .map(|t| {
                let body: Vec<u8> = t.data().iter().flat_map(|v| v.to_le_bytes()).collect();
                loadgen::post_wire(&target, &body)
            })
            .collect(),
        swap_wire: loadgen::post_wire(&format!("/v1/models/{MODEL}/checkpoint"), &blob),
        reference: &reference,
        rng: Rng::new(sub_seed(args.seed, 6)),
    };
    let s = args.seconds.as_secs_f64();
    let mut responses = 0u64;
    // Warm-up at the low rate: arenas, connections, branch predictors.
    responses += traffic.phase(load.lo, 0.05 * s, false).responses;

    if !args.trace {
        let (v, n) = med(&setup_times);
        report.set("setup_s", v, n);
        responses += rounds(&mut traffic, load, s, report);
        check_metrics_endpoint(report, &running, responses);
        return;
    }

    let base = traffic.phase(load.lo, 0.1 * s, false);
    let stats0 = running.server().stats();
    let lo = traffic.phase(load.lo, 0.1 * s, true);
    let stats1 = running.server().stats();
    let hi = traffic.phase(load.hi, 0.2 * s, true);
    let stats2 = running.server().stats();
    let batch_mean = |a: &alf_serve::ServerStats, b: &alf_serve::ServerStats| {
        let batches = b.batches.saturating_sub(a.batches).max(1);
        (
            b.completed.saturating_sub(a.completed) as f64 / batches as f64,
            batches as usize,
        )
    };
    for out in [&base, &lo, &hi] {
        count_phase(report, out);
        responses += out.responses;
    }
    check_phases(report, &[&lo, &hi]);
    let (max_rate_img_s, probed) = ladder(&mut traffic, load, 0.06 * s, &mut responses);
    report.set("serve.max_rate_img_s", max_rate_img_s, Some(probed));
    let lo_p50 = median(&lo.lat_ms);
    report.set(
        "trace.overhead",
        lo_p50 / median(&base.lat_ms),
        Some(lo.lat_ms.len()),
    );
    report.set(
        "serve.lat_ms_p99.lo",
        percentile(&lo.lat_ms, 99.0).unwrap_or(0.0),
        Some(lo.lat_ms.len()),
    );
    let (v, n) = med(&hi.lat_ms);
    report.set("serve.lat_ms_p50.hi", v, n);
    report.set(
        "serve.lat_ms_p99.hi",
        percentile(&hi.lat_ms, 99.0).unwrap_or(0.0),
        n,
    );
    let (mean_hi, batches_hi) = batch_mean(&stats1, &stats2);
    report.set("serve.batch_mean.hi", mean_hi, Some(batches_hi));
    report.set(
        "serve.queue_len_p99.hi",
        percentile(&hi.queue_len, 99.0).unwrap_or(0.0),
        Some(hi.queue_len.len()),
    );
    report.set("serve.rejected", (lo.rejected + hi.rejected) as f64, None);
    report.set("serve.expired", (lo.expired + hi.expired) as f64, None);
    let mut lags = lo.lag_ms.clone();
    lags.extend(&hi.lag_ms);
    report.set(
        "loadgen.lag_ms_p99",
        percentile(&lags, 99.0).unwrap_or(0.0),
        Some(lags.len()),
    );
    report.set("setup.deploy_ms", inputs.deploy_ms, None);

    let budget = Duration::from_secs_f64(0.25 * s / 6.0);
    let precision = serve_config(front, &inputs.calib).precision;
    let mut replica = Replica::with_precision(
        inputs.deployed.clone(),
        [CHANNELS, IMAGE, IMAGE],
        &precision,
    )
    .expect("replica");
    replica.prewarm(MAX_BATCH).expect("prewarm");
    let (b1, b8, replica_ok) = time_replica(&mut replica, &inputs.pool, &reference, budget);
    report.check(
        "a standalone replica serves the reference classes",
        replica_ok,
    );
    report.set("serve.compute_ms_b1", b1.0, b1.1);
    report.set("serve.compute_ms_b8", b8.0, b8.1);
    // Compute time at the lo phase's observed mean batch size,
    // interpolated between the b1 and b8 measurements.
    let (mean_lo, _) = batch_mean(&stats0, &stats1);
    let compute_lo = b1.0 + (b8.0 - b1.0) * (mean_lo - 1.0) / (MAX_BATCH as f64 - 1.0);
    report.set(
        "serve.wait_ms_p50.lo",
        lo_p50 - compute_lo,
        Some(lo.lat_ms.len()),
    );

    let convs = deploy::conv_report(&inputs.deployed, IMAGE, IMAGE);
    let mut table = JsonWriter::new();
    table.begin_array();
    let mut rng = Rng::new(sub_seed(args.seed, 7));
    let pieces = common::conv_pieces(&inputs.deployed, MAX_BATCH, &mut rng);
    match &mut inputs.quantized {
        Some((q, lower_ms)) => {
            report.set("setup.int8_lower_ms", *lower_ms, None);
            int8_layers(report, q, &inputs.pool, &convs, &pieces, budget, &mut table);
        }
        None => {
            let split = common::replay_by_kernel(pieces, budget, false);
            report.set("deploy.conv_ms.k3", split.fwd_k3, Some(split.reps));
            report.set("deploy.conv_ms.k1", split.fwd_k1, Some(split.reps));
            let measured = profile_units(&inputs.deployed, &inputs.pool, budget);
            let rho = hw_join(&convs, &measured, Accelerator::eyeriss(), &mut table);
            report.set("hw.spearman_f32", rho, Some(measured.len()));
            swap_layers(report, &inputs.deployed, &blob, &lo, &hi, budget);
            let (overhead, extra) = net_overhead(&running, &inputs.pool, &traffic.predicts, budget);
            responses += extra;
            report.set("net.overhead_ms_p50", overhead.0, overhead.1);
        }
    }
    table.end_array();
    report.section("per_conv", table.finish());
    report.section("trace", spans_json(&[("phase.lo", &lo), ("phase.hi", &hi)]));
    if let Some((responses_seen, parse_errors)) =
        check_metrics_endpoint(report, &running, responses)
    {
        report.set("net.responses", responses_seen as f64, None);
        report.set("net.parse_errors", parse_errors as f64, None);
    }
}

/// The int8 engine on its own: `QuantizedModel::forward` at batch 8 with
/// its per-unit times joined to `eyeriss_int8`, and the kernel replay
/// split by lowering.
fn int8_layers(
    report: &mut Report,
    q: &mut QuantizedModel,
    pool: &[Tensor],
    convs: &[deploy::DeployedConvInfo],
    pieces: &[(alf_nn::conv::Conv2d, Tensor)],
    budget: Duration,
    table: &mut JsonWriter,
) {
    let batch8 = stack(&pool[..MAX_BATCH]);
    let mut unit_ns: Vec<(String, Vec<f64>)> = Vec::new();
    let fwd = common::sample_ms(budget, || {
        q.forward(std::hint::black_box(&batch8))
            .expect("int8 forward");
        for (i, (name, ns)) in q.layer_times_ns().iter().enumerate() {
            if unit_ns.len() <= i {
                unit_ns.push((name.clone(), Vec::new()));
            }
            unit_ns[i].1.push(*ns as f64 / 1e6);
        }
    });
    let (v, n) = med(&fwd);
    report.set("qmodel.forward_ms_b8", v, n);
    let macs: u64 = convs.iter().map(|c| c.macs()).sum::<u64>() * MAX_BATCH as u64;
    report.set("qmodel.gops", macs as f64 / 1e6 / v, n);
    let measured: Vec<(String, f64)> = unit_ns.into_iter().map(|(n, v)| (n, median(&v))).collect();
    let rho = hw_join(convs, &measured, Accelerator::eyeriss_int8(), table);
    report.set("hw.spearman_int8", rho, Some(measured.len()));
    let (im2col, slab, reps) = replay_int8(pieces, budget);
    report.set("qmodel.conv_ms.im2col", im2col, Some(reps));
    report.set("qmodel.conv_ms.slab", slab, Some(reps));
}

/// Checkpoint swaps: `checkpoint::load` of the blob on its own, the POST
/// round trips, and the worst predict latency while a swap was open.
fn swap_layers(
    report: &mut Report,
    model: &CnnModel,
    blob: &[u8],
    lo: &PhaseOut,
    hi: &PhaseOut,
    budget: Duration,
) {
    report.set("ckpt.bytes", blob.len() as f64, None);
    let mut target = model.clone();
    let loads = common::sample_ms(budget, || {
        checkpoint::load(&mut target, blob).expect("load own checkpoint");
    });
    let (v, n) = med(&loads);
    report.set("ckpt.load_ms", v, n);
    let swaps: Vec<(f64, f64, u16)> = lo.swaps.iter().chain(&hi.swaps).copied().collect();
    report.check(
        "every checkpoint POST answers 200",
        swaps.iter().all(|s| s.2 == 200),
    );
    let swap_ms: Vec<f64> = swaps.iter().map(|s| (s.1 - s.0) * 1e3).collect();
    let (v, n) = med(&swap_ms);
    report.set("swap.ms_p50", v, n);
    let mut stall: f64 = 0.0;
    for out in [lo, hi] {
        for (due, lat) in out.due_s.iter().zip(&out.lat_ms) {
            if out.swaps.iter().any(|s| (s.0..=s.1).contains(due)) {
                stall = stall.max(*lat);
            }
        }
    }
    report.set("swap.stall_ms_max", stall, Some(swaps.len()));
}

/// Client-side spans: one root per traced phase (its clock starts at the
/// phase start), a child per answered request from due to answer, and a
/// child per checkpoint POST.
fn spans_json(phases: &[(&'static str, &PhaseOut)]) -> String {
    let mut tracer = Tracer::new(Instant::now());
    let ns = |secs: f64| (secs * 1e9) as u64;
    for (name, out) in phases {
        let root = tracer.push(name, None, 0, ns(out.span_s));
        for (due, lat) in out.due_s.iter().zip(&out.lat_ms) {
            tracer.push("request", Some(root), ns(*due), ns(due + lat / 1e3));
        }
        for (start, end, _) in &out.swaps {
            tracer.push("swap", Some(root), ns(*start), ns(*end));
        }
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    tracer.write_json("spans", &mut w);
    w.end_object();
    w.finish()
}

/// Percentiles of each phase's raw latencies, for the report file.
fn latency_json(phases: &[(&str, &PhaseOut)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    for (name, out) in phases {
        w.key(name);
        w.begin_object();
        w.field_u64("samples", out.lat_ms.len() as u64);
        for (key, p) in [
            ("p50", 50.0),
            ("p90", 90.0),
            ("p95", 95.0),
            ("p99", 99.0),
            ("p999", 99.9),
        ] {
            w.field_f64(key, percentile(&out.lat_ms, p).unwrap_or(0.0));
        }
        w.field_f64("lag_ms_p99", percentile(&out.lag_ms, 99.0).unwrap_or(0.0));
        w.field_f64s("due_s", out.due_s.iter().copied());
        w.field_f64s("lat_ms", out.lat_ms.iter().copied());
        w.end_object();
    }
    w.end_object();
    w.finish()
}

/// The output checks every measured phase must pass.
fn check_phases(report: &mut Report, phases: &[&PhaseOut]) {
    report.check(
        "every served class equals its reference class",
        phases.iter().all(|p| p.wrong_class == 0),
    );
    report.check(
        "every request is answered",
        phases.iter().all(|p| p.failed == 0),
    );
}

/// For `serve-http`: fetches `/metrics` and checks `net.responses`
/// against the client tally. Returns `(net.responses, net.parse_errors)`.
fn check_metrics_endpoint(
    report: &mut Report,
    running: &Running,
    tally: u64,
) -> Option<(u64, u64)> {
    let Running::Http { net, registry } = running else {
        return None;
    };
    let mut client = HttpClient::connect(net.addr(), Duration::from_secs(10)).expect("connect");
    let resp = client.get("/metrics").expect("metrics answered");
    let text = resp.text();
    let counter = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("counter {name} ")))
            .and_then(|v| v.trim().parse::<u64>().ok())
    };
    let seen = counter("net.responses");
    report.check(
        format!("/metrics net.responses {seen:?} equals the client tally {tally}"),
        seen == Some(tally),
    );
    let parse_errors = registry.snapshot().counter("net.parse_errors").unwrap_or(0);
    report.check("the front end saw no parse errors", parse_errors == 0);
    Some((seen.unwrap_or(0), parse_errors))
}

type Timed = (f64, Option<usize>);

/// `Replica::run_batch` at batch 1 and batch 8; also checks the classes.
fn time_replica(
    replica: &mut Replica,
    pool: &[Tensor],
    reference: &[usize],
    budget: Duration,
) -> (Timed, Timed, bool) {
    let mut ok = true;
    let mut time = |size: usize| {
        let mut i = 0;
        let samples = common::sample_ms(budget, || {
            let idx: Vec<usize> = (i..i + size).map(|j| j % pool.len()).collect();
            let images: Vec<&Tensor> = idx.iter().map(|&j| &pool[j]).collect();
            let preds = replica.run_batch(&images).expect("run_batch");
            ok &= preds
                .iter()
                .zip(&idx)
                .all(|(p, &j)| p.class == reference[j]);
            i += size;
        });
        med(&samples)
    };
    let b1 = time(1);
    let b8 = time(MAX_BATCH);
    (b1, b8, ok)
}

/// Per-unit forward time of the deployed f32 model at batch 8, from the
/// `RunCtx` profiler.
fn profile_units(model: &CnnModel, pool: &[Tensor], budget: Duration) -> Vec<(String, f64)> {
    let mut m = model.clone();
    let batch = stack(&pool[..MAX_BATCH]);
    let mut ctx = RunCtx::eval().with_profiler();
    let mut per_unit: Vec<(String, Vec<f64>)> = Vec::new();
    common::sample_ms(budget, || {
        m.forward(&batch, &mut ctx).expect("f32 forward");
        let rep = ctx.take_report().expect("profiler attached");
        for l in rep.layers {
            match per_unit.iter_mut().find(|(n, _)| *n == l.name) {
                Some((_, v)) => v.push(l.fwd_ns as f64 / 1e6),
                None => per_unit.push((l.name, vec![l.fwd_ns as f64 / 1e6])),
            }
        }
    });
    per_unit.into_iter().map(|(n, v)| (n, median(&v))).collect()
}

/// Joins measured per-unit times to the accelerator model's predicted
/// latency on the same geometry at batch 8, appends the per-conv rows to
/// `table`, and returns the Spearman correlation (0 when undefined).
fn hw_join(
    convs: &[deploy::DeployedConvInfo],
    measured: &[(String, f64)],
    accelerator: Accelerator,
    table: &mut JsonWriter,
) -> f64 {
    let precision = if accelerator.name.contains("int8") {
        "int8"
    } else {
        "f32"
    };
    let workloads: Vec<ConvWorkload> = convs
        .iter()
        .flat_map(|c| match c.c_code {
            Some(cc) => {
                let (a, b) = alf_pair(&c.shape, cc, MAX_BATCH);
                vec![a, b]
            }
            None => vec![ConvWorkload::from_shape(&c.shape, MAX_BATCH)],
        })
        .collect();
    let mapper = Mapper::new(accelerator, Dataflow::RowStationary);
    let Ok(report) = NetworkReport::evaluate(&mapper, &workloads) else {
        return 0.0;
    };
    let predicted = report.merged();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for (name, ms) in measured {
        if let Some(p) = predicted.layers.iter().find(|l| &l.name == name) {
            xs.push(*ms);
            ys.push(p.latency_cycles);
            table.begin_object();
            table.field_str("precision", precision);
            table.field_str("unit", name);
            table.field_f64("measured_ms", *ms);
            table.field_f64("predicted_cycles", p.latency_cycles);
            table.field_u64("macs", p.macs);
            table.end_object();
        }
    }
    spearman(&xs, &ys).unwrap_or(0.0)
}

/// Replays each int8 convolution of the deployed geometry at batch 8
/// through the engine's kernels, split by lowering: im2col + GEMM for
/// k×k convs, the per-image slab GEMM for 1×1 stride-1 convs. Returns
/// median ms per forward of each, and the repetition count.
fn replay_int8(pieces: &[(alf_nn::conv::Conv2d, Tensor)], budget: Duration) -> (f64, f64, usize) {
    let mut ws = Workspace::new();
    let mut rng = Rng::new(11);
    let mut byte = |n: usize| -> Vec<i8> {
        (0..n)
            .map(|_| (rng.below(255) as i32 - 127) as i8)
            .collect()
    };
    struct Stage {
        slab: bool,
        weight: Vec<i8>,
        input: Vec<i8>,
        spec: alf_tensor::ops::Conv2dSpec,
        dims: [usize; 4],
        c_out: usize,
    }
    let stages: Vec<Stage> = pieces
        .iter()
        .map(|(conv, x)| {
            let spec = conv.spec();
            let d = x.dims();
            Stage {
                slab: spec.kernel == 1 && spec.stride == 1 && spec.pad == 0,
                weight: byte(conv.c_out() * conv.c_in() * spec.kernel * spec.kernel),
                input: byte(x.len()),
                spec,
                dims: [d[0], d[1], d[2], d[3]],
                c_out: conv.c_out(),
            }
        })
        .collect();
    let (mut im2col_ms, mut slab_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget || im2col_ms.len() < 5 {
        let (mut a, mut b) = (0.0, 0.0);
        for s in &stages {
            let [n, c, h, w] = s.dims;
            let (ho, wo) = s.spec.output_hw(h, w);
            let t = Instant::now();
            if s.slab {
                let plane = h * w;
                let mut acc = vec![0i32; s.c_out * plane];
                for img in 0..n {
                    let src = &s.input[img * c * plane..(img + 1) * c * plane];
                    gemm_i8_into(&mut acc, &s.weight, src, s.c_out, c, plane, &mut ws);
                }
                std::hint::black_box(&acc);
                b += common::ms(t.elapsed());
            } else {
                let rows = c * s.spec.kernel * s.spec.kernel;
                let cols = n * ho * wo;
                let mut colbuf = vec![0i8; rows * cols];
                im2col_i8_into(&mut colbuf, &s.input, n, c, h, w, s.spec);
                let mut acc = vec![0i32; s.c_out * cols];
                gemm_i8_into(&mut acc, &s.weight, &colbuf, s.c_out, rows, cols, &mut ws);
                std::hint::black_box(&acc);
                a += common::ms(t.elapsed());
            }
        }
        im2col_ms.push(a);
        slab_ms.push(b);
    }
    let reps = im2col_ms.len();
    (median(&im2col_ms), median(&slab_ms), reps)
}

/// Closed-loop single requests for the same images over HTTP and in
/// process; returns the p50 difference and the HTTP responses received.
fn net_overhead(
    running: &Running,
    pool: &[Tensor],
    predicts: &[Vec<u8>],
    budget: Duration,
) -> (Timed, u64) {
    let Running::Http { net, .. } = running else {
        return ((0.0, None), 0);
    };
    let server = running.server();
    let target = format!("/v1/models/{MODEL}/predict");
    let mut client = HttpClient::connect(net.addr(), Duration::from_secs(10)).expect("connect");
    let (mut http_ms, mut local_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget || http_ms.len() < 10 {
        let img = i % pool.len();
        let body = &predicts[img][predicts[img].len() - pool[img].len() * 4..];
        let t = Instant::now();
        let resp = client.post(&target, &[], body).expect("predict answered");
        http_ms.push(common::ms(t.elapsed()));
        assert_eq!(resp.status, 200, "{}", resp.text());
        let t = Instant::now();
        server
            .submit(pool[img].clone())
            .expect("admitted")
            .wait()
            .expect("answered");
        local_ms.push(common::ms(t.elapsed()));
        i += 1;
    }
    let n = http_ms.len();
    ((median(&http_ms) - median(&local_ms), Some(n)), n as u64)
}
