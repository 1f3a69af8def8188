//! `train-dist`: the `train` model and data on two ranks, each a
//! 1-thread `DpTrainer` on its own thread of this process, reducing over
//! real loopback TCP through `DistReducer::{master, worker}`. Rank 0
//! times each `advance_step_with` call.
//!
//! The traced run first measures untraced steps for a baseline, then
//! wraps each rank's reducer in [`TimedReducer`] and reads the wire
//! counters of `WireMetrics`.

use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use alf_core::CnnModel;
use alf_data::Dataset;
use alf_dist::{decode_grad, encode_grad, DistConfig, DistReducer, GradLayout};
use alf_dp::{DpConfig, DpTrainer, ReduceError, ReducedStep, Reducer, StepContext};
use alf_obs::json::JsonWriter;
use alf_tensor::ops::ActiveRows;
use bytes::BytesMut;

use crate::common::{self, med, sub_seed, BATCH, STEPS_PER_EPOCH};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::Args;

/// Untimed steps before measuring.
const WARMUP_STEPS: usize = 2;
/// Steps per throughput sample: one epoch, so every sample holds one
/// end-of-epoch evaluation.
const CHUNK: usize = STEPS_PER_EPOCH;

/// Rank 0's instruction to rank 1 before each step.
#[derive(Clone, Copy)]
enum Go {
    Step { traced: bool },
    Stop,
}

/// A reducer wrapper that times each `reduce` call and keeps one step's
/// reduced gradient with the layout and live rows needed to re-encode it.
struct TimedReducer {
    inner: DistReducer,
    traced: bool,
    reduce_ms: Vec<f64>,
    sample: Option<(Vec<f32>, GradLayout, Vec<Option<ActiveRows>>)>,
}

impl Reducer for TimedReducer {
    fn partition(&self, batch: usize) -> std::ops::Range<usize> {
        self.inner.partition(batch)
    }

    fn reduce(
        &mut self,
        leaves: &mut [Vec<f32>],
        losses: &[f32],
        corrects: &[u8],
        ctx: &StepContext<'_>,
    ) -> Result<ReducedStep, ReduceError> {
        if !self.traced {
            return self.inner.reduce(leaves, losses, corrects, ctx);
        }
        let start = Instant::now();
        let out = self.inner.reduce(leaves, losses, corrects, ctx);
        self.reduce_ms.push(common::ms(start.elapsed()));
        if let (Ok(step), None) = (&out, &self.sample) {
            self.sample = Some((
                step.grad.clone(),
                GradLayout::of_model(ctx.model),
                ctx.model.param_active_rows(),
            ));
        }
        out
    }
}

fn config(seed: u64) -> DpConfig {
    DpConfig::new(common::hyper(), sub_seed(seed, 3)).with_threads(1)
}

/// Per-step record of one rank.
#[derive(Default)]
struct RankLog {
    step_ms: Vec<f64>,
    traced_from: usize,
    failed_steps: u64,
    bad_losses: u64,
}

impl RankLog {
    fn step(&mut self, trainer: &mut DpTrainer, data: &Dataset, red: &mut TimedReducer) {
        let start = Instant::now();
        let out = trainer.advance_step_with(data, red);
        self.step_ms.push(common::ms(start.elapsed()));
        match out {
            Ok(Some(epoch)) => self.bad_losses += u64::from(!epoch.train_loss.is_finite()),
            Ok(None) => {}
            Err(e) => {
                eprintln!("step failed: {e}");
                self.failed_steps += 1;
            }
        }
    }
}

struct Session {
    setup_s: f64,
    master: RankLog,
    worker: RankLog,
    master_red: TimedReducer,
    worker_reduce_ms: Vec<f64>,
    worker_bytes: u64,
    bitwise: bool,
}

/// One full session: set-up (data, model, both ranks' handshake), then
/// steps while `measure` says so. With `measure == None` the session
/// stops right after set-up.
fn session(seed: u64, measure: Option<(Duration, Duration)>) -> Session {
    let start = Instant::now();
    let data = common::train_data(seed);
    let model: CnnModel = common::train_model();
    let addr = alf_dist::ephemeral_addr().expect("pick loopback addr");
    let listener = TcpListener::bind(addr).expect("bind collective addr");
    let worker_model = model.clone();
    let (go_tx, go_rx) = mpsc::channel::<Go>();
    std::thread::scope(|s| {
        let data = &data;
        let worker = s.spawn(move || {
            let mut t = DpTrainer::new(worker_model, config(seed)).expect("worker trainer");
            let inner = DistReducer::worker(DistConfig::new(2, 1, addr), t.model(), None)
                .expect("worker handshake");
            let mut red = TimedReducer {
                inner,
                traced: false,
                reduce_ms: Vec::new(),
                sample: None,
            };
            let mut log = RankLog::default();
            while let Ok(Go::Step { traced }) = go_rx.recv() {
                if traced && !red.traced {
                    red.traced = true;
                    log.traced_from = log.step_ms.len();
                }
                log.step(&mut t, data, &mut red);
            }
            let bytes = red.inner.metrics().grad_bytes_tx.get();
            (t.state_vector(), log, red.reduce_ms, bytes)
        });
        let mut t = DpTrainer::new(model, config(seed)).expect("master trainer");
        let inner = DistReducer::master(DistConfig::new(2, 0, addr), t.model(), &listener, None)
            .expect("master handshake");
        let setup_s = start.elapsed().as_secs_f64();
        let mut red = TimedReducer {
            inner,
            traced: false,
            reduce_ms: Vec::new(),
            sample: None,
        };
        let mut log = RankLog::default();
        if let Some((untraced, traced)) = measure {
            for _ in 0..WARMUP_STEPS {
                go_tx
                    .send(Go::Step { traced: false })
                    .expect("worker alive");
                log.step(&mut t, data, &mut red);
            }
            log.step_ms.clear();
            for (budget, tr) in [(untraced, false), (traced, true)] {
                if budget.is_zero() {
                    continue;
                }
                if tr {
                    red.traced = true;
                    log.traced_from = log.step_ms.len();
                }
                let phase = Instant::now();
                while phase.elapsed() < budget {
                    go_tx.send(Go::Step { traced: tr }).expect("worker alive");
                    log.step(&mut t, data, &mut red);
                }
            }
        }
        go_tx.send(Go::Stop).expect("worker alive");
        let (worker_state, mut worker_log, worker_reduce_ms, worker_bytes) =
            worker.join().expect("worker rank thread");
        worker_log
            .step_ms
            .drain(..WARMUP_STEPS.min(worker_log.step_ms.len()));
        worker_log.traced_from = worker_log.traced_from.saturating_sub(WARMUP_STEPS);
        Session {
            setup_s,
            bitwise: worker_state == t.state_vector(),
            master: log,
            worker: worker_log,
            master_red: red,
            worker_reduce_ms,
            worker_bytes,
        }
    })
}

/// Images per second over consecutive chunks of [`CHUNK`] steps.
fn chunk_img_s(step_ms: &[f64]) -> Vec<f64> {
    step_ms
        .chunks_exact(CHUNK)
        .map(|c| (CHUNK * BATCH) as f64 * 1e3 / c.iter().sum::<f64>())
        .collect()
}

pub fn run(args: &Args, report: &mut Report) {
    let mut setup_times = Vec::new();
    for _ in 1..common::SETUPS {
        setup_times.push(session(args.seed, None).setup_s);
    }
    let phases = if args.trace {
        (args.seconds / 2, args.seconds / 2)
    } else {
        (args.seconds, Duration::ZERO)
    };
    let s = session(args.seed, Some(phases));
    setup_times.push(s.setup_s);
    let steps = s.master.step_ms.len() as u64;
    report.count_ops(
        steps,
        s.master.failed_steps + s.worker.failed_steps + s.master.bad_losses,
    );
    report.check(
        "the two ranks end with bit-identical state vectors",
        s.bitwise,
    );
    report.check(
        "every distributed step succeeds",
        s.master.failed_steps + s.worker.failed_steps == 0,
    );
    report.check("train losses are finite", s.master.bad_losses == 0);

    let untraced = if args.trace {
        &s.master.step_ms[..s.master.traced_from]
    } else {
        &s.master.step_ms[..]
    };
    if !args.trace {
        let (v, n) = med(&setup_times);
        report.set("setup_s", v, n);
        let (v, n) = med(&chunk_img_s(untraced));
        report.set("throughput_img_s", v, n);
        let (v, n) = med(untraced);
        report.set("lat_ms_p50", v, n);
        return;
    }
    traced(report, &s, untraced);
}

fn traced(report: &mut Report, s: &Session, untraced: &[f64]) {
    let traced = &s.master.step_ms[s.master.traced_from..];
    let worker_traced = &s.worker.step_ms[s.worker.traced_from.min(s.worker.step_ms.len())..];
    let red = &s.master_red;
    let n = traced.len().min(red.reduce_ms.len());
    let compute0: Vec<f64> = (0..n).map(|i| traced[i] - red.reduce_ms[i]).collect();
    let n1 = worker_traced.len().min(s.worker_reduce_ms.len()).min(n);
    let skew: Vec<f64> = (0..n1)
        .map(|i| (compute0[i] - (worker_traced[i] - s.worker_reduce_ms[i])).abs())
        .collect();
    report.set(
        "step.ms_p90",
        percentile(untraced, 90.0).unwrap_or(0.0),
        Some(untraced.len()),
    );
    let (v, c) = med(&red.reduce_ms);
    report.set("dist.reduce_ms_p50", v, c);
    let (v, c) = med(&compute0);
    report.set("dp.compute_ms_p50", v, c);
    let (v, c) = med(&skew);
    report.set("dist.rank_skew_ms_p50", v, c);

    if let Some((grad, layout, rows)) = &red.sample {
        let (mut enc, mut dec) = (Vec::new(), Vec::new());
        let mut round_trips = true;
        for _ in 0..21 {
            let mut buf = BytesMut::with_capacity(grad.len() * 4 + 64);
            let start = Instant::now();
            encode_grad(std::hint::black_box(grad), layout, rows, &mut buf);
            enc.push(common::ms(start.elapsed()));
            let start = Instant::now();
            let back = decode_grad(std::hint::black_box(buf.as_ref()), layout)
                .expect("decode own encoding");
            dec.push(common::ms(start.elapsed()));
            round_trips &= back == *grad;
        }
        report.check("gradient codec round-trips bitwise", round_trips);
        let (v, c) = med(&enc);
        report.set("dist.encode_ms", v, c);
        let (v, c) = med(&dec);
        report.set("dist.decode_ms", v, c);
    }
    let m = red.inner.metrics();
    let all_steps = (s.master.step_ms.len() + WARMUP_STEPS) as f64;
    report.set(
        "dist.grad_bytes_per_step",
        (m.grad_bytes_tx.get() + s.worker_bytes) as f64 / all_steps,
        Some(all_steps as usize),
    );
    report.set(
        "dist.frames_per_step",
        (m.frames_tx.get() + m.frames_rx.get()) as f64 / all_steps,
        Some(all_steps as usize),
    );
    let (sparse, dense) = (m.tensors_sparse.get(), m.tensors_dense.get());
    report.set(
        "dist.sparse_tensor_frac",
        sparse as f64 / (sparse + dense).max(1) as f64,
        Some((sparse + dense) as usize),
    );
    report.set(
        "trace.overhead",
        median(&chunk_img_s(untraced)) / median(&chunk_img_s(traced)),
        Some(traced.len()),
    );
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_f64s("rank0_step_ms", traced.iter().copied());
    w.field_f64s("rank0_reduce_ms", red.reduce_ms.iter().copied());
    w.field_f64s("rank1_step_ms", worker_traced.iter().copied());
    w.field_f64s("rank1_reduce_ms", s.worker_reduce_ms.iter().copied());
    w.end_object();
    report.section("trace", w.finish());
}
