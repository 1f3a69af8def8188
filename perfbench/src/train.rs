//! `train`: `AlfTrainer::run_epoch` on Plain-20-ALF, width 8, batch 32,
//! masks forced to 50% occupancy, GEMM threads automatic.
//!
//! The untraced run times whole epochs (training steps plus the
//! end-of-epoch evaluation over the test split). The traced run
//! alternates such epochs with epochs replayed through the same public
//! calls `run_epoch` makes, with a span around each call, and finally
//! replays every convolution of the model alone under the `RunCtx`
//! profiler to split conv time by kernel size.

use std::time::Instant;

use alf_core::{AlfTrainer, CnnModel, Evaluator};
use alf_data::{Dataset, Split};
use alf_nn::loss::softmax_cross_entropy;
use alf_nn::{Layer, RunCtx, Sgd};
use alf_obs::json::JsonWriter;
use alf_tensor::rng::Rng;

use crate::common::{self, med, sub_seed, BATCH, STEPS_PER_EPOCH, TRAIN_IMAGES};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Args;

struct Ready {
    data: Dataset,
    trainer: AlfTrainer,
}

fn setup(seed: u64) -> Ready {
    let data = common::train_data(seed);
    let trainer = AlfTrainer::new(common::train_model(), common::hyper(), sub_seed(seed, 3))
        .expect("trainer builds");
    Ready { data, trainer }
}

/// Per-epoch samples of the untraced loop.
#[derive(Default)]
struct Epochs {
    img_s: Vec<f64>,
    step_ms: Vec<f64>,
    steps: u64,
    bad_steps: u64,
}

impl Epochs {
    /// One `run_epoch`, timed; `record` false for warm-up.
    fn run(&mut self, ready: &mut Ready, record: bool) {
        let steps = STEPS_PER_EPOCH as u64;
        let start = Instant::now();
        let stats = ready.trainer.run_epoch(&ready.data);
        let secs = start.elapsed().as_secs_f64();
        self.steps += steps;
        if !stats.is_ok_and(|s| s.train_loss.is_finite()) {
            self.bad_steps += steps;
        }
        if record {
            self.img_s.push(TRAIN_IMAGES as f64 / secs);
            self.step_ms.push(secs * 1e3 / steps as f64);
        }
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let (setup_times, mut ready) = common::timed_setups(|| setup(args.seed));
    let mut base = Epochs::default();
    base.run(&mut ready, false);
    if !args.trace {
        let start = Instant::now();
        while start.elapsed() < args.seconds {
            base.run(&mut ready, true);
        }
        report.count_ops(base.steps, base.bad_steps);
        report.check("train losses are finite", base.bad_steps == 0);
        let (v, n) = med(&setup_times);
        report.set("setup_s", v, n);
        let (v, n) = med(&base.img_s);
        report.set("throughput_img_s", v, n);
        let (v, n) = med(&base.step_ms);
        report.set("lat_ms_p50", v, n);
        return;
    }

    // Untraced and traced epochs alternate on the same model, so both
    // see the same host conditions and the same mask state.
    let mut replay = Replay::new(sub_seed(args.seed, 4));
    let start = Instant::now();
    while start.elapsed() < args.seconds * 3 / 4 || base.img_s.len() < 2 {
        base.run(&mut ready, true);
        replay.epoch(ready.trainer.model_mut(), &ready.data);
    }
    report.count_ops(base.steps + replay.steps, base.bad_steps + replay.bad_steps);
    report.check(
        "train losses are finite",
        base.bad_steps + replay.bad_steps == 0,
    );
    report.check("traced evaluations run", replay.eval_failures == 0);

    let tracer = &replay.tracer;
    let steps_per_epoch = STEPS_PER_EPOCH as f64;
    let mut layer_sum = 0.0;
    for (metric, span) in [
        ("data.batch_ms", "data.batch"),
        ("model.fwd_ms", "model.fwd"),
        ("model.bwd_ms", "model.bwd"),
        ("optim.step_ms", "optim.step"),
        ("ae.step_ms", "ae.step"),
    ] {
        let (v, n) = med(&tracer.durations_ms(span));
        layer_sum += v;
        report.set(metric, v, n);
    }
    let (eval_ms, n) = med(&tracer.durations_ms("eval"));
    report.set("eval.ms", eval_ms, n);
    layer_sum += eval_ms / steps_per_epoch;
    report.set(
        "step.ms_p90",
        percentile(&base.step_ms, 90.0).unwrap_or(0.0),
        Some(base.step_ms.len()),
    );
    report.set(
        "coverage.train",
        layer_sum / median(&base.step_ms),
        Some(base.step_ms.len()),
    );
    let traced_img_s: Vec<f64> = tracer
        .durations_ms("epoch")
        .iter()
        .map(|ms| TRAIN_IMAGES as f64 * 1e3 / ms)
        .collect();
    report.set(
        "trace.overhead",
        median(&base.img_s) / median(&traced_img_s),
        Some(traced_img_s.len()),
    );

    let mut rng = Rng::new(sub_seed(args.seed, 5));
    let pieces = common::conv_pieces(ready.trainer.model(), BATCH, &mut rng);
    let split = common::replay_by_kernel(pieces, args.seconds / 4, true);
    report.set("conv.fwd_ms.k3", split.fwd_k3, Some(split.reps));
    report.set("conv.fwd_ms.k1", split.fwd_k1, Some(split.reps));
    report.set("conv.bwd_ms.k3", split.bwd_k3, Some(split.reps));
    report.set("conv.bwd_ms.k1", split.bwd_k1, Some(split.reps));
    report.set("conv.gflops", split.gflops, Some(split.reps));

    let mut w = JsonWriter::new();
    w.begin_object();
    replay.tracer.write_json("spans", &mut w);
    w.end_object();
    report.section("trace", w.finish());
}

/// Replays `run_epoch` through the public calls it makes, with a span
/// around each call.
struct Replay {
    ctx: RunCtx,
    opt: Sgd,
    eval: Evaluator,
    rng: Rng,
    tracer: Tracer,
    steps: u64,
    bad_steps: u64,
    eval_failures: u64,
}

impl Replay {
    fn new(seed: u64) -> Self {
        let hyper = common::hyper();
        Self {
            ctx: RunCtx::train(),
            opt: Sgd::new(hyper.task_lr, hyper.momentum, hyper.weight_decay),
            eval: Evaluator::new(),
            rng: Rng::new(seed),
            tracer: Tracer::new(Instant::now()),
            steps: 0,
            bad_steps: 0,
            eval_failures: 0,
        }
    }

    fn epoch(&mut self, model: &mut CnnModel, data: &Dataset) {
        let hyper = common::hyper();
        let tracer = &mut self.tracer;
        let epoch = tracer.begin("epoch", None);
        let mut shuffle = self.rng.split();
        let mut batches = data.batches(Split::Train, BATCH, Some(&mut shuffle));
        loop {
            let span = tracer.begin("data.batch", Some(epoch));
            let Some(batch) = batches.next() else {
                tracer.end(span);
                break;
            };
            tracer.end(span);
            let step = tracer.begin("step", Some(epoch));
            let (images, labels) = batch.expect("batch gathers");
            model.zero_grads();
            let span = tracer.begin("model.fwd", Some(step));
            let logits = model.forward(&images, &mut self.ctx).expect("forward");
            tracer.end(span);
            let span = tracer.begin("loss", Some(step));
            let (loss, grad) = softmax_cross_entropy(&logits, &labels).expect("loss");
            tracer.end(span);
            let span = tracer.begin("model.bwd", Some(step));
            model.backward(&grad, &mut self.ctx).expect("backward");
            tracer.end(span);
            let span = tracer.begin("optim.step", Some(step));
            self.opt.step_layer(model);
            tracer.end(span);
            let span = tracer.begin("ae.step", Some(step));
            for block in model.alf_blocks_mut() {
                block
                    .autoencoder_step_in(hyper.ae_lr, &hyper.prune_schedule, &mut self.ctx)
                    .expect("autoencoder step");
            }
            tracer.end(span);
            tracer.end(step);
            self.steps += 1;
            self.bad_steps += u64::from(!loss.is_finite());
        }
        let span = tracer.begin("eval", Some(epoch));
        let acc = self.eval.evaluate(model, data, Split::Test, BATCH);
        tracer.end(span);
        self.eval_failures += u64::from(acc.is_err());
        tracer.end(epoch);
    }
}
