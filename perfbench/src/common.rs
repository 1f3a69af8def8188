//! Inputs and model forms shared by the workloads. Every input is a
//! function of the workload seed; the models are fixed.

use std::time::{Duration, Instant};

use alf_core::block::AlfBlockConfig;
use alf_core::model::{ConvKind, Unit};
use alf_core::models::plain20_alf;
use alf_core::{AlfHyper, CnnModel};
use alf_data::{Dataset, SynthVision};
use alf_nn::conv::Conv2d;
use alf_nn::{Layer, LrSchedule, Pass, RunCtx};
use alf_tensor::init::Init;
use alf_tensor::rng::Rng;
use alf_tensor::Tensor;

use crate::stats;

/// Synthetic CIFAR geometry of every workload.
pub const CHANNELS: usize = 3;
pub const IMAGE: usize = 32;
pub const CLASSES: usize = 10;

/// Initialisation seed of every model. The model is the system under
/// test, not an input, so it does not vary with the workload seed; 42 is
/// the seed `serve_bench` and `train_bench` build their models with.
pub const MODEL_SEED: u64 = 42;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Independent sub-seeds of the workload seed, one per input stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        ^ 0x5eed
}

/// The seeded synthetic CIFAR-like dataset.
pub fn dataset(seed: u64, train: usize, test: usize) -> Dataset {
    SynthVision::cifar_like(sub_seed(seed, 1))
        .with_train_size(train)
        .with_test_size(test)
        .build()
        .expect("synthetic dataset builds")
}

/// Batch size of `train` and `train-dist`, which share model and data.
pub const BATCH: usize = 32;
/// Three steps per epoch, so a run sees many epochs and their
/// evaluations.
pub const TRAIN_IMAGES: usize = 3 * BATCH;
pub const STEPS_PER_EPOCH: usize = TRAIN_IMAGES / BATCH;
const TEST_IMAGES: usize = BATCH;
const TRAIN_WIDTH: usize = 8;
const OCCUPANCY: f32 = 0.5;

/// The training data of `train` and `train-dist`.
pub fn train_data(seed: u64) -> Dataset {
    dataset(seed, TRAIN_IMAGES, TEST_IMAGES)
}

/// The training model of `train` and `train-dist`: Plain-20-ALF, width 8,
/// masks forced to 50% occupancy. The widened clip threshold (0.5, as in
/// `train_bench`'s occupancy sweep) keeps forced channels in the clip
/// band while the autoencoder player moves the mask by O(`ae_lr`) a step.
pub fn train_model() -> CnnModel {
    let config = AlfBlockConfig {
        threshold: 0.5,
        ..AlfBlockConfig::paper_default()
    };
    let mut model = plain20_alf(CLASSES, TRAIN_WIDTH, config, MODEL_SEED).expect("plain20-alf");
    for block in model.alf_blocks_mut() {
        let total = block.total_filters();
        let clip = ((1.0 - OCCUPANCY) * total as f32).round() as usize;
        for ch in 0..clip.min(total.saturating_sub(1)) {
            block.autoencoder_mut().set_mask_value(ch, 0.05);
        }
    }
    model
}

/// Task hyper-parameters of the training workloads.
pub fn hyper() -> AlfHyper {
    AlfHyper {
        task_lr: 0.05,
        batch_size: BATCH,
        lr_schedule: LrSchedule::Constant,
        ..AlfHyper::default()
    }
}

/// The serving model before deployment: Plain-20-ALF at `width` with the
/// trailing `fraction` of every block's mask clipped to zero, so the
/// deploy pipeline has code filters to strip.
pub fn serving_model(width: usize, fraction: f64) -> CnnModel {
    let mut model = plain20_alf(CLASSES, width, AlfBlockConfig::paper_default(), MODEL_SEED)
        .expect("plain20-alf");
    for block in model.alf_blocks_mut() {
        let co = block.autoencoder().mask().len();
        let keep = (((1.0 - fraction) * co as f64).ceil() as usize).clamp(1, co);
        for j in keep..co {
            block.autoencoder_mut().set_mask_value(j, 0.0);
        }
    }
    model
}

/// Runs `setup` [`SETUPS`] times, returning each duration (seconds) and
/// the last result; earlier results are dropped before the next set-up.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (times, last.expect("SETUPS >= 1"))
}

/// Median of `samples` with its count, for [`crate::report::Report::set`].
pub fn med(samples: &[f64]) -> (f64, Option<usize>) {
    (stats::median(samples), Some(samples.len()))
}

/// Times `f` repeatedly until `budget` has passed and at least five
/// samples exist; returns each call's milliseconds.
pub fn sample_ms(budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 5 {
        let t = Instant::now();
        f();
        samples.push(ms(t.elapsed()));
    }
    samples
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median per-pass conv time by kernel size over the replay repetitions.
pub struct KernelSplit {
    pub fwd_k3: f64,
    pub fwd_k1: f64,
    pub bwd_k3: f64,
    pub bwd_k1: f64,
    /// Profiler-counted conv FLOPs over replayed conv time.
    pub gflops: f64,
    pub reps: usize,
}

/// Every convolution of `model` as a standalone `Conv2d` with the weights
/// and live rows it trains with, paired with its input.
pub fn conv_pieces(model: &CnnModel, batch: usize, rng: &mut Rng) -> Vec<(Conv2d, Tensor)> {
    let mut pieces = Vec::new();
    let mut walk = model.clone();
    let mut ctx = RunCtx::train();
    let mut x = Tensor::randn(&[batch, CHANNELS, IMAGE, IMAGE], Init::Rand, rng);
    for unit in walk.units_mut() {
        if let Unit::Conv(cu) = unit {
            match cu.conv() {
                ConvKind::Standard(c) => pieces.push((c.clone(), x.clone())),
                ConvKind::Deployed { code, expansion } => {
                    let h = code.clone().forward(&x, &mut ctx).expect("code conv");
                    pieces.push((code.clone(), x.clone()));
                    pieces.push((expansion.clone(), h));
                }
                ConvKind::Alf(block) => {
                    let spec = block.conv_spec();
                    let cc = block.code_channels();
                    let mut code = Conv2d::new(
                        block.c_in(),
                        cc,
                        spec.kernel,
                        spec.stride,
                        spec.pad,
                        false,
                        Init::Zeros,
                        rng,
                    );
                    code.set_weight(block.code().expect("code weights"))
                        .expect("code shape");
                    let ae = block.autoencoder();
                    if block.sparse_execution() && ae.sparse_eligible() {
                        code.set_active_rows(Some(ae.active_rows()))
                            .expect("rows cover the code");
                    }
                    let mut expansion =
                        Conv2d::new(cc, block.c_out(), 1, 1, 0, false, Init::Zeros, rng);
                    expansion
                        .set_weight(block.expansion_weight().clone())
                        .expect("expansion shape");
                    let h = code.clone().forward(&x, &mut ctx).expect("code conv");
                    pieces.push((code, x.clone()));
                    pieces.push((expansion, h));
                }
            }
        }
        x = unit.forward(&x, &mut ctx).expect("unit forward");
    }
    pieces
}

/// Replays each convolution alone (forward, then with `backward` the
/// backward pass of an output-shaped gradient) under profiler scopes named
/// by kernel size, for `budget`; returns the medians over repetitions.
pub fn replay_by_kernel(
    mut pieces: Vec<(Conv2d, Tensor)>,
    budget: Duration,
    backward: bool,
) -> KernelSplit {
    let mut ctx = if backward {
        RunCtx::train()
    } else {
        RunCtx::eval()
    }
    .with_profiler();
    let mut per_rep: Vec<[f64; 4]> = Vec::new();
    let (mut flops, mut ns) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < budget || per_rep.len() < 3 {
        for (conv, x) in &mut pieces {
            let name = if conv.spec().kernel == 1 { "k1" } else { "k3" };
            let t = ctx.scope_start();
            let y = conv.forward(x, &mut ctx).expect("replay forward");
            ctx.scope_end(t, name, Pass::Forward);
            if backward {
                let t = ctx.scope_start();
                conv.backward(&y, &mut ctx).expect("replay backward");
                ctx.scope_end(t, name, Pass::Backward);
            }
        }
        let rep = ctx.take_report().expect("profiler attached");
        let get = |name: &str| {
            rep.layer(name).map_or((0.0, 0.0), |l| {
                (l.fwd_ns as f64 / 1e6, l.bwd_ns as f64 / 1e6)
            })
        };
        let (k3, k1) = (get("k3"), get("k1"));
        for l in &rep.layers {
            flops += l.flops;
            ns += l.total_ns();
        }
        per_rep.push([k3.0, k1.0, k3.1, k1.1]);
    }
    let col = |i: usize| stats::median(&per_rep.iter().map(|r| r[i]).collect::<Vec<_>>());
    KernelSplit {
        fwd_k3: col(0),
        fwd_k1: col(1),
        bwd_k3: col(2),
        bwd_k1: col(3),
        gflops: flops as f64 / ns.max(1) as f64,
        reps: per_rep.len(),
    }
}
