//! Criterion micro-benchmarks for the computational kernels underpinning
//! the experiments: convolution and its im2col/col2im lowering, ALF block
//! forward/backward, autoencoder steps, the mapping search, deployment
//! stripping, and the `RunCtx` execution path (profiler overhead,
//! evaluator replica reuse).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use alf_core::block::{AlfBlock, AlfBlockConfig};
use alf_core::models::{geometry, plain20_alf};
use alf_core::train::{evaluate, Evaluator};
use alf_core::{deploy, PruneSchedule, WeightAutoencoder};
use alf_data::{Dataset, Split};
use alf_hwmodel::{Accelerator, ConvWorkload, Dataflow, Mapper};
use alf_nn::activation::ActivationKind;
use alf_nn::{softmax_cross_entropy, Conv2d, Layer, RunCtx};
use alf_tensor::init::Init;
use alf_tensor::ops::{
    col2im_into, conv2d, im2col_i8_into, im2col_into, matmul, reference, Conv2dSpec,
};
use alf_tensor::rng::Rng;
use alf_tensor::Tensor;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng::new(0);
    for size in [128usize, 256] {
        let a = Tensor::randn(&[size, size], Init::He, &mut rng);
        let b = Tensor::randn(&[size, size], Init::He, &mut rng);
        // Blocked production kernel vs the preserved seed loops.
        c.bench_function(&format!("matmul_blocked_{size}"), |bench| {
            bench.iter(|| matmul(black_box(&a), black_box(&b)).unwrap())
        });
        c.bench_function(&format!("matmul_reference_{size}"), |bench| {
            bench.iter(|| reference::matmul(black_box(&a), black_box(&b)).unwrap())
        });
    }
}

fn bench_conv2d(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let x = Tensor::randn(&[4, 16, 32, 32], Init::He, &mut rng);
    let w = Tensor::randn(&[16, 16, 3, 3], Init::He, &mut rng);
    let spec = Conv2dSpec::new(3, 1, 1);
    c.bench_function("conv2d_16x32x32_b4", |bench| {
        bench.iter(|| conv2d(black_box(&x), black_box(&w), None, spec).unwrap())
    });
}

/// The lowering shapes: the `train` workload's stage-1 code conv (batch
/// 32, 8 channels, 32×32, k3 s1 p1 → a 72×32768 column matrix) and a
/// stride-2 entry conv on the same input, both 3×3 with pad 1.
const LOWERING_STRIDES: [(&str, usize); 2] = [("k3s1p1", 1), ("k3s2p1", 2)];
const LOWERING_INPUT: [usize; 4] = [32, 8, 32, 32];

fn bench_im2col(c: &mut Criterion) {
    let mut rng = Rng::new(8);
    let [n, ci, h, w] = LOWERING_INPUT;
    let x = Tensor::randn(&LOWERING_INPUT, Init::He, &mut rng);
    let x8: Vec<i8> = x.data().iter().map(|v| (v * 64.0) as i8).collect();
    for (name, stride) in LOWERING_STRIDES {
        let spec = Conv2dSpec::new(3, stride, 1);
        let (ho, wo) = spec.output_hw(h, w);
        let len = ci * spec.kernel * spec.kernel * n * ho * wo;
        let mut cols = vec![0.0f32; len];
        c.bench_function(&format!("im2col/f32_b32c8_32x32_{name}"), |bench| {
            bench.iter(|| im2col_into(black_box(&mut cols), black_box(&x), spec).unwrap())
        });
        // The per-tap loops the span lowering replaced, as the in-run
        // baseline.
        c.bench_function(
            &format!("im2col/reference_f32_b32c8_32x32_{name}"),
            |bench| {
                bench.iter(|| {
                    reference::im2col_into(black_box(&mut cols), x.data(), n, ci, h, w, spec)
                })
            },
        );
        let mut cols8 = vec![0i8; len];
        c.bench_function(&format!("im2col/i8_b32c8_32x32_{name}"), |bench| {
            bench.iter(|| im2col_i8_into(black_box(&mut cols8), black_box(&x8), n, ci, h, w, spec))
        });
    }
}

fn bench_col2im(c: &mut Criterion) {
    let mut rng = Rng::new(9);
    let [n, ci, h, w] = LOWERING_INPUT;
    let mut gx = vec![0.0f32; n * ci * h * w];
    for (name, stride) in LOWERING_STRIDES {
        let spec = Conv2dSpec::new(3, stride, 1);
        let (ho, wo) = spec.output_hw(h, w);
        let cols = Tensor::randn(
            &[ci * spec.kernel * spec.kernel, n * ho * wo],
            Init::He,
            &mut rng,
        );
        c.bench_function(&format!("col2im/f32_b32c8_32x32_{name}"), |bench| {
            bench.iter(|| {
                col2im_into(
                    black_box(&mut gx),
                    black_box(cols.data()),
                    n,
                    ci,
                    h,
                    w,
                    spec,
                )
                .unwrap()
            })
        });
        c.bench_function(
            &format!("col2im/reference_f32_b32c8_32x32_{name}"),
            |bench| {
                bench.iter(|| {
                    reference::col2im_into(black_box(&mut gx), cols.data(), n, ci, h, w, spec)
                })
            },
        );
    }
}

fn bench_conv_backward(c: &mut Criterion) {
    let mut rng = Rng::new(2);
    let x = Tensor::randn(&[4, 16, 16, 16], Init::He, &mut rng);
    let conv = Conv2d::new(16, 16, 3, 1, 1, false, Init::He, &mut rng);
    c.bench_function("conv2d_backward_16x16x16_b4", |bench| {
        // One ctx outside the timed closure: the shared arena stays warm so
        // the loop measures the steady-state (zero-allocation) path.
        let mut ctx = RunCtx::train();
        bench.iter_batched(
            || conv.clone(),
            |mut conv| {
                let y = conv.forward(black_box(&x), &mut ctx).unwrap();
                conv.backward(&y, &mut ctx).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_alf_block_forward(c: &mut Criterion) {
    let mut rng = Rng::new(3);
    let block = AlfBlock::new(16, 16, 3, 1, 1, AlfBlockConfig::paper_default(), &mut rng);
    let plain = Conv2d::new(16, 16, 3, 1, 1, false, Init::He, &mut rng);
    let x = Tensor::randn(&[4, 16, 16, 16], Init::He, &mut rng);
    // The ALF-block overhead vs a standard convolution (code refresh +
    // expansion conv).
    c.bench_function("alf_block_forward_16x16x16_b4", |bench| {
        let mut ctx = RunCtx::train();
        bench.iter_batched(
            || block.clone(),
            |mut b| b.forward(black_box(&x), &mut ctx).unwrap(),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("standard_conv_forward_16x16x16_b4", |bench| {
        let mut ctx = RunCtx::train();
        bench.iter_batched(
            || plain.clone(),
            |mut conv| conv.forward(black_box(&x), &mut ctx).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_autoencoder_step(c: &mut Criterion) {
    let mut rng = Rng::new(4);
    let ae = WeightAutoencoder::new(
        16,
        32,
        3,
        Init::Xavier,
        ActivationKind::Tanh,
        1e-4,
        &mut rng,
    );
    let w = Tensor::randn(&[32, 16, 3, 3], Init::He, &mut rng);
    c.bench_function("autoencoder_step_32f", |bench| {
        bench.iter_batched(
            || ae.clone(),
            |mut ae| ae.step(black_box(&w), 1e-3, 0.5).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_training_step(c: &mut Criterion) {
    // Whole-model task-player step (forward + CE loss + backward) through
    // the shared RunCtx, profiler off vs on. The off/on delta is the
    // profiler's overhead budget: the acceptance bar is <2% per step.
    let mut rng = Rng::new(6);
    let mut model = plain20_alf(10, 8, AlfBlockConfig::paper_default(), 5).unwrap();
    let x = Tensor::randn(&[8, 3, 32, 32], Init::He, &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let mut ctx = RunCtx::train();
    let step = |model: &mut alf_core::CnnModel, ctx: &mut RunCtx| {
        let logits = model.forward(black_box(&x), ctx).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        model.backward(&grad, ctx).unwrap()
    };
    // Warm the arena so both variants measure steady state.
    step(&mut model, &mut ctx);
    c.bench_function("train_step_plain20_w8_b8_profile_off", |bench| {
        bench.iter(|| step(&mut model, &mut ctx))
    });
    ctx.enable_profiler();
    c.bench_function("train_step_plain20_w8_b8_profile_on", |bench| {
        bench.iter(|| step(&mut model, &mut ctx))
    });
}

fn bench_evaluator(c: &mut Criterion) {
    // Test-set evaluation: persistent Evaluator replicas vs the
    // clone-per-call compat wrapper. The reuse path only re-copies weights
    // into existing thread slots, so per-call allocation drops from
    // "whole model × threads" to a flat state copy in steady state.
    let mut rng = Rng::new(7);
    let n = 64;
    let images = Tensor::randn(&[n * 3 * 32 * 32], Init::Rand, &mut rng)
        .data()
        .to_vec();
    let labels: Vec<usize> = (0..n).map(|i| i % 10).collect();
    let data = Dataset::from_parts(vec![], vec![], images, labels, 3, 32, 32, 10).unwrap();
    let model = plain20_alf(10, 8, AlfBlockConfig::paper_default(), 5).unwrap();
    c.bench_function("evaluate_reuse_slots_plain20_w8_n64", |bench| {
        let mut ev = Evaluator::new();
        ev.evaluate(&model, &data, Split::Test, 32).unwrap();
        bench.iter(|| ev.evaluate(&model, &data, Split::Test, 32).unwrap())
    });
    c.bench_function("evaluate_clone_per_call_plain20_w8_n64", |bench| {
        bench.iter(|| evaluate(&model, &data, Split::Test, 32).unwrap())
    });
}

fn bench_mapper_search(c: &mut Criterion) {
    let mapper = Mapper::new(Accelerator::eyeriss(), Dataflow::RowStationary);
    let layers = geometry::plain20_layers(32, 3);
    let deep = ConvWorkload::from_shape(&layers[14], 16); // a 64-channel layer
    c.bench_function("mapper_search_conv64", |bench| {
        bench.iter(|| mapper.search(black_box(&deep)).unwrap())
    });
}

fn bench_deploy(c: &mut Criterion) {
    let mut model = plain20_alf(10, 8, AlfBlockConfig::paper_default(), 5).unwrap();
    // Prune a little so stripping has work to do.
    for block in model.alf_blocks_mut() {
        for _ in 0..50 {
            block
                .autoencoder_step(5e-3, &PruneSchedule::paper_default())
                .unwrap();
        }
    }
    c.bench_function("deploy_compress_plain20_w8", |bench| {
        bench.iter(|| {
            deploy::Pipeline::new()
                .run(black_box(&model))
                .unwrap()
                .model
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul,
    bench_conv2d,
    bench_conv_backward,
    bench_alf_block_forward,
    bench_autoencoder_step,
    bench_training_step,
    bench_evaluator,
    bench_mapper_search,
    bench_deploy
);
criterion_group!(
    name = lowering;
    config = Criterion::default().sample_size(40);
    targets = bench_im2col,
    bench_col2im
);
criterion_main!(benches, lowering);
