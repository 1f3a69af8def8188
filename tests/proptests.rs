//! Property-based cross-crate invariants (proptest).

use alf::baselines::api::chained_cost;
use alf::core::autoencoder::WeightAutoencoder;
use alf::core::{ConvShape, NetworkCost, PruneSchedule};
use alf::hwmodel::{Accelerator, ConvWorkload, Dataflow, Mapper};
use alf::nn::activation::ActivationKind;
use alf::nn::ste;
use alf::tensor::init::Init;
use alf::tensor::ops::{
    col2im, conv2d, gemm_into, im2col, matmul, matmul_at, matmul_bt, reference, Conv2dSpec,
    Workspace,
};
use alf::tensor::rng::Rng;
use alf::tensor::Tensor;
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..5, 1usize..5, 1usize..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- tensor algebra ---------------------------------------------------

    #[test]
    fn matmul_is_linear_in_first_argument((m, k, n) in small_dims(), seed in 0u64..1000, alpha in -2.0f32..2.0) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[m, k], Init::Rand, &mut rng);
        let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
        let lhs = matmul(&a.scale(alpha), &b).unwrap();
        let rhs = matmul(&a, &b).unwrap().scale(alpha);
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    #[test]
    fn matmul_transpose_variants_agree((m, k, n) in small_dims(), seed in 0u64..1000) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[k, m], Init::Rand, &mut rng);
        let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
        let via_at = matmul_at(&a, &b).unwrap();
        let via_explicit = matmul(&a.transpose2().unwrap(), &b).unwrap();
        prop_assert!(via_at.allclose(&via_explicit, 1e-4));
        let c = Tensor::randn(&[m, k], Init::Rand, &mut rng);
        let d = Tensor::randn(&[n, k], Init::Rand, &mut rng);
        let via_bt = matmul_bt(&c, &d).unwrap();
        let via_explicit = matmul(&c, &d.transpose2().unwrap()).unwrap();
        prop_assert!(via_bt.allclose(&via_explicit, 1e-4));
    }

    #[test]
    fn conv2d_is_linear(seed in 0u64..1000, alpha in -2.0f32..2.0,
                        n in 1usize..3, ci in 1usize..4, co in 1usize..4,
                        k in 1usize..4, side in 4usize..8) {
        let spec = Conv2dSpec::new(k, 1, k / 2);
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[n, ci, side, side], Init::Rand, &mut rng);
        let w = Tensor::randn(&[co, ci, k, k], Init::Rand, &mut rng);
        let lhs = conv2d(&x.scale(alpha), &w, None, spec).unwrap();
        let rhs = conv2d(&x, &w, None, spec).unwrap().scale(alpha);
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col(seed in 0u64..1000, ci in 1usize..4,
                                   k in 1usize..4, stride in 1usize..3, side in 5usize..9) {
        let spec = Conv2dSpec::new(k, stride, k / 2);
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[1, ci, side, side], Init::Rand, &mut rng);
        let cols = im2col(&x, spec).unwrap();
        let y = Tensor::randn(cols.dims(), Init::Rand, &mut rng);
        let lhs = cols.dot(&y).unwrap();
        let back = col2im(&y, 1, ci, side, side, spec).unwrap();
        let rhs = x.dot(&back).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    // ---- ALF mechanics ----------------------------------------------------

    #[test]
    fn clip_zeroes_exactly_the_dead_zone(m in proptest::collection::vec(-1.0f32..1.0, 1..16),
                                         t in 0.0f32..0.5) {
        let tensor = Tensor::from_vec(m.clone(), &[m.len()]).unwrap();
        let clipped = ste::clip_tensor(&tensor, t);
        for (orig, out) in m.iter().zip(clipped.data()) {
            if orig.abs() > t {
                prop_assert_eq!(*out, *orig);
            } else {
                prop_assert_eq!(*out, 0.0);
            }
        }
        let zf = ste::zero_fraction(&tensor, t);
        let expected = m.iter().filter(|v| v.abs() <= t).count() as f32 / m.len() as f32;
        prop_assert_eq!(zf, expected);
    }

    #[test]
    fn masked_code_channels_are_zero_under_any_mask(seed in 0u64..500,
                                                    mask_bits in 1u32..15) {
        let mut rng = Rng::new(seed);
        let mut ae = WeightAutoencoder::new(2, 4, 3, Init::Xavier, ActivationKind::Tanh, 0.5, &mut rng);
        // Drive mask entries inside/outside the dead zone per the bit mask.
        for j in 0..4 {
            let alive = (mask_bits >> j) & 1 == 1;
            ae.set_mask_value(j, if alive { 1.0 } else { 0.1 });
        }
        let w = Tensor::randn(&[4, 2, 3, 3], Init::He, &mut rng);
        let code = ae.code(&w).unwrap();
        let fan = 18;
        for j in 0..4 {
            let alive = (mask_bits >> j) & 1 == 1;
            let row_zero = code.data()[j * fan..(j + 1) * fan].iter().all(|&v| v == 0.0);
            prop_assert_eq!(!alive, row_zero, "channel {} alive={}", j, alive);
        }
    }

    #[test]
    fn nu_prune_is_bounded_and_decreasing(slope in 1.0f32..10.0, pr in 0.0f32..1.0,
                                          theta in 0.0f32..1.0) {
        let s = PruneSchedule::new(slope, pr);
        let nu = s.nu(theta);
        prop_assert!((0.0..=1.0).contains(&nu));
        prop_assert!(s.nu((theta + 0.05).min(1.0)) <= nu + 1e-6);
    }

    #[test]
    fn eq2_bound_is_the_break_even_point(ci in 1usize..64, co in 1usize..64, k in 1usize..6) {
        let shape = ConvShape::new("l", ci, co, k, 1, 8, 8);
        let bound = shape.c_code_max();
        if bound >= 1 {
            prop_assert!(shape.alf_ops(bound) <= shape.ops());
        }
        prop_assert!(shape.alf_ops(bound + 1) > shape.ops());
    }

    // ---- baselines ----------------------------------------------------------

    #[test]
    fn chained_cost_never_exceeds_full_cost(keeps in proptest::collection::vec(1usize..8, 3)) {
        let shapes = vec![
            ConvShape::new("a", 3, 8, 3, 1, 8, 8),
            ConvShape::new("b", 8, 8, 3, 1, 8, 8),
            ConvShape::new("c", 8, 8, 3, 2, 4, 4),
        ];
        let cost = chained_cost(&shapes, &keeps);
        let full = NetworkCost::of_layers(&shapes);
        prop_assert!(cost.params <= full.params);
        prop_assert!(cost.macs <= full.macs);
        // Monotone: keeping more filters never reduces cost.
        let mut more = keeps.clone();
        more[1] = (more[1] + 1).min(8);
        let cost_more = chained_cost(&shapes, &more);
        prop_assert!(cost_more.params >= cost.params);
    }

    // ---- accelerator model ----------------------------------------------------

    #[test]
    fn mapper_results_are_sane_for_random_layers(ci in 1usize..32, co in 1usize..32,
                                                 k in 1usize..4, side in 4usize..17) {
        let mapper = Mapper::new(Accelerator::eyeriss(), Dataflow::RowStationary);
        let w = ConvWorkload::from_shape(&ConvShape::new("l", ci, co, k, 1, side, side), 4);
        let r = mapper.search(&w).unwrap();
        prop_assert!(r.cost.total_energy() > 0.0);
        prop_assert!(r.cost.latency_cycles > 0.0);
        prop_assert!(r.cost.utilization > 0.0 && r.cost.utilization <= 1.0);
        // RF accesses follow the dataflow's per-MAC constant exactly.
        prop_assert_eq!(r.cost.rf_accesses, w.macs() as f64 * 3.0);
        // Fundamental lower bound: every input/weight/output word must cross
        // DRAM at least once.
        let min_dram = (w.input_words() + w.weight_words() + w.output_words()) as f64;
        prop_assert!(r.cost.dram_accesses >= min_dram - 1.0);
    }

    // ---- extensions -----------------------------------------------------------

    #[test]
    fn quantizer_error_bounded_by_half_step(values in proptest::collection::vec(-10.0f32..10.0, 1..64),
                                            bits in 2u8..12) {
        use alf::core::quant::Quantizer;
        let t = Tensor::from_vec(values.clone(), &[values.len()]).unwrap();
        let q = Quantizer::fit(&t, bits).unwrap();
        for &v in t.data() {
            let err = (q.round_trip(v) - v).abs();
            prop_assert!(err <= q.scale / 2.0 + 1e-5, "err {} step {}", err, q.scale);
        }
    }

    #[test]
    fn checkpoint_round_trips_for_any_width(width in 2usize..6, seed in 0u64..100) {
        use alf::core::checkpoint;
        use alf::core::models::plain20;
        use alf::nn::{Layer, RunCtx};
        let mut a = plain20(3, width).unwrap();
        let blob = checkpoint::save(&a);
        let mut b = plain20(3, width).unwrap();
        checkpoint::load(&mut b, &blob).unwrap();
        let x = Tensor::randn(&[1, 3, 8, 8], Init::Rand, &mut Rng::new(seed));
        prop_assert_eq!(
            a.forward(&x, &mut RunCtx::eval()).unwrap(),
            b.forward(&x, &mut RunCtx::eval()).unwrap()
        );
    }

    #[test]
    fn augment_preserves_shape_and_determinism(seed in 0u64..200, hflip in 0.0f32..1.0,
                                               shift in 0usize..3) {
        use alf::data::Augment;
        let policy = Augment { hflip_prob: hflip, max_shift: shift, noise: 0.01 };
        let run = || {
            let mut b = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 13) as f32);
            policy.apply(&mut b, &mut Rng::new(seed)).unwrap();
            b
        };
        let a = run();
        prop_assert_eq!(a.dims(), &[2, 3, 8, 8]);
        prop_assert_eq!(a, run());
    }

    #[test]
    fn geometric_median_stays_in_bounding_box(points in proptest::collection::vec(
        proptest::collection::vec(-5.0f32..5.0, 3), 1..10)) {
        let m = alf::baselines::geometric_median(&points, 100, 1e-5);
        for d in 0..3 {
            let lo = points.iter().map(|p| p[d]).fold(f32::INFINITY, f32::min);
            let hi = points.iter().map(|p| p[d]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(m[d] >= lo - 1e-3 && m[d] <= hi + 1e-3,
                         "dim {}: {} outside [{}, {}]", d, m[d], lo, hi);
        }
    }
}

// ---- blocked GEMM vs the seed loops ----------------------------------------
//
// The blocked kernel must agree with `reference::matmul` (the preserved
// seed implementation) on arbitrary shapes — including dimensions of 1 and
// sizes straddling the MR/NR/KC block boundaries — and must produce
// *bitwise identical* results for every worker-thread count, since each
// `C` element is accumulated by exactly one worker in a fixed order.

/// Relative Frobenius error between two buffers.
fn rel_err(got: &[f32], want: &[f32]) -> f64 {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&g, &w) in got.iter().zip(want.iter()) {
        num += f64::from(g - w) * f64::from(g - w);
        den += f64::from(w) * f64::from(w);
    }
    (num / den.max(1e-30)).sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_gemm_matches_reference_across_shapes(
        m in 1usize..40, k in 1usize..70, n in 1usize..40, seed in 0u64..1000) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[m, k], Init::Rand, &mut rng);
        let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
        let want = reference::matmul(&a, &b).unwrap();
        let mut ws = Workspace::new();
        let mut c = vec![0.0f32; m * n];
        gemm_into(&mut c, a.data(), false, b.data(), false, m, k, n, &mut ws, 1);
        prop_assert!(rel_err(&c, want.data()) < 1e-4,
                     "blocked vs reference diverge at {}x{}x{}", m, k, n);
    }

    #[test]
    fn blocked_gemm_transpose_flags_match_reference(
        m in 1usize..20, k in 1usize..40, n in 1usize..20,
        flags in 0u32..4, seed in 0u64..1000) {
        let (ta, tb) = (flags & 1 != 0, flags & 2 != 0);
        let mut rng = Rng::new(seed);
        // Stored layout honours the transpose flag; the product is always [m,n].
        let adims = if ta { [k, m] } else { [m, k] };
        let bdims = if tb { [n, k] } else { [k, n] };
        let a = Tensor::randn(&adims, Init::Rand, &mut rng);
        let b = Tensor::randn(&bdims, Init::Rand, &mut rng);
        let a_eff = if ta { a.transpose2().unwrap() } else { a.clone() };
        let b_eff = if tb { b.transpose2().unwrap() } else { b.clone() };
        let want = reference::matmul(&a_eff, &b_eff).unwrap();
        let mut ws = Workspace::new();
        let mut c = vec![0.0f32; m * n];
        gemm_into(&mut c, a.data(), ta, b.data(), tb, m, k, n, &mut ws, 1);
        prop_assert!(rel_err(&c, want.data()) < 1e-4,
                     "ta={} tb={} diverges at {}x{}x{}", ta, tb, m, k, n);
    }

    #[test]
    fn blocked_gemm_is_bitwise_deterministic_across_thread_counts(
        // m spans two MC=128 row blocks so multi-worker splits actually engage.
        m in 129usize..200, k in 1usize..48, n in 1usize..24, seed in 0u64..1000) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[m, k], Init::Rand, &mut rng);
        let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
        let mut ws = Workspace::new();
        let mut base = vec![0.0f32; m * n];
        gemm_into(&mut base, a.data(), false, b.data(), false, m, k, n, &mut ws, 1);
        for threads in [2usize, 3, 8] {
            let mut c = vec![0.0f32; m * n];
            gemm_into(&mut c, a.data(), false, b.data(), false, m, k, n, &mut ws, threads);
            let bitwise_equal = base
                .iter()
                .zip(c.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            prop_assert!(bitwise_equal,
                         "threads={} changes bits at {}x{}x{}", threads, m, k, n);
        }
    }
}

/// Degenerate dimensions: a zero-sized operand must yield an all-zero
/// (possibly empty) `C` without panicking, for every flag combination.
#[test]
fn blocked_gemm_handles_empty_dims() {
    let mut ws = Workspace::new();
    for (m, k, n) in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1)] {
        for flags in 0..4u32 {
            let (ta, tb) = (flags & 1 != 0, flags & 2 != 0);
            let a = vec![0.5f32; m * k];
            let b = vec![0.5f32; k * n];
            let mut c = vec![f32::NAN; m * n];
            gemm_into(&mut c, &a, ta, &b, tb, m, k, n, &mut ws, 1);
            let want = if k == 0 { 0.0 } else { 0.25 * k as f32 };
            assert!(
                c.iter().all(|&v| (v - want).abs() < 1e-5),
                "({m},{k},{n}) ta={ta} tb={tb}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ---- deployment: BN folding ------------------------------------------

    /// Folding batch-norm into conv weights at deploy time must be
    /// numerically equivalent to running the BN layers in f32, for any
    /// random conv→BN→ReLU stack — depth, widths, input size and all
    /// parameters drawn at random, with running statistics populated by
    /// genuine train-mode forwards.
    #[test]
    fn bn_folding_matches_unfolded_pipeline(seed in 0u64..500, depth in 1usize..4,
                                            widths in proptest::collection::vec(2usize..6, 3),
                                            side in 6usize..10) {
        use alf::core::deploy::Pipeline;
        use alf::core::model::{CnnModel, ConvKind, ConvUnit, Unit};
        use alf::nn::conv::Conv2d;
        use alf::nn::linear::Linear;
        use alf::nn::pool::GlobalAvgPool;
        use alf::nn::{Layer, RunCtx};

        let mut rng = Rng::new(seed);
        let mut units = Vec::new();
        let mut c_in = 3usize;
        for d in 0..depth {
            let c_out = widths[d % widths.len()];
            units.push(Unit::Conv(ConvUnit::new(
                format!("conv{d}"),
                ConvKind::Standard(Conv2d::new(c_in, c_out, 3, 1, 1, true, Init::Rand, &mut rng)),
                Some(ActivationKind::Relu),
            )));
            c_in = c_out;
        }
        units.push(Unit::GlobalPool(GlobalAvgPool::new()));
        units.push(Unit::Classifier(Linear::new(c_in, 4, Init::Rand, &mut rng)));
        let mut model = CnnModel::from_units("prop-bn", units, 4).unwrap();

        // Move γ/β off their identity init and populate running stats
        // with train-mode batches, so folding has real work to do.
        for cu in model.conv_units_mut() {
            if let Some(bn) = cu.bn_mut() {
                let c = bn.channels();
                *bn.scale_mut() = Tensor::randn(&[c], Init::Rand, &mut rng).map(|v| 1.0 + 0.3 * v);
                *bn.shift_mut() = Tensor::randn(&[c], Init::Rand, &mut rng).scale(0.2);
            }
        }
        let mut train_ctx = RunCtx::train();
        for _ in 0..3 {
            let batch = Tensor::randn(&[4, 3, side, side], Init::Rand, &mut rng);
            model.forward(&batch, &mut train_ctx).unwrap();
        }

        let mut unfolded = Pipeline::new().run(&model).unwrap().model;
        let mut folded = Pipeline::new().fold_bn(true).run(&model).unwrap().model;
        prop_assert!(folded.conv_units().iter().all(|u| u.bn().is_none()));

        let x = Tensor::randn(&[2, 3, side, side], Init::Rand, &mut rng);
        let y_bn = unfolded.forward(&x, &mut RunCtx::eval()).unwrap();
        let y_fold = folded.forward(&x, &mut RunCtx::eval()).unwrap();
        prop_assert!(y_bn.allclose(&y_fold, 1e-4),
                     "folded output diverges (depth {depth}, side {side})");
    }
}

// ---- span conv lowering vs the scalar loops ---------------------------------
//
// im2col (f32 and i8) and col2im move whole spans of a row; the per-tap
// loops they replaced live on in `reference`. Each case sweeps every
// kernel {1,2,3,5} × stride {1,2,3} × pad 0..=3 (pad at or past the
// kernel included) over a random h × w in 1..=13, and the outputs must be
// bitwise equal. Destinations start as sentinels, so a padding tap the
// span code forgets to zero shows up; geometries whose padded input
// cannot hold the kernel must be typed errors.

/// Index of the first element whose bits differ, if any.
fn first_diff<T: Copy>(a: &[T], b: &[T], bits: impl Fn(T) -> u32) -> Option<usize> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).position(|(&x, &y)| bits(x) != bits(y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn span_lowering_is_bitwise_equal_to_scalar_loops(
        seed in 0u64..1000, n in 1usize..3, ci in 1usize..3, h in 1usize..14, w in 1usize..14) {
        use alf::tensor::ops::{col2im_into, im2col_i8_into, im2col_into};

        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[n, ci, h, w], Init::Rand, &mut rng);
        let x8: Vec<i8> = x.data().iter().map(|v| (v * 127.0) as i8).collect();
        for k in [1, 2, 3, 5] {
            for stride in [1, 2, 3] {
                for pad in 0..4 {
                    let spec = Conv2dSpec::new(k, stride, pad);
                    if h + 2 * pad < k || w + 2 * pad < k {
                        prop_assert!(im2col_into(&mut [], &x, spec).is_err());
                        prop_assert!(col2im_into(&mut [], &[], n, ci, h, w, spec).is_err());
                        continue;
                    }
                    let (ho, wo) = spec.output_hw(h, w);
                    let len = ci * k * k * n * ho * wo;
                    let at = format!("k{k} s{stride} p{pad} {n}x{ci}x{h}x{w}");

                    let mut fast = vec![7.5f32; len];
                    let mut slow = vec![-3.25f32; len];
                    im2col_into(&mut fast, &x, spec).unwrap();
                    reference::im2col_into(&mut slow, x.data(), n, ci, h, w, spec);
                    let diff = first_diff(&fast, &slow, f32::to_bits);
                    prop_assert!(diff.is_none(), "f32 im2col {at}: element {diff:?}");

                    let mut fast8 = vec![7i8; len];
                    let mut slow8 = vec![-3i8; len];
                    im2col_i8_into(&mut fast8, &x8, n, ci, h, w, spec);
                    reference::im2col_into(&mut slow8, &x8, n, ci, h, w, spec);
                    let diff = first_diff(&fast8, &slow8, |v| v as u8 as u32);
                    prop_assert!(diff.is_none(), "i8 im2col {at}: element {diff:?}");

                    let cols = Tensor::randn(&[len], Init::Rand, &mut rng);
                    let mut fast = vec![7.5f32; x.len()];
                    let mut slow = vec![-3.25f32; x.len()];
                    col2im_into(&mut fast, cols.data(), n, ci, h, w, spec).unwrap();
                    reference::col2im_into(&mut slow, cols.data(), n, ci, h, w, spec);
                    let diff = first_diff(&fast, &slow, f32::to_bits);
                    prop_assert!(diff.is_none(), "col2im {at}: element {diff:?}");
                }
            }
        }
    }
}
