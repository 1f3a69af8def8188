use std::ops::Range;

use crate::{ShapeError, Tensor};

use super::matmul;

/// Geometry of a 2-D convolution: square kernel, symmetric stride/padding.
///
/// # Example
///
/// ```
/// use alf_tensor::ops::Conv2dSpec;
///
/// let spec = Conv2dSpec::new(3, 1, 1); // 3x3, stride 1, "same" padding
/// assert_eq!(spec.output_hw(32, 32), (32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Conv2dSpec {
    /// Square kernel size `K`.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub pad: usize,
}

impl Conv2dSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            kernel,
            stride,
            pad,
        }
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics when the padded input is smaller than the kernel.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        conv_output_hw(h, w, self.kernel, self.stride, self.pad)
    }

    /// [`Conv2dSpec::output_hw`] as a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns an error when the padded input is smaller than the kernel.
    pub fn try_output_hw(&self, h: usize, w: usize) -> Result<(usize, usize), ShapeError> {
        let (k, pad) = (self.kernel, self.pad);
        if h + 2 * pad < k || w + 2 * pad < k {
            return Err(ShapeError::new(
                "conv output size",
                format!("padded input {h}x{w} (+{pad}) smaller than kernel {k}"),
            ));
        }
        Ok(self.output_hw(h, w))
    }
}

/// Output spatial size of a convolution (`floor` convention).
///
/// # Panics
///
/// Panics when the padded input is smaller than the kernel.
pub fn conv_output_hw(h: usize, w: usize, k: usize, stride: usize, pad: usize) -> (usize, usize) {
    assert!(
        h + 2 * pad >= k && w + 2 * pad >= k,
        "padded input {h}x{w} (+{pad}) smaller than kernel {k}"
    );
    (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    )
}

/// Unfolds an `NCHW` input into the column matrix used by GEMM convolution.
///
/// The result has shape `[c_in·k·k, n·h_out·w_out]`; column `(b, y, x)`
/// contains the receptive field of output pixel `(y, x)` of batch element
/// `b`, flattened channel-major. Out-of-bounds taps read as zero
/// (zero padding).
///
/// # Errors
///
/// Returns an error unless `input` is rank 4 and its padded size holds
/// the kernel.
pub fn im2col(input: &Tensor, spec: Conv2dSpec) -> Result<Tensor, ShapeError> {
    let [n, ci, h, w] = rank4("im2col", input)?;
    let g = Lowering::new("im2col", n, ci, h, w, spec)?;
    let mut out = Tensor::zeros(&[g.rows(), g.cols()]);
    unfold(out.data_mut(), input.data(), &g);
    Ok(out)
}

/// [`im2col`] into a caller-owned buffer of exactly
/// `ci·k·k · n·h_out·w_out` elements — the allocation-free variant the
/// `alf-nn` conv layer uses with its per-layer workspace. Every element
/// of the buffer is written exactly once, padding taps as zero.
///
/// # Errors
///
/// Returns an error unless `input` is rank 4, its padded size holds the
/// kernel and `dst` has the exact output length.
pub fn im2col_into(dst: &mut [f32], input: &Tensor, spec: Conv2dSpec) -> Result<(), ShapeError> {
    let [n, ci, h, w] = rank4("im2col_into", input)?;
    let g = Lowering::new("im2col_into", n, ci, h, w, spec)?;
    if dst.len() != g.rows() * g.cols() {
        return Err(ShapeError::new(
            "im2col_into",
            format!(
                "buffer has {} elements, expected {}x{}",
                dst.len(),
                g.rows(),
                g.cols()
            ),
        ));
    }
    unfold(dst, input.data(), &g);
    Ok(())
}

/// The checked geometry of one im2col or col2im call: an `NCHW` input of
/// `n × ci × h × w` whose padded size holds the kernel, and the
/// `h_out × w_out` output grid that implies.
pub(super) struct Lowering {
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    ho: usize,
    wo: usize,
}

impl Lowering {
    /// Checks the geometry once; the loops that walk it trust it.
    ///
    /// # Errors
    ///
    /// Returns an error naming `op` when the padded input is smaller than
    /// the kernel.
    pub(super) fn new(
        op: &str,
        n: usize,
        ci: usize,
        h: usize,
        w: usize,
        spec: Conv2dSpec,
    ) -> Result<Self, ShapeError> {
        let (ho, wo) = spec
            .try_output_hw(h, w)
            .map_err(|e| ShapeError::new(op, e.detail()))?;
        Ok(Self {
            n,
            ci,
            h,
            w,
            spec,
            ho,
            wo,
        })
    }

    /// Rows of the column matrix: `ci·k·k`.
    pub(super) fn rows(&self) -> usize {
        self.ci * self.spec.kernel * self.spec.kernel
    }

    /// Columns of the column matrix: `n·h_out·w_out`.
    pub(super) fn cols(&self) -> usize {
        self.n * self.ho * self.wo
    }

    /// Elements of the `NCHW` input: `n·ci·h·w`.
    pub(super) fn pixels(&self) -> usize {
        self.n * self.ci * self.h * self.w
    }

    /// Visits every output row of every tap in `(b, c, ky, kx, oy)` order
    /// as `f(at, xs, px)`: `at` indexes the column matrix at `(row, b, oy,
    /// 0)`, `xs` is the `ox` span whose taps land inside the image, and
    /// `px` indexes the `NCHW` input at the tap of `ox = xs.start` — `None`
    /// when the whole row is padding. Live taps of a row are `stride`
    /// apart in the input.
    fn for_each_run(&self, mut f: impl FnMut(usize, Range<usize>, Option<usize>)) {
        let Conv2dSpec {
            kernel: k,
            stride,
            pad,
        } = self.spec;
        let (h, w, ho, wo) = (self.h, self.w, self.ho, self.wo);
        let cols = self.cols();
        for b in 0..self.n {
            for c in 0..self.ci {
                let plane = (b * self.ci + c) * h * w;
                for ky in 0..k {
                    let ys = live_span(ky, self.spec, h, ho);
                    for kx in 0..k {
                        let xs = live_span(kx, self.spec, w, wo);
                        let first = ((c * k + ky) * k + kx) * cols + b * ho * wo;
                        for oy in 0..ho {
                            let px = (ys.contains(&oy) && !xs.is_empty()).then(|| {
                                plane + (oy * stride + ky - pad) * w + xs.start * stride + kx - pad
                            });
                            f(first + oy * wo, xs.clone(), px);
                        }
                    }
                }
            }
        }
    }
}

/// The half-open range of output positions `o < out` whose tap
/// `o·stride + off − pad` lands in `0..len`. Empty ranges start at 0.
fn live_span(off: usize, spec: Conv2dSpec, len: usize, out: usize) -> Range<usize> {
    let Conv2dSpec { stride, pad, .. } = spec;
    let lo = pad.saturating_sub(off).div_ceil(stride);
    let hi = (len + pad).saturating_sub(off).div_ceil(stride).min(out);
    if lo < hi {
        lo..hi
    } else {
        0..0
    }
}

/// The im2col loop nest shared by the f32 ([`im2col_into`]) and int8
/// ([`super::im2col_i8_into`]) lowerings: copies every in-bounds tap of
/// the `NCHW` buffer `src` into the `[ci·k·k, n·h_out·w_out]` column
/// matrix `dst` and zeroes the padding taps, so each element of `dst` is
/// written once. A stride-1 row is one slice copy. Callers check the
/// buffer lengths.
pub(super) fn unfold<T: Copy + Default>(dst: &mut [T], src: &[T], g: &Lowering) {
    let (stride, wo) = (g.spec.stride, g.wo);
    g.for_each_run(|at, xs, px| {
        let row = &mut dst[at..at + wo];
        let Some(px) = px else {
            row.fill(T::default());
            return;
        };
        row[..xs.start].fill(T::default());
        row[xs.end..].fill(T::default());
        let live = &mut row[xs];
        if stride == 1 {
            live.copy_from_slice(&src[px..px + live.len()]);
        } else {
            let taps = &src[px..px + (live.len() - 1) * stride + 1];
            for (d, &s) in live.iter_mut().zip(taps.iter().step_by(stride)) {
                *d = s;
            }
        }
    });
}

/// Folds a column matrix back into an `NCHW` tensor, *accumulating*
/// overlapping contributions — the adjoint of [`im2col`], used for the
/// input-gradient of convolution.
///
/// # Errors
///
/// Returns an error when the padded input is smaller than the kernel or
/// `cols` does not have the shape `im2col` would have produced for the
/// given geometry.
pub fn col2im(
    cols: &Tensor,
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    let g = Lowering::new("col2im", n, ci, h, w, spec)?;
    let expected = [g.rows(), g.cols()];
    if cols.dims() != expected {
        return Err(ShapeError::new(
            "col2im",
            format!(
                "got {}, expected [{}x{}]",
                cols.shape(),
                expected[0],
                expected[1]
            ),
        ));
    }
    let mut out = Tensor::zeros(&[n, ci, h, w]);
    fold(out.data_mut(), cols.data(), &g);
    Ok(out)
}

/// [`col2im`] into a caller-owned buffer of exactly `n·ci·h·w` elements —
/// the allocation-free variant used by the `alf-nn` conv backward pass.
/// The buffer is zeroed, then overlapping contributions accumulate.
///
/// # Errors
///
/// Returns an error when the padded input is smaller than the kernel or
/// either buffer length disagrees with the stated geometry.
pub fn col2im_into(
    dst: &mut [f32],
    cols: &[f32],
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
) -> Result<(), ShapeError> {
    let g = Lowering::new("col2im_into", n, ci, h, w, spec)?;
    if cols.len() != g.rows() * g.cols() {
        return Err(ShapeError::new(
            "col2im_into",
            format!(
                "cols has {} elements, expected {}x{}",
                cols.len(),
                g.rows(),
                g.cols()
            ),
        ));
    }
    if dst.len() != g.pixels() {
        return Err(ShapeError::new(
            "col2im_into",
            format!(
                "buffer has {} elements, expected {n}x{ci}x{h}x{w}",
                dst.len()
            ),
        ));
    }
    fold(dst, cols, &g);
    Ok(())
}

/// The col2im loop nest: zeroes `dst`, then adds every live tap of the
/// column matrix `cols` into its input pixel. Each pixel accumulates its
/// `(ky, kx)` contributions in row-major kernel order, as the per-element
/// loops in [`super::reference::col2im_into`] do, so the sums are bitwise
/// equal. Callers check the buffer lengths.
fn fold(dst: &mut [f32], cols: &[f32], g: &Lowering) {
    let stride = g.spec.stride;
    dst.fill(0.0);
    g.for_each_run(|at, xs, px| {
        let Some(px) = px else { return };
        let live = &cols[at + xs.start..at + xs.end];
        if stride == 1 {
            for (d, &s) in dst[px..px + live.len()].iter_mut().zip(live) {
                *d += s;
            }
        } else {
            let taps = &mut dst[px..px + (live.len() - 1) * stride + 1];
            for (d, &s) in taps.iter_mut().step_by(stride).zip(live) {
                *d += s;
            }
        }
    });
}

/// 2-D convolution forward pass: `NCHW` input, `[c_out, c_in, k, k]`
/// weights, optional per-channel bias.
///
/// Implemented as `im2col` followed by a single GEMM, which is also how the
/// backward pass (in `alf-nn`) consumes the saved column matrix.
///
/// # Errors
///
/// Returns an error when ranks mismatch, the weight's `c_in` differs from
/// the input's, or `bias` (when given) is not `[c_out]`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    let [n, ci, h, w] = rank4("conv2d input", input)?;
    let [co, wci, kh, kw] = rank4("conv2d weight", weight)?;
    if wci != ci {
        return Err(ShapeError::new(
            "conv2d",
            format!("input channels {ci} vs weight channels {wci}"),
        ));
    }
    if kh != spec.kernel || kw != spec.kernel {
        return Err(ShapeError::new(
            "conv2d",
            format!("weight kernel {kh}x{kw} vs spec {}", spec.kernel),
        ));
    }
    if let Some(b) = bias {
        if b.dims() != [co] {
            return Err(ShapeError::new(
                "conv2d",
                format!("bias {} vs c_out {co}", b.shape()),
            ));
        }
    }
    let (ho, wo) = spec
        .try_output_hw(h, w)
        .map_err(|e| ShapeError::new("conv2d", e.detail()))?;
    let cols = im2col(input, spec)?;
    let wmat = weight.reshape(&[co, ci * spec.kernel * spec.kernel])?;
    // [co, ci·k²] × [ci·k², n·ho·wo] → [co, n·ho·wo]
    let prod = matmul(&wmat, &cols)?;
    // Rearrange [co, n·ho·wo] → [n, co, ho, wo].
    let mut out = Tensor::zeros(&[n, co, ho, wo]);
    let pd = prod.data();
    let od = out.data_mut();
    let hw = ho * wo;
    for c in 0..co {
        let bias_v = bias.map_or(0.0, |b| b.data()[c]);
        for b in 0..n {
            let src = &pd[c * n * hw + b * hw..c * n * hw + (b + 1) * hw];
            let dst = &mut od[(b * co + c) * hw..(b * co + c + 1) * hw];
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = s + bias_v;
            }
        }
    }
    Ok(out)
}

fn rank4(op: &str, t: &Tensor) -> Result<[usize; 4], ShapeError> {
    match t.dims() {
        &[a, b, c, d] => Ok([a, b, c, d]),
        _ => Err(ShapeError::new(
            op,
            format!("expected rank-4 tensor, got {}", t.shape()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::rng::Rng;

    /// Direct (slow) convolution used as a reference implementation.
    fn conv_reference(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Tensor {
        let (n, ci, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let co = weight.dims()[0];
        let k = spec.kernel;
        let (ho, wo) = spec.output_hw(h, w);
        let mut out = Tensor::zeros(&[n, co, ho, wo]);
        for b in 0..n {
            for o in 0..co {
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = 0.0;
                        for c in 0..ci {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[b, c, iy as usize, ix as usize])
                                        * weight.at(&[o, c, ky, kx]);
                                }
                            }
                        }
                        *out.at_mut(&[b, o, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn output_hw_matches_floor_formula() {
        assert_eq!(conv_output_hw(32, 32, 3, 1, 1), (32, 32));
        assert_eq!(conv_output_hw(32, 32, 3, 2, 1), (16, 16));
        assert_eq!(conv_output_hw(7, 7, 3, 1, 0), (5, 5));
        assert_eq!(conv_output_hw(224, 224, 7, 2, 3), (112, 112));
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn output_hw_rejects_tiny_input() {
        conv_output_hw(2, 2, 5, 1, 0);
    }

    #[test]
    fn gemm_conv_matches_reference() {
        let mut rng = Rng::new(7);
        for &(n, ci, co, h, k, s, p) in &[
            (1, 1, 1, 5, 3, 1, 1),
            (2, 3, 4, 8, 3, 1, 1),
            (1, 2, 3, 9, 3, 2, 1),
            (2, 4, 2, 6, 1, 1, 0),
            (1, 3, 5, 7, 5, 1, 2),
            (1, 2, 2, 8, 3, 2, 0),
        ] {
            let spec = Conv2dSpec::new(k, s, p);
            let x = Tensor::randn(&[n, ci, h, h], Init::Rand, &mut rng);
            let wt = Tensor::randn(&[co, ci, k, k], Init::Rand, &mut rng);
            let fast = conv2d(&x, &wt, None, spec).unwrap();
            let slow = conv_reference(&x, &wt, spec);
            assert!(
                fast.allclose(&slow, 1e-4),
                "case {n} {ci} {co} {h} {k} {s} {p}"
            );
        }
    }

    #[test]
    fn bias_is_added_per_channel() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let wt = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let y = conv2d(&x, &wt, Some(&b), Conv2dSpec::new(1, 1, 0)).unwrap();
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.5);
        assert_eq!(y.at(&[0, 1, 2, 0]), -2.0);
    }

    #[test]
    fn conv2d_validates_shapes() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::zeros(&[1, 3, 8, 8]);
        assert!(conv2d(&x, &Tensor::zeros(&[4, 2, 3, 3]), None, spec).is_err());
        assert!(conv2d(&x, &Tensor::zeros(&[4, 3, 5, 5]), None, spec).is_err());
        let w_ok = Tensor::zeros(&[4, 3, 3, 3]);
        assert!(conv2d(&x, &w_ok, Some(&Tensor::zeros(&[3])), spec).is_err());
        assert!(conv2d(&Tensor::zeros(&[3, 8, 8]), &w_ok, None, spec).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property the conv backward pass relies on.
        let mut rng = Rng::new(11);
        let spec = Conv2dSpec::new(3, 2, 1);
        let (n, ci, h, w) = (2, 3, 7, 7);
        let x = Tensor::randn(&[n, ci, h, w], Init::Rand, &mut rng);
        let cols = im2col(&x, spec).unwrap();
        let y = Tensor::randn(cols.dims(), Init::Rand, &mut rng);
        let lhs = cols.dot(&y).unwrap();
        let back = col2im(&y, n, ci, h, w, spec).unwrap();
        let rhs = x.dot(&back).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        let mut rng = Rng::new(19);
        let spec = Conv2dSpec::new(3, 2, 1);
        let (n, ci, h, w) = (2, 3, 7, 7);
        let x = Tensor::randn(&[n, ci, h, w], Init::Rand, &mut rng);
        let cols = im2col(&x, spec).unwrap();
        let mut cols_buf = vec![f32::NAN; cols.data().len()];
        im2col_into(&mut cols_buf, &x, spec).unwrap();
        assert_eq!(cols.data(), &cols_buf[..]);

        let y = Tensor::randn(cols.dims(), Init::Rand, &mut rng);
        let folded = col2im(&y, n, ci, h, w, spec).unwrap();
        let mut fold_buf = vec![f32::NAN; n * ci * h * w];
        col2im_into(&mut fold_buf, y.data(), n, ci, h, w, spec).unwrap();
        assert_eq!(folded.data(), &fold_buf[..]);
    }

    #[test]
    fn into_variants_validate_buffer_lengths() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        assert!(im2col_into(&mut [0.0; 3], &x, spec).is_err());
        assert!(col2im_into(&mut [0.0; 16], &[0.0; 3], 1, 1, 4, 4, spec).is_err());
        assert!(col2im_into(&mut [0.0; 5], &[0.0; 144], 1, 1, 4, 4, spec).is_err());
    }

    #[test]
    fn input_smaller_than_kernel_is_a_typed_error() {
        // k3 p0 on a 1x1 (or 2x2) input: every entry point reports a
        // ShapeError naming itself instead of panicking in conv_output_hw.
        let spec = Conv2dSpec::new(3, 1, 0);
        let x = Tensor::zeros(&[1, 1, 1, 1]);
        let err = im2col_into(&mut [0.0; 9], &x, spec).unwrap_err();
        assert_eq!(err.op(), "im2col_into");
        assert!(err.detail().contains("smaller than kernel"), "{err}");
        assert_eq!(im2col(&x, spec).unwrap_err().op(), "im2col");
        let err = col2im_into(&mut [0.0; 1], &[], 1, 1, 1, 1, spec).unwrap_err();
        assert_eq!(err.op(), "col2im_into");
        assert!(err.detail().contains("smaller than kernel"), "{err}");
        assert_eq!(
            col2im(&Tensor::zeros(&[9, 1]), 1, 1, 1, 1, spec)
                .unwrap_err()
                .op(),
            "col2im"
        );
        let wt = Tensor::zeros(&[4, 2, 3, 3]);
        let err = conv2d(&Tensor::zeros(&[1, 2, 2, 2]), &wt, None, spec).unwrap_err();
        assert_eq!(err.op(), "conv2d");
        assert!(spec.try_output_hw(2, 2).is_err());
        assert_eq!(spec.try_output_hw(3, 4).unwrap(), (1, 2));
    }

    #[test]
    fn col2im_validates_shape() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let bad = Tensor::zeros(&[5, 5]);
        assert!(col2im(&bad, 1, 1, 4, 4, spec).is_err());
    }

    #[test]
    fn im2col_zero_padding_reads_zero() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let cols = im2col(&x, Conv2dSpec::new(3, 1, 1)).unwrap();
        // Corner output (0,0): only the 4 in-bounds taps are 1.
        let col0: f32 = (0..9).map(|r| cols.at(&[r, 0])).sum();
        assert_eq!(col0, 4.0);
    }

    #[test]
    fn pointwise_conv_is_channel_mix() {
        // 1x1 conv must equal a per-pixel matrix multiply over channels.
        let mut rng = Rng::new(13);
        let x = Tensor::randn(&[1, 3, 4, 4], Init::Rand, &mut rng);
        let wt = Tensor::randn(&[2, 3, 1, 1], Init::Rand, &mut rng);
        let y = conv2d(&x, &wt, None, Conv2dSpec::new(1, 1, 0)).unwrap();
        let expected = {
            let mut e = Tensor::zeros(&[1, 2, 4, 4]);
            for o in 0..2 {
                for c in 0..3 {
                    for p in 0..16 {
                        let (py, px) = (p / 4, p % 4);
                        *e.at_mut(&[0, o, py, px]) += wt.at(&[o, c, 0, 0]) * x.at(&[0, c, py, px]);
                    }
                }
            }
            e
        };
        assert!(y.allclose(&expected, 1e-5));
    }
}
