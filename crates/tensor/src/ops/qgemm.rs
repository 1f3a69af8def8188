//! Int8 companion of the blocked [`gemm`](super::gemm) kernel.
//!
//! The quantized deployment path runs convolutions as `i8×i8→i32` matrix
//! products: weights and activations are symmetric int8, accumulation is
//! exact in i32, and requantization back to i8 happens on store (in
//! `alf-core::qmodel`, where the scales live). This module provides the
//! blocked product and the i8 im2col that feeds it.
//!
//! The blocking mirrors the f32 driver — [`NC`]-wide column strips,
//! [`KC`]-deep slabs packed once into [`NR`]-column panels, [`MR`]-row `A`
//! panels streamed against them — and the register tile lives in
//! `alf-gemm-kernels` for the same codegen-isolation reason as the f32
//! tile (see that crate's docs). The packing routines widen the i8
//! operands into f32 panel slots: the micro-kernel then accumulates in
//! f32, which is *exact* for these integer values as long as partial sums
//! stay below 2²⁴ — guaranteed here because `KC · 127² < 2²⁴` (see the
//! kernel's docs for the full argument). The result is therefore still
//! bit-identical to a naive i32 triple loop by construction; there is no
//! evaluation-order subtlety to defend, only cache behaviour.
//!
//! The driver is single-threaded on purpose: the conv shapes the int8
//! path runs (`m = c_out ≤ 64` for Plain-20) never span more than one
//! [`MC`](super::gemm::MC) row block, which is exactly the unit the f32
//! driver partitions across workers — it, too, runs these shapes on one
//! thread. Serving-level parallelism comes from replica workers instead.

use super::conv::{unfold, Lowering};
use super::gemm::{KC, MC, NC};
use super::workspace::Workspace;
use super::Conv2dSpec;
use alf_gemm_kernels::{microkernel_i8_into, MR, NR};

/// `C = A · B` for int8 operands with exact i32 accumulation.
///
/// `A` is `[m, k]` row-major i8, `B` is `[k, n]` row-major i8, `C` is
/// `[m, n]` row-major i32 and is fully overwritten. Packing panels come
/// from `ws` (`qgemm_apack` / `qgemm_bpack` f32 slots — the i8 values are
/// widened at pack time), so steady-state calls are allocation-free.
///
/// # Panics
///
/// Panics when a buffer length disagrees with the stated dimensions.
pub fn gemm_i8_into(
    c: &mut [i32],
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    ws: &mut Workspace,
) {
    assert_eq!(c.len(), m * n, "gemm_i8: C buffer is not [{m}x{n}]");
    assert_eq!(a.len(), m * k, "gemm_i8: A buffer is not [{m}x{k}]");
    assert_eq!(b.len(), k * n, "gemm_i8: B buffer is not [{k}x{n}]");
    c.fill(0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kmax = k.min(KC);
    let ncmax = n.min(NC).div_ceil(NR) * NR;
    let mcmax = m.min(MC).div_ceil(MR) * MR;
    let mut bpack = ws.take("qgemm_bpack", kmax * ncmax);
    let mut apack = ws.take("qgemm_apack", mcmax * kmax);

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b_i8(&mut bpack, b, n, pc, kc, jc, nc);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a_i8(&mut apack, a, k, ic, mc, pc, kc);
                let j_panels = nc.div_ceil(NR);
                for ip in 0..mc.div_ceil(MR) {
                    let apanel = &apack[ip * kc * MR..(ip + 1) * kc * MR];
                    let rbase = ic + ip * MR;
                    let rlim = MR.min(m - rbase).min(mc - ip * MR);
                    for jp in 0..j_panels {
                        let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
                        let cbase = jc + jp * NR;
                        let clim = NR.min(nc - jp * NR);
                        let coff = rbase * n + cbase;
                        let cend = coff + (rlim - 1) * n + clim;
                        microkernel_i8_into(apanel, bpanel, &mut c[coff..cend], n, rlim, clim);
                    }
                }
                ic += mc;
            }
            pc += kc;
        }
        jc += nc;
    }
    ws.give("qgemm_bpack", bpack);
    ws.give("qgemm_apack", apack);
}

/// Packs `A[i0..i0+mc, p0..p0+kc]` into `MR`-row f32 panels, widening
/// each i8 value and zero-padding rows past `mc` — the i8 twin of the f32
/// `pack_a` (no transpose or gather: quantized weights are always stored
/// `[c_out, ci·k²]` row-major).
fn pack_a_i8(apack: &mut [f32], a: &[i8], k: usize, i0: usize, mc: usize, p0: usize, kc: usize) {
    for ip in 0..mc.div_ceil(MR) {
        let panel = &mut apack[ip * kc * MR..(ip + 1) * kc * MR];
        for (p, out) in panel.chunks_exact_mut(MR).enumerate().take(kc) {
            for (r, slot) in out.iter_mut().enumerate() {
                let row = i0 + ip * MR + r;
                *slot = if row < i0 + mc {
                    f32::from(a[row * k + p0 + p])
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs `B[p0..p0+kc, j0..j0+nc]` into `NR`-column f32 panels, widening
/// each i8 value and zero-padding columns past `nc`.
fn pack_b_i8(bpack: &mut [f32], b: &[i8], n: usize, p0: usize, kc: usize, j0: usize, nc: usize) {
    for jp in 0..nc.div_ceil(NR) {
        let panel = &mut bpack[jp * kc * NR..(jp + 1) * kc * NR];
        for (p, out) in panel.chunks_exact_mut(NR).enumerate().take(kc) {
            for (r, slot) in out.iter_mut().enumerate() {
                let col = j0 + jp * NR + r;
                *slot = if col < j0 + nc {
                    f32::from(b[(p0 + p) * n + col])
                } else {
                    0.0
                };
            }
        }
    }
}

/// [`im2col_into`](super::im2col_into) for int8 activations: unfolds an
/// `NCHW` i8 buffer into the `[ci·k·k, n·h_out·w_out]` column matrix
/// [`gemm_i8_into`] consumes. Out-of-bounds taps read as exact zero — in
/// symmetric quantization the zero point *is* 0, so padding needs no
/// offset handling.
///
/// # Panics
///
/// Panics when the padded input is smaller than the kernel or a buffer
/// length disagrees with the stated geometry.
#[allow(clippy::too_many_arguments)] // mirrors the f32 im2col geometry args
pub fn im2col_i8_into(
    dst: &mut [i8],
    src: &[i8],
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
) {
    let g = Lowering::new("im2col_i8_into", n, ci, h, w, spec).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(src.len(), g.pixels(), "im2col_i8: bad input length");
    assert_eq!(
        dst.len(),
        g.rows() * g.cols(),
        "im2col_i8: bad buffer length"
    );
    unfold(dst, src, &g);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_i8(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p] as i32;
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j] as i32;
                }
            }
        }
        c
    }

    fn operands(m: usize, k: usize, n: usize) -> (Vec<i8>, Vec<i8>) {
        // Walks the full i8 range including ±127 and -128.
        let a: Vec<i8> = (0..m * k)
            .map(|i| ((i * 61 + 7) % 256) as u8 as i8)
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|i| ((i * 149 + 3) % 256) as u8 as i8)
            .collect();
        (a, b)
    }

    #[test]
    fn blocked_i8_gemm_is_bitwise_equal_to_scalar_reference() {
        // Integer math must be exact, not approximate: every shape —
        // including ones that straddle MC/KC/NC block boundaries and
        // ragged MR/NR edges — must match the triple loop bit for bit.
        let mut ws = Workspace::new();
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 8, 8),
            (7, 9, 11),
            (17, 33, 5),
            (64, 27, 1024 + 9),
            (MC + 5, KC + 3, 40),
        ] {
            let (a, b) = operands(m, k, n);
            let mut c = vec![-7i32; m * n];
            gemm_i8_into(&mut c, &a, &b, m, k, n, &mut ws);
            assert_eq!(c, reference_i8(&a, &b, m, k, n), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn degenerate_dims_zero_the_output() {
        let mut ws = Workspace::new();
        let mut c = vec![9i32; 6];
        gemm_i8_into(&mut c, &[], &[], 2, 0, 3, &mut ws);
        assert_eq!(c, vec![0; 6]);
        gemm_i8_into(&mut [], &[], &[1, 2], 0, 1, 2, &mut ws);
    }

    #[test]
    fn workspace_reuse_is_allocation_free_after_warmup() {
        let (m, k, n) = (24, 30, 50);
        let (a, b) = operands(m, k, n);
        let mut ws = Workspace::new();
        let mut c = vec![0i32; m * n];
        gemm_i8_into(&mut c, &a, &b, m, k, n, &mut ws);
        let warm = ws.alloc_events();
        ws.freeze();
        for _ in 0..5 {
            gemm_i8_into(&mut c, &a, &b, m, k, n, &mut ws);
        }
        assert_eq!(ws.alloc_events(), warm);
        ws.thaw();
    }

    #[test]
    fn i8_im2col_matches_f32_im2col_on_common_values() {
        // Quantize-then-unfold must equal unfold-then-quantize; checking
        // against the f32 im2col on integer-valued data pins the layout
        // across kernel {1,3} × stride {1,2} × pad {0,1}.
        use crate::Tensor;
        let (n, ci, h, w) = (2, 3, 7, 7);
        let vals: Vec<i8> = (0..n * ci * h * w)
            .map(|i| (((i * 23) % 200) as i32 - 100) as i8)
            .collect();
        let xf =
            Tensor::from_vec(vals.iter().map(|&v| v as f32).collect(), &[n, ci, h, w]).unwrap();
        for kernel in [1, 3] {
            for stride in [1, 2] {
                for pad in [0, 1] {
                    let spec = Conv2dSpec::new(kernel, stride, pad);
                    let colsf = super::super::im2col(&xf, spec).unwrap();
                    // Stale contents must be overwritten, padding included.
                    let mut cols8 = vec![7i8; colsf.data().len()];
                    im2col_i8_into(&mut cols8, &vals, n, ci, h, w, spec);
                    for (q, &f) in cols8.iter().zip(colsf.data()) {
                        assert_eq!(*q as f32, f, "k={kernel} s={stride} p={pad}");
                    }
                }
            }
        }
    }
}
