//! Numerical kernels: matrix multiplication and im2col-based convolution.
//!
//! The convolution entry points operate on `NCHW` activations and
//! `[c_out, c_in, k, k]` weights and are shared by the forward *and*
//! backward passes of [`alf-nn`](https://example.invalid/alf): the backward
//! pass is expressed as matmuls against the saved column matrix plus a
//! [`col2im`] scatter.
//!
//! Performance architecture (see `DESIGN.md` for the full picture):
//!
//! * [`gemm`] holds the cache-blocked, register-tiled, multithreaded
//!   kernel every matrix product routes through; [`gemm_into`] is the
//!   dense slice-level entry point hot loops call with their own
//!   [`Workspace`], and [`gemm_active_rows_into`] /
//!   [`gemm_active_k_into`] are the only sparse ones. [`ActiveRows`] is
//!   the shared descriptor of which rows of a masked operand survive
//!   pruning; sparsity is always declared, never scanned for.
//! * [`matmul`] / [`matmul_at`] / [`matmul_bt`] (and their `_ws` twins)
//!   are the dense tensor-level conveniences, drawing scratch from a
//!   thread-local or caller-supplied workspace.
//! * [`qgemm`] is the int8 sibling: [`gemm_i8_into`] runs `i8×i8→i32`
//!   products with the same panel-packing structure for the quantized
//!   deployment path, and [`im2col_i8_into`] feeds it.
//! * [`reference`] preserves the seed's naive kernels for differential
//!   tests and as the benchmark baseline.
//! * [`im2col_into`] / [`col2im_into`] write into caller-owned buffers so
//!   layer code can keep the whole conv step allocation-free.

mod channels;
mod conv;
pub mod gemm;
mod matmul;
pub mod qgemm;
pub mod reference;
mod workspace;

pub use channels::{concat_channels, split_channels};
pub use conv::{col2im, col2im_into, conv2d, conv_output_hw, im2col, im2col_into, Conv2dSpec};
pub use gemm::{
    auto_threads, gemm_active_k_into, gemm_active_rows_into, gemm_into, host_parallelism,
    ActiveRows,
};
pub use matmul::{matmul, matmul_at, matmul_at_ws, matmul_bt, matmul_bt_ws, matmul_ws};
pub use qgemm::{gemm_i8_into, im2col_i8_into};
pub use workspace::{with_thread_workspace, Workspace};
