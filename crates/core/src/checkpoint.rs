//! Model and trainer-state checkpointing as compact binary blobs.
//!
//! Two blob versions share one loader:
//!
//! * **v1** (`ALFCKPT1`) — the model's persistent state only: task
//!   parameters, batch-norm running statistics and the ALF autoencoders
//!   (`Wenc`, `Wdec`, `M`). Layout: `magic | u32 tensor count | per tensor
//!   (u32 rank, u32 dims…, f32 data…)`, little-endian.
//! * **v2** (`ALFCKPT2`) — everything a *trainer* needs to resume a run
//!   bitwise-identically: the v1 model section, followed by the SGD
//!   momentum buffers (same per-tensor encoding), the `νprune` schedule,
//!   and the epoch / step / data-seed counters that pin the data order.
//!   Layout: `magic | model section | u32 momentum count | momentum
//!   tensors… | f32 slope | f32 pr_max | u64 epoch | u64 step |
//!   u64 data_seed`.
//!
//! The loader is backward and forward compatible within these versions:
//! [`load`] restores the model from either blob (discarding v2 trainer
//! state — deploying a training checkpoint into a server "just works"),
//! and [`load_trainer`] accepts a v1 blob as "model with fresh optimizer"
//! by returning `None` for the trainer state. Restoring validates the full
//! blob — structure match, momentum-vs-parameter shapes, no trailing
//! bytes — before touching the model, so a failed load leaves it intact.

use alf_nn::layer::Layer;
use alf_obs::wire::{Reader, WireError};
use alf_tensor::{ShapeError, Tensor};
use bytes::{BufMut, Bytes, BytesMut};

use crate::model::CnnModel;
use crate::schedule::PruneSchedule;
use crate::Result;

const MAGIC_V1: &[u8; 8] = b"ALFCKPT1";
const MAGIC_V2: &[u8; 8] = b"ALFCKPT2";

/// The non-model half of a v2 trainer checkpoint: optimizer momentum plus
/// the schedule/progress counters that make a resumed run replay the exact
/// trajectory of an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerState {
    /// SGD momentum (velocity) buffers in parameter-visit order. Empty
    /// means a fresh optimizer (e.g. checkpointed before the first step).
    pub momentum: Vec<Tensor>,
    /// The `νprune` pruning-pressure schedule in effect.
    pub schedule: PruneSchedule,
    /// Completed-epoch counter (0-based index of the epoch in progress).
    pub epoch: u64,
    /// Step within the current epoch (batches already consumed).
    pub step: u64,
    /// Seed of the deterministic data-order stream (`alf_data::plan`).
    pub data_seed: u64,
}

fn fail(detail: impl Into<String>) -> ShapeError {
    ShapeError::new("checkpoint", detail)
}

fn put_tensor(buf: &mut BytesMut, t: &Tensor) {
    buf.put_u32_le(t.dims().len() as u32);
    for &d in t.dims() {
        buf.put_u32_le(d as u32);
    }
    for &v in t.data() {
        buf.put_f32_le(v);
    }
}

/// Reads `u32 count | (u32 rank | u32 dims… | f32 data…)*`. Counts are
/// bounded by the bytes left and dims products are overflow-checked, so
/// nothing is allocated beyond what the blob can fill.
fn read_tensors(r: &mut Reader<'_>, what: &str) -> Result<Vec<Tensor>> {
    let wire = |e: WireError| fail(format!("{what} section: {e}"));
    // Smallest tensor: a rank (4 bytes) plus either one dim of 0 or, at
    // rank 0, one scalar (4 bytes).
    let count = r.count(8).map_err(wire)?;
    let mut tensors = Vec::with_capacity(count);
    for i in 0..count {
        let rank = r.count(4).map_err(wire)?;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(r.u32().map_err(wire)? as usize);
        }
        let len = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| fail(format!("{what} tensor {i}: dims {dims:?} overflow")))?;
        let data = r.f32s(len).map_err(wire)?;
        tensors.push(Tensor::from_vec(data, &dims)?);
    }
    Ok(tensors)
}

/// Serialises the model's persistent state as a v1 blob.
///
/// Reads the model through the read-only state visitor
/// ([`Layer::visit_state_ref`]), so a model that is merely borrowed —
/// e.g. one being served by worker threads, snapshotted for a hot swap —
/// can be checkpointed without exclusive access.
///
/// # Example
///
/// ```
/// use alf_core::models::plain20;
/// use alf_core::checkpoint;
///
/// # fn main() -> alf_core::Result<()> {
/// let model = plain20(10, 4)?;
/// let blob = checkpoint::save(&model);
/// let mut clone = plain20(10, 4)?;
/// checkpoint::load(&mut clone, &blob)?;
/// # Ok(())
/// # }
/// ```
pub fn save(model: &CnnModel) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC_V1);
    put_model_section(&mut buf, model);
    buf.freeze()
}

/// Serialises the model plus trainer state as a v2 blob — the full
/// fault-tolerance checkpoint `alf-dp` writes so a killed run resumes
/// bitwise-identically.
pub fn save_trainer(model: &CnnModel, state: &TrainerState) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC_V2);
    put_model_section(&mut buf, model);
    buf.put_u32_le(state.momentum.len() as u32);
    for t in &state.momentum {
        put_tensor(&mut buf, t);
    }
    buf.put_f32_le(state.schedule.slope);
    buf.put_f32_le(state.schedule.pr_max);
    buf.put_u64_le(state.epoch);
    buf.put_u64_le(state.step);
    buf.put_u64_le(state.data_seed);
    buf.freeze()
}

fn put_model_section(buf: &mut BytesMut, model: &CnnModel) {
    let mut count = 0u32;
    model.visit_state_ref(&mut |_| count += 1);
    buf.put_u32_le(count);
    model.visit_state_ref(&mut |t: &Tensor| put_tensor(buf, t));
}

/// A fully parsed and bounds-checked blob, not yet applied to any model.
struct Parsed {
    model: Vec<Tensor>,
    trainer: Option<TrainerState>,
}

fn parse(blob: &[u8]) -> Result<Parsed> {
    let mut r = Reader::new(blob);
    let v2 = match r.bytes(MAGIC_V1.len()) {
        Ok(m) if m == MAGIC_V1 => false,
        Ok(m) if m == MAGIC_V2 => true,
        Ok(_) => return Err(fail("bad magic")),
        Err(_) => return Err(fail("truncated header")),
    };
    let model = read_tensors(&mut r, "model")?;
    let trainer = if v2 {
        let momentum = read_tensors(&mut r, "momentum")?;
        let trailer = |e: WireError| fail(format!("trainer trailer: {e}"));
        let slope = r.f32().map_err(trailer)?;
        let pr_max = r.f32().map_err(trailer)?;
        let epoch = r.u64().map_err(trailer)?;
        let step = r.u64().map_err(trailer)?;
        let data_seed = r.u64().map_err(trailer)?;
        if !(1.0..=10.0).contains(&slope) || !(0.0..=1.0).contains(&pr_max) {
            return Err(fail(format!(
                "schedule out of domain: slope {slope}, pr_max {pr_max}"
            )));
        }
        Some(TrainerState {
            momentum,
            schedule: PruneSchedule { slope, pr_max },
            epoch,
            step,
            data_seed,
        })
    } else {
        None
    };
    // A well-formed blob ends exactly at its last field; trailing bytes
    // mean the blob was produced by something else (or corrupted in a way
    // the per-field checks cannot see), so reject loudly.
    r.finish()
        .map_err(|e| fail(format!("{e} after the last field")))?;
    Ok(Parsed { model, trainer })
}

/// Validates the parsed model section against `model`'s structure and
/// commits it. Does not touch the model on error.
fn apply_model(model: &mut CnnModel, tensors: Vec<Tensor>) -> Result<()> {
    let mut expected: Vec<Vec<usize>> = Vec::new();
    model.visit_state_ref(&mut |t: &Tensor| expected.push(t.dims().to_vec()));
    if expected.len() != tensors.len() {
        return Err(fail(format!(
            "model has {} state tensors, checkpoint has {}",
            expected.len(),
            tensors.len()
        )));
    }
    for (i, (dims, t)) in expected.iter().zip(&tensors).enumerate() {
        if dims.as_slice() != t.dims() {
            return Err(fail(format!(
                "state tensor {i} shape mismatch: model {dims:?} vs checkpoint {:?}",
                t.dims()
            )));
        }
    }
    let mut iter = tensors.into_iter();
    model.visit_state(&mut |t: &mut Tensor| {
        *t = iter.next().expect("validated count");
    });
    Ok(())
}

/// Validates momentum tensors against the model's *parameter* shapes in
/// visit order. An empty momentum set (fresh optimizer) always passes.
fn check_momentum(model: &CnnModel, momentum: &[Tensor]) -> Result<()> {
    if momentum.is_empty() {
        return Ok(());
    }
    let mut params: Vec<Vec<usize>> = Vec::new();
    model.visit_params_ref(&mut |p| params.push(p.value.dims().to_vec()));
    if params.len() != momentum.len() {
        return Err(fail(format!(
            "model has {} parameters, checkpoint has {} momentum tensors",
            params.len(),
            momentum.len()
        )));
    }
    for (i, (dims, t)) in params.iter().zip(momentum).enumerate() {
        if dims.as_slice() != t.dims() {
            return Err(fail(format!(
                "momentum tensor {i} shape mismatch: parameter {dims:?} vs checkpoint {:?}",
                t.dims()
            )));
        }
    }
    Ok(())
}

/// Restores a model's persistent state from a blob produced by [`save`]
/// **or** [`save_trainer`] (whose trainer trailer is validated, then
/// discarded — serving a training checkpoint needs no extra step).
///
/// # Errors
///
/// Returns an error when the blob is malformed, truncated, carries bytes
/// past the last field, or its tensor structure does not exactly match
/// the model's. A failed load leaves the model untouched.
pub fn load(model: &mut CnnModel, blob: &[u8]) -> Result<()> {
    let parsed = parse(blob)?;
    apply_model(model, parsed.model)
}

/// Restores a model *and* its trainer state from a blob.
///
/// Accepts both versions: a v2 blob yields `Some(TrainerState)`; a v1
/// (model-only) blob restores the model and yields `None`, letting a
/// trainer resume from an old checkpoint with a fresh optimizer — the
/// backward-compatibility half of the format contract.
///
/// # Errors
///
/// Everything [`load`] rejects, plus momentum tensors whose count or
/// shapes do not match the model's parameters. A failed load leaves the
/// model untouched.
pub fn load_trainer(model: &mut CnnModel, blob: &[u8]) -> Result<Option<TrainerState>> {
    let parsed = parse(blob)?;
    if let Some(state) = &parsed.trainer {
        check_momentum(model, &state.momentum)?;
    }
    apply_model(model, parsed.model)?;
    Ok(parsed.trainer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::AlfBlockConfig;
    use crate::models::{plain20, plain20_alf, resnet20};
    use alf_nn::RunCtx;
    use alf_tensor::init::Init;
    use alf_tensor::rng::Rng;

    fn probe_output(model: &mut CnnModel) -> Tensor {
        let x = Tensor::randn(&[2, 3, 12, 12], Init::Rand, &mut Rng::new(42));
        model.forward(&x, &mut RunCtx::eval()).expect("forward")
    }

    fn trainer_state_for(model: &CnnModel) -> TrainerState {
        let mut momentum = Vec::new();
        let mut fill = 0.0f32;
        model.visit_params_ref(&mut |p| {
            fill += 0.125;
            momentum.push(Tensor::full(p.value.dims(), fill));
        });
        TrainerState {
            momentum,
            schedule: PruneSchedule::new(6.0, 0.7),
            epoch: 3,
            step: 11,
            data_seed: 0xfeed,
        }
    }

    #[test]
    fn round_trip_restores_outputs_exactly() {
        let mut original = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 1).unwrap();
        let blob = save(&original);
        let before = probe_output(&mut original);
        // A freshly-initialised model with a different seed…
        let mut restored = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 999).unwrap();
        assert!(!probe_output(&mut restored).allclose(&before, 1e-6));
        // …becomes identical after loading the checkpoint.
        load(&mut restored, &blob).unwrap();
        assert_eq!(probe_output(&mut restored), before);
    }

    #[test]
    fn checkpoint_includes_autoencoder_state() {
        let mut a = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 2).unwrap();
        // Mutate one block's mask, checkpoint, restore into a fresh model.
        a.alf_blocks_mut()[0]
            .autoencoder_mut()
            .set_mask_value(0, 0.0);
        let blob = save(&a);
        let mut b = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 3).unwrap();
        load(&mut b, &blob).unwrap();
        assert_eq!(b.alf_blocks_mut()[0].autoencoder().mask().data()[0], 0.0);
        assert_eq!(b.filter_stats()[0].1, 3); // channel 0 clipped
    }

    #[test]
    fn mismatched_architecture_is_rejected() {
        let small = plain20(4, 4).unwrap();
        let blob = save(&small);
        let mut wide = plain20(4, 8).unwrap();
        assert!(load(&mut wide, &blob).is_err());
        // Vanilla vs ALF differ in state structure too.
        let mut alf = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 4).unwrap();
        assert!(load(&mut alf, &blob).is_err());
        // Residual model has the same parameter multiset as plain but
        // batch-norm buffers line up, so this *does* load; architecture
        // sameness up to the state structure is the contract.
        let mut res = resnet20(4, 4).unwrap();
        assert!(load(&mut res, &blob).is_ok());
    }

    #[test]
    fn corrupted_blobs_are_rejected() {
        let mut model = plain20(4, 4).unwrap();
        let blob = save(&model);
        assert!(load(&mut model, b"garbage").is_err());
        assert!(load(&mut model, &blob[..blob.len() / 2]).is_err());
        let mut bad_magic = blob.to_vec();
        bad_magic[0] = b'X';
        assert!(load(&mut model, &bad_magic).is_err());
    }

    #[test]
    fn failed_load_leaves_model_untouched() {
        let mut model = plain20(4, 4).unwrap();
        let before = probe_output(&mut model);
        let other = plain20(4, 8).unwrap();
        let blob = save(&other);
        assert!(load(&mut model, &blob).is_err());
        assert_eq!(probe_output(&mut model), before);
    }

    #[test]
    fn trailing_bytes_are_rejected_for_both_versions() {
        let mut model = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 5).unwrap();
        let state = trainer_state_for(&model);
        for blob in [save(&model), save_trainer(&model, &state)] {
            // A structurally-valid blob followed by garbage must not load,
            // for any amount of garbage (1 byte up to a whole extra tensor).
            for extra in [1usize, 3, 4, 64] {
                let mut padded = blob.to_vec();
                padded.resize(padded.len() + extra, 0xAB);
                let err = load(&mut model, &padded).unwrap_err();
                assert!(
                    err.to_string().contains("trailing bytes"),
                    "unexpected error for {extra} extra bytes: {err}"
                );
            }
            // The untouched blob still loads.
            assert!(load(&mut model, &blob).is_ok());
        }
    }

    #[test]
    fn read_only_save_agrees_with_mut_visitor() {
        // `save` reads through `visit_state_ref`; the load path walks
        // `visit_state`. The two visitor orders are contractually
        // identical — compare them tensor by tensor over a model that
        // exercises every unit kind with state (conv, ALF block, BN,
        // residual, classifier).
        let mut model = resnet20(4, 4).unwrap();
        let mut via_mut: Vec<(Vec<usize>, Vec<f32>)> = Vec::new();
        model.visit_state(&mut |t: &mut Tensor| {
            via_mut.push((t.dims().to_vec(), t.data().to_vec()));
        });
        let mut via_ref: Vec<(Vec<usize>, Vec<f32>)> = Vec::new();
        model.visit_state_ref(&mut |t: &Tensor| {
            via_ref.push((t.dims().to_vec(), t.data().to_vec()));
        });
        assert_eq!(via_mut, via_ref);
        // Same for the parameter visitors (order and identity).
        let mut params_mut = Vec::new();
        model.visit_params(&mut |p| params_mut.push(p.value.data().to_vec()));
        let mut params_ref = Vec::new();
        model.visit_params_ref(&mut |p| params_ref.push(p.value.data().to_vec()));
        assert_eq!(params_mut, params_ref);
    }

    #[test]
    fn trainer_round_trip_restores_everything() {
        let model = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 6).unwrap();
        let state = trainer_state_for(&model);
        let blob = save_trainer(&model, &state);
        let mut restored = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 77).unwrap();
        let got = load_trainer(&mut restored, &blob).unwrap().expect("v2");
        assert_eq!(got, state);
        // Model section restored too.
        let mut a = Vec::new();
        model.visit_state_ref(&mut |t: &Tensor| a.extend_from_slice(t.data()));
        let mut b = Vec::new();
        restored.visit_state_ref(&mut |t: &Tensor| b.extend_from_slice(t.data()));
        assert_eq!(a, b);
    }

    #[test]
    fn v1_blob_loads_as_trainer_with_fresh_state() {
        let model = plain20(4, 4).unwrap();
        let blob = save(&model);
        let mut restored = plain20(4, 4).unwrap();
        assert!(load_trainer(&mut restored, &blob).unwrap().is_none());
    }

    #[test]
    fn v2_blob_loads_as_plain_model_checkpoint() {
        let mut model = plain20(4, 4).unwrap();
        let state = trainer_state_for(&model);
        let blob = save_trainer(&model, &state);
        let before = probe_output(&mut model);
        let mut restored = plain20(4, 4).unwrap();
        load(&mut restored, &blob).unwrap();
        assert_eq!(probe_output(&mut restored), before);
    }

    #[test]
    fn empty_momentum_means_fresh_optimizer() {
        let model = plain20(4, 4).unwrap();
        let state = TrainerState {
            momentum: Vec::new(),
            ..trainer_state_for(&model)
        };
        let blob = save_trainer(&model, &state);
        let mut restored = plain20(4, 4).unwrap();
        let got = load_trainer(&mut restored, &blob).unwrap().expect("v2");
        assert!(got.momentum.is_empty());
        assert_eq!(got.epoch, 3);
    }

    #[test]
    fn mismatched_momentum_shapes_are_rejected() {
        // Regression: a v2 blob whose momentum tensors do not match the
        // model's parameters must be refused, leaving the model untouched.
        let mut model = plain20(4, 4).unwrap();
        let mut state = trainer_state_for(&model);
        // Wrong shape on one tensor.
        state.momentum[0] = Tensor::zeros(&[1, 2, 3]);
        let blob = save_trainer(&model, &state);
        let before = probe_output(&mut model);
        let err = load_trainer(&mut model, &blob).unwrap_err();
        assert!(
            err.to_string().contains("momentum tensor 0 shape mismatch"),
            "{err}"
        );
        assert_eq!(probe_output(&mut model), before);
        // Wrong count.
        let mut short = trainer_state_for(&model);
        short.momentum.pop();
        let blob = save_trainer(&model, &short);
        let err = load_trainer(&mut model, &blob).unwrap_err();
        assert!(err.to_string().contains("momentum tensors"), "{err}");
    }

    #[test]
    fn oversized_tensor_count_is_an_error_not_an_abort() {
        // Magic plus a claimed u32::MAX tensors: 12 bytes that used to
        // reserve ~200 GB of `Tensor` slots and abort the process.
        let mut probe = MAGIC_V1.to_vec();
        probe.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut model = plain20(4, 4).unwrap();
        let err = load(&mut model, &probe).unwrap_err();
        assert_eq!(err.op(), "checkpoint");
        assert!(load_trainer(&mut model, &probe).is_err());
        // The same claim in the momentum section of a v2 blob.
        let mut v2 = save_trainer(&model, &trainer_state_for(&model)).to_vec();
        let model_end = save(&model).len();
        v2.truncate(model_end);
        v2.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(load_trainer(&mut model, &v2).is_err());
        // A dims product that overflows usize is refused, not wrapped.
        let mut dims = MAGIC_V1.to_vec();
        for v in [1u32, 3, u32::MAX, u32::MAX, u32::MAX] {
            dims.extend_from_slice(&v.to_le_bytes());
        }
        let err = load(&mut model, &dims).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn out_of_domain_schedule_is_rejected() {
        let model = plain20(4, 4).unwrap();
        let mut state = trainer_state_for(&model);
        state.schedule = PruneSchedule {
            slope: 0.0,
            pr_max: 2.0,
        };
        let blob = save_trainer(&model, &state);
        let mut restored = plain20(4, 4).unwrap();
        let err = load_trainer(&mut restored, &blob).unwrap_err();
        assert!(err.to_string().contains("schedule out of domain"), "{err}");
    }
}
