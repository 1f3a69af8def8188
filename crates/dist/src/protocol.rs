//! Message layer: what travels inside each frame.
//!
//! Every frame payload is one tagged message, little-endian throughout:
//!
//! ```text
//! message := u32 tag | body
//! HELLO    (1, worker→master): u32 version | u32 world | u32 rank | u64 fingerprint
//! WELCOME  (2, master→worker): u32 version | u32 world | u64 fingerprint
//! PARTIALS (3, worker→master): u64 epoch | u64 step | u32 nroots
//!                              | (u32 root_idx | u32 nbytes | grad-bytes)*
//!                              | u32 nlosses | f32 loss* | u32 correct
//! REDUCED  (4, master→worker): u64 epoch | u64 step | u32 nbytes | grad-bytes
//!                              | u64 loss_sum_bits | u64 correct
//! FAULT    (5, master→worker): u32 len | utf8 detail
//! ```
//!
//! `grad-bytes` are [`crate::codec`] segment sequences. The handshake
//! fingerprint ([`model_fingerprint`]) pins the model geometry and
//! world size so two runs that would silently diverge fail with a
//! [`DistError::ProtocolMismatch`] at connect time instead.

use alf_core::CnnModel;
use alf_nn::layer::Layer;
use alf_obs::wire::{Reader, WireError};
use bytes::{BufMut, BytesMut};

use crate::error::{DistError, Result};

/// Wire protocol revision; bumped on any frame- or message-layout change.
pub const PROTOCOL_VERSION: u32 = 1;

const TAG_HELLO: u32 = 1;
const TAG_WELCOME: u32 = 2;
const TAG_PARTIALS: u32 = 3;
const TAG_REDUCED: u32 = 4;
const TAG_FAULT: u32 = 5;

/// Worker's opening claim: who it is and what run it believes it is in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// [`PROTOCOL_VERSION`] of the sender.
    pub version: u32,
    /// Total rank count the sender was launched with.
    pub world: u32,
    /// The sender's rank (1..world; rank 0 is the master).
    pub rank: u32,
    /// [`model_fingerprint`] of the sender's model and world.
    pub fingerprint: u64,
}

/// Master's acceptance of a [`Hello`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Welcome {
    /// [`PROTOCOL_VERSION`] of the master.
    pub version: u32,
    /// Master's world size.
    pub world: u32,
    /// Master's [`model_fingerprint`].
    pub fingerprint: u64,
}

/// One rank's contribution to one step: the roots of its locally
/// complete subtrees (encoded gradients) plus its per-sample stats.
#[derive(Debug, Clone, PartialEq)]
pub struct Partials {
    /// Epoch coordinate of the step (lockstep check).
    pub epoch: u64,
    /// Step coordinate within the epoch.
    pub step: u64,
    /// `(leaf_index, encoded partial sum)` for each shipped subtree
    /// root, in increasing leaf order.
    pub roots: Vec<(u32, Vec<u8>)>,
    /// Per-sample losses for this rank's batch slice, in slot order.
    pub losses: Vec<f32>,
    /// Correctly-classified samples in this rank's slice.
    pub correct: u32,
}

/// The finished reduction, broadcast identically to every worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduced {
    /// Epoch coordinate of the step.
    pub epoch: u64,
    /// Step coordinate within the epoch.
    pub step: u64,
    /// Encoded tree-reduced gradient (unscaled sum over all leaves).
    pub grad: Vec<u8>,
    /// `f64::to_bits` of the slot-order loss fold — shipped as bits so
    /// every rank reconstructs the identical double.
    pub loss_sum_bits: u64,
    /// Total correct across the batch.
    pub correct: u64,
}

/// Master-relayed failure: the collective broke somewhere else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Description of the root cause (usually a rendered `DistError`).
    pub detail: String,
}

/// Any message of the dist protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// See [`Hello`].
    Hello(Hello),
    /// See [`Welcome`].
    Welcome(Welcome),
    /// See [`Partials`].
    Partials(Partials),
    /// See [`Reduced`].
    Reduced(Reduced),
    /// See [`Fault`].
    Fault(Fault),
}

impl Message {
    /// Serialises into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = BytesMut::new();
        match self {
            Message::Hello(h) => {
                out.put_u32_le(TAG_HELLO);
                out.put_u32_le(h.version);
                out.put_u32_le(h.world);
                out.put_u32_le(h.rank);
                out.put_u64_le(h.fingerprint);
            }
            Message::Welcome(w) => {
                out.put_u32_le(TAG_WELCOME);
                out.put_u32_le(w.version);
                out.put_u32_le(w.world);
                out.put_u64_le(w.fingerprint);
            }
            Message::Partials(p) => {
                out.put_u32_le(TAG_PARTIALS);
                out.put_u64_le(p.epoch);
                out.put_u64_le(p.step);
                out.put_u32_le(p.roots.len() as u32);
                for (idx, bytes) in &p.roots {
                    out.put_u32_le(*idx);
                    out.put_u32_le(bytes.len() as u32);
                    out.put_slice(bytes);
                }
                out.put_u32_le(p.losses.len() as u32);
                for &l in &p.losses {
                    out.put_f32_le(l);
                }
                out.put_u32_le(p.correct);
            }
            Message::Reduced(r) => {
                out.put_u32_le(TAG_REDUCED);
                out.put_u64_le(r.epoch);
                out.put_u64_le(r.step);
                out.put_u32_le(r.grad.len() as u32);
                out.put_slice(&r.grad);
                out.put_u64_le(r.loss_sum_bits);
                out.put_u64_le(r.correct);
            }
            Message::Fault(f) => {
                out.put_u32_le(TAG_FAULT);
                out.put_u32_le(f.detail.len() as u32);
                out.put_slice(f.detail.as_bytes());
            }
        }
        out.freeze().to_vec()
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`DistError::ProtocolMismatch`] for an unknown tag or a body that
    /// does not parse — the frame CRC already passed, so malformed bytes
    /// here mean the peers are speaking different dialects.
    pub fn decode(payload: &[u8]) -> Result<Message> {
        let mut r = Reader::new(payload);
        let mismatch = |e: WireError| DistError::ProtocolMismatch {
            detail: format!("malformed message: {e}"),
        };
        let tag = r.u32().map_err(mismatch)?;
        let Some(msg) = Self::read_body(tag, &mut r).map_err(mismatch)? else {
            return Err(DistError::ProtocolMismatch {
                detail: format!("unknown message tag {tag}"),
            });
        };
        r.finish().map_err(mismatch)?;
        Ok(msg)
    }

    /// The body of a `tag` message; `None` for an unknown tag.
    fn read_body(tag: u32, r: &mut Reader<'_>) -> std::result::Result<Option<Message>, WireError> {
        Ok(Some(match tag {
            TAG_HELLO => Message::Hello(Hello {
                version: r.u32()?,
                world: r.u32()?,
                rank: r.u32()?,
                fingerprint: r.u64()?,
            }),
            TAG_WELCOME => Message::Welcome(Welcome {
                version: r.u32()?,
                world: r.u32()?,
                fingerprint: r.u64()?,
            }),
            TAG_PARTIALS => {
                let epoch = r.u64()?;
                let step = r.u64()?;
                // Each root is at least its `u32 idx | u32 nbytes` header.
                let nroots = r.count(8)?;
                let mut roots = Vec::with_capacity(nroots);
                for _ in 0..nroots {
                    let idx = r.u32()?;
                    let nbytes = r.u32()? as usize;
                    roots.push((idx, r.bytes(nbytes)?.to_vec()));
                }
                let nlosses = r.count(4)?;
                Message::Partials(Partials {
                    epoch,
                    step,
                    roots,
                    losses: r.f32s(nlosses)?,
                    correct: r.u32()?,
                })
            }
            TAG_REDUCED => {
                let epoch = r.u64()?;
                let step = r.u64()?;
                let nbytes = r.u32()? as usize;
                Message::Reduced(Reduced {
                    epoch,
                    step,
                    grad: r.bytes(nbytes)?.to_vec(),
                    loss_sum_bits: r.u64()?,
                    correct: r.u64()?,
                })
            }
            TAG_FAULT => {
                let len = r.u32()? as usize;
                Message::Fault(Fault {
                    detail: String::from_utf8_lossy(r.bytes(len)?).into_owned(),
                })
            }
            _ => return Ok(None),
        }))
    }

    /// Short name for mismatch diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Hello(_) => "HELLO",
            Message::Welcome(_) => "WELCOME",
            Message::Partials(_) => "PARTIALS",
            Message::Reduced(_) => "REDUCED",
            Message::Fault(_) => "FAULT",
        }
    }
}

/// Fingerprint of the run's shared identity: FNV-1a over the model's
/// parameter geometry and the world size. Two processes with different
/// architectures (or launched with different `--ranks`) cannot complete
/// the handshake.
pub fn model_fingerprint(model: &CnnModel, world: u32) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    mix(u64::from(world));
    model.visit_params_ref(&mut |p| {
        mix(p.value.dims().len() as u64);
        for &d in p.value.dims() {
            mix(d as u64);
        }
    });
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_round_trip() {
        let msgs = vec![
            Message::Hello(Hello {
                version: 1,
                world: 4,
                rank: 2,
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            }),
            Message::Welcome(Welcome {
                version: 1,
                world: 4,
                fingerprint: 7,
            }),
            Message::Partials(Partials {
                epoch: 3,
                step: 11,
                roots: vec![(4, vec![0, 1, 2]), (6, vec![9])],
                losses: vec![0.25, -1.5],
                correct: 1,
            }),
            Message::Reduced(Reduced {
                epoch: 3,
                step: 11,
                grad: vec![1, 2, 3, 4],
                loss_sum_bits: 1.75f64.to_bits(),
                correct: 9,
            }),
            Message::Fault(Fault {
                detail: "RankLost: rank 2 (read timed out)".into(),
            }),
        ];
        for msg in msgs {
            let wire = msg.encode();
            let back = Message::decode(&wire).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_mismatches() {
        let err = Message::decode(&99u32.to_le_bytes()).unwrap_err();
        assert!(matches!(err, DistError::ProtocolMismatch { .. }), "{err}");
        let mut wire = Message::Fault(Fault { detail: "x".into() }).encode();
        wire.push(0);
        let err = Message::decode(&wire).unwrap_err();
        assert!(matches!(err, DistError::ProtocolMismatch { .. }), "{err}");
    }

    #[test]
    fn fingerprint_separates_architectures_and_world() {
        let cfg = alf_core::block::AlfBlockConfig::paper_default();
        let a = alf_core::models::plain20_alf(4, 4, cfg, 3).unwrap();
        let b = alf_core::models::plain20_alf(4, 8, cfg, 3).unwrap();
        assert_ne!(model_fingerprint(&a, 2), model_fingerprint(&b, 2));
        assert_ne!(model_fingerprint(&a, 2), model_fingerprint(&a, 4));
        assert_eq!(model_fingerprint(&a, 2), model_fingerprint(&a, 2));
    }
}
