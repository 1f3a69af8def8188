//! Typed failures of the distributed collective.
//!
//! Every way the socket collective can fail maps to one variant, so the
//! rank runtime (and `scripts/verify.sh`) can distinguish "a peer died"
//! from "the wire is corrupt" from "these processes disagree about the
//! run" without parsing strings. A killed worker surfaces as
//! [`DistError::RankLost`] on the master, which relays a
//! [`DistError::Fault`] to the surviving workers before exiting — every
//! rank fails loudly, and the run resumes from the last checkpoint.

use std::fmt;
use std::io;

use alf_obs::wire::WireError;
use alf_tensor::ShapeError;

/// Any failure of the distributed training collective.
#[derive(Debug)]
#[non_exhaustive]
pub enum DistError {
    /// A peer rank disappeared: its socket hit EOF, a read deadline
    /// expired, or a write failed mid-frame.
    RankLost {
        /// The rank that was lost (as this side knows it).
        rank: u32,
        /// What the socket reported.
        detail: String,
    },
    /// The peers disagree about the run: wrong magic, protocol version,
    /// world size, model fingerprint, or a reduction-plan desync
    /// (unexpected message, wrong step coordinates, wrong subtree roots).
    ProtocolMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A frame failed its CRC-32 or structural validation — bytes
    /// arrived, but not the bytes that were sent.
    FrameCorrupt {
        /// What failed to validate.
        detail: String,
    },
    /// The master reported a failure elsewhere in the collective; this
    /// rank is intact but the step cannot complete.
    Fault {
        /// The master's description of the root cause.
        detail: String,
    },
    /// Local training arithmetic failed (the `DpTrainer` contract).
    Train(ShapeError),
    /// Plain I/O around the collective: bind/connect/spawn failures.
    Io(io::Error),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::RankLost { rank, detail } => {
                write!(f, "RankLost: rank {rank} ({detail})")
            }
            DistError::ProtocolMismatch { detail } => {
                write!(f, "ProtocolMismatch: {detail}")
            }
            DistError::FrameCorrupt { detail } => write!(f, "FrameCorrupt: {detail}"),
            DistError::Fault { detail } => write!(f, "Fault relayed by master: {detail}"),
            DistError::Train(e) => e.fmt(f),
            DistError::Io(e) => write!(f, "dist i/o: {e}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Train(e) => Some(e),
            DistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DistError {
    fn from(e: io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<ShapeError> for DistError {
    fn from(e: ShapeError) -> Self {
        DistError::Train(e)
    }
}

impl From<WireError> for DistError {
    /// A gradient that ends early or runs long (`codec::decode_grad`).
    fn from(e: WireError) -> Self {
        DistError::FrameCorrupt {
            detail: e.to_string(),
        }
    }
}

impl From<DistError> for alf_dp::ReduceError {
    /// Crosses the `Reducer` seam: `alf-dp` cannot name this crate, so
    /// the typed error travels boxed and is recovered with
    /// [`DistError::from_reduce`].
    fn from(e: DistError) -> Self {
        alf_dp::ReduceError::Transport(Box::new(e))
    }
}

impl DistError {
    /// Recovers the typed error from the `Reducer` seam: a boxed
    /// [`DistError`] comes back intact, anything else maps to its
    /// closest variant.
    pub fn from_reduce(e: alf_dp::ReduceError) -> Self {
        match e {
            alf_dp::ReduceError::Shape(s) => DistError::Train(s),
            alf_dp::ReduceError::Transport(b) => match b.downcast::<DistError>() {
                Ok(d) => *d,
                Err(other) => DistError::ProtocolMismatch {
                    detail: other.to_string(),
                },
            },
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DistError>;
