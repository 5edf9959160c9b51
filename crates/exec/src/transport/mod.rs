//! `ShardTransport` — the communication seam of the sharded runtime.
//!
//! [`crate::ShardedEngine`] routes every shard-bound message through a
//! `Box<dyn ShardTransport<A>>` instead of concrete channel vectors. Two
//! implementations exist:
//!
//! * **In-process** (the default, [`TransportKind::InProcess`]): the
//!   original crossbeam bounded-channel mesh. One worker thread per shard
//!   in this address space; zero serialization, bounded-channel
//!   backpressure. A one-shard in-process engine runs its single worker
//!   on the caller's thread instead (no thread, no channel: `send` handles
//!   the message before it returns) — the §2.2.2 uni-thread executor.
//! * **Multi-process** ([`TransportKind::Process`], Unix only): each shard
//!   runs in its own `eagr-shard-host` OS process, connected to the
//!   coordinator by a Unix-domain socket speaking the length-prefixed
//!   [`codec`] protocol. Cross-shard deltas hop host → coordinator → host
//!   (a star topology — the coordinator relays, so shard hosts never dial
//!   each other), and the `pending` epoch accounting rides the same FIFO
//!   sockets: a host always emits its forwarded-delta frames *before* the
//!   `Applied` acknowledgement for the message that produced them, so the
//!   coordinator's pending count can never touch zero while deltas are
//!   still in flight. [`ShardedEngine::drain`](crate::ShardedEngine::drain)
//!   therefore keeps its exact epoch-barrier meaning across process
//!   boundaries.
//!
//! The **data plane** (writes, deltas, shard-executed reads, window
//! expiration) flows through [`ShardTransport::send`] in both modes. The
//! **state plane** — PAO/window state fetch + install for live migration,
//! observed-counter collection for rebalancing, plan swaps for topology
//! epochs, compaction — only exists over the socket transport (the
//! in-process engine touches its shared store directly) and is expressed
//! as synchronous request/reply methods that default to
//! [`TransportError::Unsupported`].
//!
//! Every method is fallible: a dead peer process surfaces as a
//! [`TransportError`] through the engine's `Result` APIs, never a panic or
//! a wedged drain (the drain loop polls [`ShardTransport::healthy`]).

pub mod codec;
#[cfg(unix)]
pub mod host;
#[cfg(unix)]
pub mod process;

use crate::core::EngineState;
use crate::sharded::ShardMsg;
use eagr_agg::{Aggregate, WindowBuffer, WindowSpec};
use eagr_flow::Decisions;
use eagr_overlay::Overlay;
use std::sync::Arc;

/// Which transport a [`crate::ShardedConfig`] launches the shard mesh on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// One worker thread per shard in this process, crossbeam channels
    /// in between — the zero-regression default.
    #[default]
    InProcess,
    /// One `eagr-shard-host` OS process per shard, Unix-domain sockets in
    /// between. Requires the aggregate to provide
    /// [`eagr_agg::Aggregate::wire_hooks`] and a reachable host binary
    /// (see [`process::host_binary_path`]).
    Process,
}

/// Why a transport operation failed. Cloneable so an error observed by a
/// pump thread can be surfaced by every subsequent engine call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer for `shard` is gone (worker thread stopped, host process
    /// exited, or the socket closed). `detail` carries the first observed
    /// cause when known.
    Closed {
        /// The shard whose peer died, when attributable.
        shard: Option<usize>,
        /// Human-readable cause.
        detail: String,
    },
    /// A socket/spawn-level I/O failure.
    Io(String),
    /// A frame failed to encode or decode.
    Codec(String),
    /// The operation is not supported by this transport (state-plane calls
    /// on the in-process transport, or launching a process transport for
    /// an aggregate without wire hooks).
    Unsupported(&'static str),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed {
                shard: Some(s),
                detail,
            } => {
                write!(f, "shard {s} peer closed: {detail}")
            }
            TransportError::Closed {
                shard: None,
                detail,
            } => {
                write!(f, "shard peer closed: {detail}")
            }
            TransportError::Io(e) => write!(f, "transport i/o: {e}"),
            TransportError::Codec(e) => write!(f, "transport codec: {e}"),
            TransportError::Unsupported(what) => write!(f, "transport unsupported: {what}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}

impl From<eagr_util::wire::WireError> for TransportError {
    fn from(e: eagr_util::wire::WireError) -> Self {
        TransportError::Codec(e.to_string())
    }
}

/// One slab slot's migratable state: `(overlay slot index, PAO partial,
/// window buffer when the slot is a writer)`.
pub type SlotState<A> = (u32, <A as Aggregate>::Partial, Option<WindowBuffer>);

/// Everything a shard host needs to take over a new topology epoch
/// ([`ShardTransport::swap_plan`]): the rebuilt overlay/decision/map triple
/// plus the slice of engine state the receiving shard owns under the new
/// map.
pub struct PlanUpdate<A: Aggregate> {
    /// The repaired overlay (ids append-only).
    pub overlay: Arc<Overlay>,
    /// Push/pull decisions covering every overlay id.
    pub decisions: Decisions,
    /// Window semantics (fixed for the engine's lifetime).
    pub window: WindowSpec,
    /// The full node→shard map under the new topology.
    pub map: Vec<u32>,
    /// Carried state for the slots the receiving shard owns (all other
    /// entries `None`).
    pub state: EngineState<A::Partial>,
}

/// The communication backend of one [`crate::ShardedEngine`].
///
/// Implementations own the shard peers (worker threads or host processes)
/// and the machinery to reach them. The engine's epoch accounting stays on
/// the engine side: the caller increments `pending` before every counted
/// [`send`](Self::send), and the transport guarantees the matching
/// decrement happens only after the message *and every cross-shard delta
/// it transitively produced on its shard* have been applied (workers
/// decrement directly; the socket pump decrements on `Applied` frames,
/// having first re-incremented for each forwarded delta batch).
pub trait ShardTransport<A: Aggregate>: Send + Sync {
    /// Which kind of transport this is (the engine branches its state
    /// plane on it).
    fn kind(&self) -> TransportKind;

    /// Number of shard peers.
    fn shards(&self) -> usize;

    /// Deliver one protocol message to `shard`'s inbox. Blocking (bounded
    /// channel backpressure in-process; socket write queueing over the
    /// wire). A dead peer returns [`TransportError::Closed`].
    fn send(&self, shard: usize, msg: ShardMsg<A>) -> Result<(), TransportError>;

    /// Cheap liveness probe, polled inside the engine's drain spin so a
    /// dead peer turns a would-be-infinite barrier into an error.
    fn healthy(&self) -> Result<(), TransportError>;

    /// Best-effort stop signal to every peer without waiting for them
    /// (the engine's `Drop` path). In-process workers exit their loops;
    /// host processes are told to stop and reaped.
    fn stop(&self);

    /// Graceful teardown: stop every peer and wait for it to exit.
    fn shutdown(&self);

    /// OS process ids of the shard peers, one per shard — empty for
    /// transports whose peers are threads in this process. Lets callers
    /// verify (tests) or report (benchmarks) that shards really run as
    /// separate processes.
    fn host_pids(&self) -> Vec<u32> {
        Vec::new()
    }

    // --- state plane (socket transport only) ---------------------------

    /// Fetch clones of the listed slots' PAO partials from `shard`.
    fn fetch_paos(
        &self,
        _shard: usize,
        _slots: &[u32],
    ) -> Result<Vec<(u32, A::Partial)>, TransportError> {
        Err(TransportError::Unsupported("fetch_paos"))
    }

    /// Fetch the listed slots' full migratable state (PAO + window) from
    /// `shard`.
    fn fetch_slots(
        &self,
        _shard: usize,
        _slots: &[u32],
    ) -> Result<Vec<SlotState<A>>, TransportError> {
        Err(TransportError::Unsupported("fetch_slots"))
    }

    /// Install migrated slots at their new owner `shard` (relocates each
    /// slot into the shard's slab and installs carried window state).
    fn install_slots(
        &self,
        _shard: usize,
        _slots: Vec<SlotState<A>>,
    ) -> Result<(), TransportError> {
        Err(TransportError::Unsupported("install_slots"))
    }

    /// Broadcast node→shard map updates (`(slot, new shard)` pairs) to
    /// every peer; each recomputes its window-expiration writer set.
    fn map_update(&self, _pairs: &[(u32, u32)]) -> Result<(), TransportError> {
        Err(TransportError::Unsupported("map_update"))
    }

    /// Export `shard`'s full engine state (entries only for slots it
    /// owns) — the topology-epoch resync path.
    fn fetch_state(&self, _shard: usize) -> Result<EngineState<A::Partial>, TransportError> {
        Err(TransportError::Unsupported("fetch_state"))
    }

    /// Install a new topology plan + owned-state slice at `shard`
    /// (topology epoch).
    fn swap_plan(&self, _shard: usize, _plan: &PlanUpdate<A>) -> Result<(), TransportError> {
        Err(TransportError::Unsupported("swap_plan"))
    }

    /// Element-wise sum of every peer's observed `(push, pull)` counters.
    fn observed_counts(&self) -> Result<(Vec<u64>, Vec<u64>), TransportError> {
        Err(TransportError::Unsupported("observed_counts"))
    }

    /// Decay every peer's observed counters by `factor`.
    fn decay_observed(&self, _factor: f64) -> Result<(), TransportError> {
        Err(TransportError::Unsupported("decay_observed"))
    }

    /// Compact every peer's slabs; returns total slots reclaimed.
    fn compact_shards(&self) -> Result<u64, TransportError> {
        Err(TransportError::Unsupported("compact_shards"))
    }

    /// Total orphaned slab slots across every peer.
    fn orphaned_slots(&self) -> Result<u64, TransportError> {
        Err(TransportError::Unsupported("orphaned_slots"))
    }
}
