//! # hbbp-store — persistent mergeable profile store + collection daemon
//!
//! HBBP profiles become fleet-scale infrastructure only once they outlive
//! a single process: production profile-guided systems aggregate hardware
//! profiles from many runs and machines before acting on them. This crate
//! adds the two missing layers:
//!
//! * **[`ProfileStore`]** — an append-only, CRC-framed segment log on
//!   disk holding per-recording execution counts ([`CountsRecord`],
//!   varint/delta-encoded, `f64` bits preserved exactly) and per-window
//!   instruction-mix timeline records ([`WindowRecord`]), keyed by a
//!   program/module [`StoreIdentity`]. A torn write or bit flip is caught
//!   by the frame checksums and truncated away on
//!   [`open`](ProfileStore::open); merge
//!   ([`merge_from`](ProfileStore::merge_from)) is lossless, and the
//!   aggregate profile is the correctly rounded **exact** sum of the
//!   per-recording batch analyses, whatever their order or partition;
//! * **`hbbpd`** (the [`daemon`] module and the binary of the same name)
//!   — an event-driven TCP daemon: a worker pool multiplexes many
//!   nonblocking connections per thread behind epoll readiness waits, and each store shard is
//!   owned by a single writer thread that group-commits batched appends
//!   (no locks on the ingest path). Collectors stream perf records in
//!   the `hbbp-perf` wire codec ([`StoreClient::stream_session`] collects
//!   straight onto the socket); each connection is analyzed online
//!   ([`hbbp_core::OnlineAnalyzer`]) with closed windows flushed into the
//!   store mid-stream, and mix/top-K queries answer from the shards'
//!   running exact sums. `docs/PROTOCOL.md` specifies the wire protocol,
//!   `docs/DAEMON.md` the concurrency model.
//!
//! ## Quickstart: a store on disk, written, merged, recovered
//!
//! ```
//! use hbbp_program::Bbec;
//! use hbbp_store::{ModuleSpan, ProfileStore, StoreIdentity};
//! use hbbp_program::Ring;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("hbbp-store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("quickstart.hbbp");
//! # let _ = std::fs::remove_file(&path);
//!
//! let identity = StoreIdentity {
//!     program: "phased".into(),
//!     block_count: 2,
//!     modules: vec![ModuleSpan {
//!         name: "phased.bin".into(),
//!         base: 0x400000,
//!         len: 0x1000,
//!         ring: Ring::User,
//!     }],
//! };
//!
//! // Two recordings of the same binary append their analyzed counts.
//! let mut store = ProfileStore::open_with_identity(&path, identity)?;
//! let run1: Bbec = [(0x400000u64, 1000.0), (0x400040u64, 10.0)].into_iter().collect();
//! let run2: Bbec = [(0x400000u64, 500.0)].into_iter().collect();
//! store.append_counts(1, 120, 80, run1)?;
//! store.append_counts(2, 60, 40, run2)?;
//!
//! // The aggregate is the correctly rounded exact sum of the frames.
//! assert_eq!(store.partials().aggregate().get(0x400000), 1500.0);
//!
//! // Reopening replays the log; a torn tail would be truncated here.
//! // The store keeps running sums and a frame tally; the frames
//! // themselves stay in the log and a snapshot reads them back.
//! drop(store);
//! let store = ProfileStore::open(&path)?;
//! assert_eq!(store.counts_frames(), 2);
//! assert_eq!(store.snapshot().counts.len(), 2);
//! assert_eq!(store.partials().aggregate().get(0x400040), 10.0);
//! # std::fs::remove_file(&path)?;
//! # Ok(())
//! # }
//! ```
//!
//! The on-disk format is documented on the frame codec (see the
//! repository's `docs/ARCHITECTURE.md` for the framing diagram), the
//! wire protocol in [`wire`].

#![deny(missing_docs)]
// `deny`, not `forbid`: the daemon makes raw system calls std has no
// wrapper for, each behind a scoped `#[allow(unsafe_code)]` — the
// `listen(2)` re-arm that widens the accept backlog beyond std's
// hard-coded 128 (`daemon::widen_accept_backlog`), and the epoll set
// and eventfd doorbells the workers wait on (the `poll` module).
#![deny(unsafe_code)]

pub mod daemon;
mod exact;
mod frame;
mod poll;
mod server;
mod store;
pub mod wire;
mod writer;

pub use daemon::{spawn, DaemonConfig, DaemonHandle, DEFAULT_QUEUE_DEPTH};
pub use frame::{CountsRecord, Frame, ModuleSpan, StoreIdentity, WindowRecord};
pub use store::{
    EpochStats, OpenReport, Partials, ProfileStore, Snapshot, StoreError, COMPACTED_SOURCE,
};
pub use wire::{DaemonStats, IngestReply, StoreClient, WireError};
