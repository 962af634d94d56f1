//! The persistent profile store: an append-only, CRC-framed segment log.
//!
//! A [`ProfileStore`] is one file holding one program's profiles: an
//! identity header, any number of per-recording [`CountsRecord`] frames
//! and per-window [`WindowRecord`] timeline frames. Appends go straight
//! to the end of the file; nothing is ever rewritten in place, so a crash
//! can only damage the **tail**, and [`ProfileStore::open`] recovers by
//! truncating at the first frame that fails its checksum or ends early —
//! the file-layer version of the perf stream decoder's resilience.
//! [`ProfileStore::open_read_only`] replays the same valid prefix but
//! leaves the tail, and the file, as they are.
//!
//! ## What stays in memory
//!
//! An open store keeps the identity, each epoch's running exact sums,
//! the distinct source ids with their next sequence numbers, and a tally
//! of its counts and window frames. The frames themselves live only in
//! the log: each is checked, encoded and written, then only **counted**,
//! so an always-on daemon grows with its sources and epochs, not with
//! the streams it accepts.
//!
//! Readers answer from the running sums: [`ProfileStore::partials`]
//! hands out the [`Partials`] that every aggregate, epoch aggregate and
//! per-epoch accounting is read from — the same type a daemon's queries
//! gather from its shards — so they read no frame back. Only two paths
//! touch the log: [`ProfileStore::windows`] reads the window frames for
//! timeline readers, skipping counts frames undecoded, and
//! [`ProfileStore::snapshot`] reads counts and window frames back in one
//! pass for a merge. [`ProfileStore::open`] and [`ProfileStore::compact`]
//! stream the log through a bounded buffer rather than reading it whole.
//!
//! ## Merge semantics (what "lossless" means here)
//!
//! The aggregate profile of a store is defined on **exact** sums, so it
//! does not depend on the order in which frames arrived or on how they
//! were split across stores. Per epoch and block, the epoch's aggregate
//! is `0.0 +` the correctly rounded exact sum of the epoch's frame values
//! for the block; a block is present exactly when some frame of the
//! epoch carries it, and a single-frame epoch therefore yields its
//! frame's own counts. The global aggregate is, per block, the correctly
//! rounded exact sum of the rounded epoch aggregates. NaN and the
//! infinities follow IEEE round-to-nearest made order-free: `+inf` with
//! `-inf` gives `f64::NAN`; otherwise a NaN gives the NaN with the
//! smallest quieted bit pattern (a lone NaN `c` gives `0.0 + c`);
//! otherwise an infinity wins; and a finite exact sum beyond the `f64`
//! range rounds to the infinity of its sign.
//!
//! Merging two stores appends the other store's frames, so no
//! information is destroyed, and because each frame carries the exact
//! `f64` bits of one recording's analysis, the merged aggregate is
//! **bit-identical** to the exact sum of the per-recording batch analyses
//! (`Analyzer::analyze_fused`) — the property pinned by
//! `crates/store/tests/fleet.rs`, with an independent big-integer
//! reference in `hbbp-oracle`.
//!
//! Each store keeps a running exact sum per epoch and block (a
//! superaccumulator for the current epoch, sealed epochs as `f64`
//! expansions), updated in O(blocks) per counts frame, so a read query
//! costs O(epochs × blocks) whatever the number of frames.
//!
//! ## Epochs (the time dimension)
//!
//! Every counts/window append is stamped with the store's **current
//! epoch** — a monotonically assigned u32, recorded in the log as an
//! epoch-boundary frame and recovered on open. Epoch 0 is implicit;
//! boundary markers are written lazily, just before the first frame of a
//! new epoch. [`ProfileStore::compact`] is **tiered**: it collapses the
//! counts frames *within* each epoch into that epoch's exact partial,
//! written as a few frames under [`COMPACTED_SOURCE`], preserving every
//! per-epoch aggregate — and therefore the global aggregate —
//! bit-exactly, then **seals** the current epoch so subsequent appends
//! open a new one. History survives compaction; only per-recording
//! provenance inside an epoch is given up. Drift queries
//! ([`Partials::epoch_aggregate`]) compare epochs long after their raw
//! frames are gone.

use crate::exact::{sum_epochs, BlockSums, Expansions};
use crate::frame::{
    crc_holds, encode_frame, frame_len, read_frame, window_frame_holds, CountsRecord, Frame,
    FrameOutcome, ModuleSpan, StoreIdentity, WindowRecord, FRAME_OVERHEAD, HEADER_LEN, MAGIC,
    T_COUNTS, T_EPOCH, T_WINDOW, VERSION,
};
use hbbp_program::{Bbec, BlockMap};
use hbbp_workloads::Workload;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Source id of the counts frames written by [`ProfileStore::compact`],
/// reserved so that no client can append under it.
pub const COMPACTED_SOURCE: u32 = u32::MAX;

/// Bytes one log read asks for. A longer frame is read whole, so a
/// reader holds at most one chunk or one frame.
const READ_CHUNK: usize = 64 * 1024;

/// Errors opening or writing a profile store.
#[derive(Debug)]
pub enum StoreError {
    /// File I/O failed.
    Io(std::io::Error),
    /// The file exists but does not start with the store magic.
    NotAStore,
    /// The file is a store of an unsupported format version.
    BadVersion(u32),
    /// An append or merge was attempted before an identity was set.
    MissingIdentity,
    /// Two different program identities met (append to a foreign store,
    /// or a merge across programs).
    IdentityMismatch,
    /// An append named the reserved [`COMPACTED_SOURCE`] id.
    ReservedSource,
    /// A sequence (or epoch) counter left u32 space — replaying such a
    /// log would reuse sequence numbers.
    SequenceOverflow(u32),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::NotAStore => write!(f, "not a profile store (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::MissingIdentity => write!(f, "store has no program identity yet"),
            StoreError::IdentityMismatch => write!(f, "program identities differ"),
            StoreError::ReservedSource => write!(
                f,
                "source id {COMPACTED_SOURCE} is reserved for compacted records"
            ),
            StoreError::SequenceOverflow(source) => {
                write!(f, "corrupt store: sequence overflow for source {source}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// The error for a log whose bytes no longer read back as they did when
/// the store opened or wrote them (the file was changed underneath it).
fn log_changed() -> StoreError {
    StoreError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        "the store log changed on disk since it was opened",
    ))
}

/// What [`ProfileStore::open`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Frames recovered (all types, including skipped unknown ones).
    pub frames: usize,
    /// Bytes past the valid log (torn write / corruption): cut off by
    /// [`ProfileStore::open`], left in place by
    /// [`ProfileStore::open_read_only`]; 0 for a clean open.
    pub truncated_bytes: u64,
    /// Whether the file existed before this open.
    pub existed: bool,
}

/// Per-epoch accounting, as listed by the daemon's `EPOCHS` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStats {
    /// The epoch id.
    pub epoch: u32,
    /// Counts frames stamped with this epoch.
    pub counts_frames: u32,
    /// EBS samples the epoch's counts frames contributed.
    pub ebs_samples: u64,
    /// LBR samples the epoch's counts frames contributed.
    pub lbr_samples: u64,
}

impl EpochStats {
    /// An epoch with no counts frames.
    fn empty(epoch: u32) -> EpochStats {
        EpochStats {
            epoch,
            counts_frames: 0,
            ebs_samples: 0,
            lbr_samples: 0,
        }
    }
}

/// An immutable, in-memory view of a store's contents, read back from
/// its log — what merges and differential tests consume.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The store's program identity, if one was ever written.
    pub identity: Option<StoreIdentity>,
    /// Every counts frame, in log order.
    pub counts: Vec<CountsRecord>,
    /// Every window timeline frame, in log order.
    pub windows: Vec<WindowRecord>,
    /// Epoch stamp of each counts frame (parallel to `counts`).
    pub counts_epochs: Vec<u32>,
    /// Epoch stamp of each window frame (parallel to `windows`).
    pub window_epochs: Vec<u32>,
}

impl Snapshot {
    /// The global aggregate: per block, the correctly rounded exact sum
    /// of the per-epoch aggregates ([`Snapshot::epoch_aggregate`]). It
    /// does not depend on the order of the frames, nor on how they are
    /// split across stores, so it is bit-identical before and after
    /// [`ProfileStore::compact`] and to a multi-shard daemon's answer.
    pub fn aggregate(&self) -> Bbec {
        self.partials(|_| true).aggregate()
    }

    /// Distinct epochs with at least one counts or window frame,
    /// ascending.
    pub fn epochs(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .counts_epochs
            .iter()
            .chain(self.window_epochs.iter())
            .copied()
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// One epoch's aggregate: per block, `0.0 +` the correctly rounded
    /// exact sum of the epoch's frame values (NaN and the infinities as
    /// the module docs say). A block is present exactly when some frame
    /// of the epoch carries it; a single-frame epoch yields its frame's
    /// counts as `0.0 + c`. Empty for an unknown epoch.
    pub fn epoch_aggregate(&self, epoch: u32) -> Bbec {
        self.partials(|e| e == epoch).epoch_aggregate(epoch)
    }

    /// Per-epoch frame/sample accounting, ascending by epoch; an epoch
    /// with only window frames counts none.
    pub fn epoch_stats(&self) -> Vec<EpochStats> {
        let partials = self.partials(|_| true);
        self.epochs()
            .into_iter()
            .map(|epoch| partials.stats(epoch))
            .collect()
    }

    /// The exact partials of the counts frames of the epochs `keep`
    /// accepts, summed as a store sums them as they arrive.
    fn partials(&self, keep: impl Fn(u32) -> bool) -> Partials {
        let mut frames: Vec<(u32, &CountsRecord)> = self
            .counts_epochs
            .iter()
            .copied()
            .zip(&self.counts)
            .filter(|(epoch, _)| keep(*epoch))
            .collect();
        frames.sort_by_key(|(epoch, _)| *epoch);
        let mut sums = RunningSums::default();
        for (epoch, rec) in frames {
            sums.add(epoch, rec);
        }
        Partials::gather([sums.partials()])
    }
}

/// One epoch's exact partial: its accounting and each block's sum as an
/// expansion. What a shard writer answers a read query with, one per
/// epoch that has counts frames.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EpochPartial {
    /// The epoch's frame and sample accounting.
    pub stats: EpochStats,
    /// Each block's exact sum.
    pub sums: Expansions,
}

/// Epoch partials combined, from any number of shards: the one read
/// surface for aggregates and accounting. A daemon's read queries gather
/// every writer's partials; an open store hands out its own through
/// [`ProfileStore::partials`]; a [`Snapshot`] sums its frames into one.
#[derive(Debug)]
pub struct Partials {
    /// Ascending by epoch; each epoch's partials from every shard that
    /// has it.
    epochs: BTreeMap<u32, Vec<Arc<EpochPartial>>>,
}

impl Partials {
    /// Gather shards' partials, in any order.
    pub(crate) fn gather(shards: impl IntoIterator<Item = Vec<Arc<EpochPartial>>>) -> Partials {
        let mut epochs: BTreeMap<u32, Vec<Arc<EpochPartial>>> = BTreeMap::new();
        for partial in shards.into_iter().flatten() {
            epochs.entry(partial.stats.epoch).or_default().push(partial);
        }
        Partials { epochs }
    }

    /// Per-epoch accounting summed over shards, ascending by epoch: one
    /// entry per epoch with counts frames.
    pub fn epoch_stats(&self) -> Vec<EpochStats> {
        self.epochs.keys().map(|&epoch| self.stats(epoch)).collect()
    }

    /// One epoch's accounting summed over shards; no frames for an epoch
    /// no shard has.
    fn stats(&self, epoch: u32) -> EpochStats {
        let parts = self.epochs.get(&epoch).into_iter().flatten();
        parts.fold(EpochStats::empty(epoch), |mut s, p| {
            s.counts_frames += p.stats.counts_frames;
            s.ebs_samples += p.stats.ebs_samples;
            s.lbr_samples += p.stats.lbr_samples;
            s
        })
    }

    /// Whether some shard has counts frames in `epoch`.
    pub fn has_epoch(&self, epoch: u32) -> bool {
        self.epochs.contains_key(&epoch)
    }

    /// One epoch's aggregate (see [`Snapshot::epoch_aggregate`]); empty
    /// for an epoch no shard has.
    pub fn epoch_aggregate(&self, epoch: u32) -> Bbec {
        let mut sums = BlockSums::default();
        for part in self.epochs.get(&epoch).into_iter().flatten() {
            sums.add_expansions(&part.sums);
        }
        sums.round()
    }

    /// The global aggregate (see [`Snapshot::aggregate`]).
    pub fn aggregate(&self) -> Bbec {
        let epochs: Vec<Bbec> = self
            .epochs
            .keys()
            .map(|&e| self.epoch_aggregate(e))
            .collect();
        sum_epochs(&epochs)
    }
}

/// A store's running sums: one exact partial per epoch with counts
/// frames. Frames only ever land in the current epoch, so every epoch
/// but the newest is sealed as expansions; the newest adds into a
/// superaccumulator per block.
#[derive(Debug, Default)]
struct RunningSums {
    sealed: Vec<Arc<EpochPartial>>,
    open: Option<(EpochStats, BlockSums)>,
}

impl RunningSums {
    /// Add one counts frame of `epoch` (never older than the newest
    /// epoch already held).
    fn add(&mut self, epoch: u32, rec: &CountsRecord) {
        if self.open.as_ref().is_some_and(|(s, _)| s.epoch != epoch) {
            self.seal();
        }
        let (stats, sums) = self
            .open
            .get_or_insert_with(|| (EpochStats::empty(epoch), BlockSums::default()));
        stats.counts_frames += 1;
        stats.ebs_samples += rec.ebs_samples;
        stats.lbr_samples += rec.lbr_samples;
        sums.add_bbec(&rec.bbec);
    }

    /// Seal the open epoch into its expansions.
    fn seal(&mut self) {
        self.sealed.extend(self.open_partial());
        self.open = None;
    }

    /// The open epoch's partial, if any.
    fn open_partial(&self) -> Option<Arc<EpochPartial>> {
        self.open.as_ref().map(|(stats, sums)| {
            Arc::new(EpochPartial {
                stats: *stats,
                sums: sums.expansions(),
            })
        })
    }

    /// Every epoch's partial, ascending by epoch.
    fn partials(&self) -> Vec<Arc<EpochPartial>> {
        let mut partials = self.sealed.clone();
        partials.extend(self.open_partial());
        partials
    }
}

/// The frames of a file region `[at, end)`, read through a bounded
/// buffer with positional reads, so the file's append cursor never
/// moves. A length word is believed only as far as the bytes left in
/// the region: a frame that claims more ends the region instead of
/// sizing a read.
struct LogReader {
    /// File offset of `buf[head]`.
    at: u64,
    end: u64,
    buf: Vec<u8>,
    head: usize,
}

impl LogReader {
    fn new(at: u64, end: u64) -> LogReader {
        LogReader {
            at,
            end,
            buf: Vec::new(),
            head: 0,
        }
    }

    /// The next whole frame's bytes, its checksum not yet checked, or
    /// `None` at the end of the region or where a frame would run past
    /// it (`at` then tells which).
    fn next(&mut self, file: &File) -> io::Result<Option<&[u8]>> {
        let left = self.end - self.at;
        loop {
            let held = &self.buf[self.head..];
            let need = frame_len(held).unwrap_or(FRAME_OVERHEAD);
            if need as u64 > left {
                return Ok(None);
            }
            if held.len() >= need {
                let start = self.head;
                self.head += need;
                self.at += need as u64;
                return Ok(Some(&self.buf[start..self.head]));
            }
            // Hold `want` bytes from `at` on: drop what was returned,
            // then read what is missing.
            let want = need.max(READ_CHUNK).min(left as usize);
            self.buf.drain(..self.head);
            self.head = 0;
            let have = self.buf.len();
            self.buf.resize(want, 0);
            file.read_exact_at(&mut self.buf[have..], self.at + have as u64)?;
        }
    }
}

/// An open, append-only profile store file. See the module docs for the
/// format, the merge semantics and what is kept in memory.
#[derive(Debug)]
pub struct ProfileStore {
    path: PathBuf,
    file: File,
    /// Byte length of the valid log (appends start here).
    len: u64,
    /// Encoded frames accepted by a `*_deferred` append but not yet
    /// written to the file — flushed as one write by
    /// [`ProfileStore::commit`] (group commit).
    pending: Vec<u8>,
    identity: Option<StoreIdentity>,
    /// Each epoch's exact per-block sums over the counts frames, kept as
    /// frames arrive so that reads cost O(blocks), not O(frames).
    sums: RunningSums,
    /// Distinct source ids of the counts frames.
    sources: BTreeSet<u32>,
    /// Counts and window frames in the log and the pending buffer; the
    /// frames themselves are not kept.
    counts_frames: u64,
    window_frames: u64,
    next_seq: HashMap<u32, u32>,
    /// Whether the file was opened for writing; a read-only store refuses
    /// to compact (its appends fail at the file handle).
    writable: bool,
    /// Epoch stamped onto the next counts/window append.
    current_epoch: u32,
    /// Highest epoch whose boundary marker is in the log (or pending
    /// buffer); epoch 0 is implicit. Markers are written lazily, just
    /// before the first frame of a new epoch, so advancing past an
    /// epoch that never receives a frame leaves no trace.
    marked_epoch: u32,
    report: OpenReport,
}

impl ProfileStore {
    /// Open (or create) the store at `path`, recovering from a torn tail:
    /// the log is replayed frame by frame and truncated at the first
    /// frame whose checksum fails or that ends mid-frame. Every complete,
    /// checksum-valid frame before that point survives. The replay
    /// streams the file through a bounded buffer; a length word that
    /// reaches past the end of the file is a torn tail, never a read of
    /// that size.
    ///
    /// # Errors
    ///
    /// I/O failures, a file that is not a store, or an unsupported
    /// version. Corruption is **not** an error — it is truncated away and
    /// reported in [`ProfileStore::open_report`].
    pub fn open(path: impl AsRef<Path>) -> Result<ProfileStore, StoreError> {
        ProfileStore::replay(path.as_ref(), true)
    }

    /// Open the existing store at `path` for reading only: the replay of
    /// [`ProfileStore::open`], which stops at the same frame, but the
    /// file is never created, cut or written, so a reader may open a
    /// store that a live writer is appending to. A torn tail is ignored
    /// and reported in [`ProfileStore::open_report`]. Appends to the
    /// store fail with an I/O error, and so does a compaction.
    ///
    /// # Errors
    ///
    /// As [`ProfileStore::open`], and a missing file is an I/O error.
    pub fn open_read_only(path: impl AsRef<Path>) -> Result<ProfileStore, StoreError> {
        ProfileStore::replay(path.as_ref(), false)
    }

    /// The one replay body behind both opens; only a `writable` open
    /// creates the file, rewrites a torn header and truncates a torn tail.
    fn replay(path: &Path, writable: bool) -> Result<ProfileStore, StoreError> {
        let path = path.to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(writable)
            .create(writable)
            .truncate(false)
            .open(&path)?;
        let file_len = file.metadata()?.len();
        let mut store = ProfileStore {
            path,
            file,
            len: HEADER_LEN as u64,
            pending: Vec::new(),
            identity: None,
            sums: RunningSums::default(),
            sources: BTreeSet::new(),
            counts_frames: 0,
            window_frames: 0,
            next_seq: HashMap::new(),
            writable,
            current_epoch: 0,
            marked_epoch: 0,
            report: OpenReport {
                frames: 0,
                truncated_bytes: 0,
                existed: file_len > 0,
            },
        };

        // Header: a new file, or a short one that is a prefix of a valid
        // header (a torn header write), starts over; anything else short
        // is foreign.
        let mut header = [0u8; HEADER_LEN];
        let held = file_len.min(HEADER_LEN as u64) as usize;
        store.file.read_exact_at(&mut header[..held], 0)?;
        if held < HEADER_LEN {
            let n = held.min(MAGIC.len());
            if header[..n] != MAGIC[..n] {
                return Err(StoreError::NotAStore);
            }
            store.report.truncated_bytes = file_len;
            if writable {
                store.file.set_len(0)?;
                store.file.seek(SeekFrom::Start(0))?;
                store.file.write_all(MAGIC)?;
                store.file.write_all(&VERSION.to_le_bytes())?;
                store.file.flush()?;
            }
            return Ok(store);
        }
        if &header[..MAGIC.len()] != MAGIC {
            return Err(StoreError::NotAStore);
        }
        let version = u32::from_le_bytes(header[MAGIC.len()..].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }

        // Replay frames; stop (and truncate, if writable) at the first bad
        // one.
        let mut log = LogReader::new(store.len, file_len);
        'replay: while let Some(bytes) = log.next(&store.file)? {
            // Windows are only counted: check one without decoding it.
            if bytes[0] == T_WINDOW {
                if !window_frame_holds(bytes) {
                    break;
                }
                store.window_frames += 1;
                store.report.frames += 1;
                store.len += bytes.len() as u64;
                continue;
            }
            match read_frame(bytes) {
                FrameOutcome::Frame { frame, consumed } => {
                    if let Some(frame) = frame {
                        match store.apply(frame) {
                            Ok(()) => {}
                            // A sequence counter leaving u32 space means
                            // sequence numbers can no longer be trusted:
                            // surface the corruption instead of silently
                            // discarding a checksum-valid frame.
                            Err(e @ StoreError::SequenceOverflow(_)) => return Err(e),
                            // An identity conflict or a non-ascending
                            // epoch marker mid-log is corruption in the
                            // same sense as a failed checksum: keep the
                            // consistent prefix.
                            Err(_) => break 'replay,
                        }
                    }
                    store.report.frames += 1;
                    store.len += consumed as u64;
                }
                FrameOutcome::Incomplete | FrameOutcome::Corrupt => break,
            }
        }
        store.report.truncated_bytes = file_len - store.len;
        if writable {
            store.file.set_len(store.len)?;
            store.file.seek(SeekFrom::Start(store.len))?;
        }
        Ok(store)
    }

    /// [`ProfileStore::open`], then set or verify the program identity:
    /// a fresh store adopts `identity`; an existing one must match it.
    ///
    /// # Errors
    ///
    /// Everything [`ProfileStore::open`] returns, plus
    /// [`StoreError::IdentityMismatch`] when the file already belongs to
    /// a different program.
    pub fn open_with_identity(
        path: impl AsRef<Path>,
        identity: StoreIdentity,
    ) -> Result<ProfileStore, StoreError> {
        let mut store = ProfileStore::open(path)?;
        match &store.identity {
            Some(existing) if *existing == identity => {}
            Some(_) => return Err(StoreError::IdentityMismatch),
            None => store.set_identity(identity)?,
        }
        Ok(store)
    }

    /// Apply a replayed frame to the in-memory state: identity, counts
    /// and sequence numbers, epoch. Window frames never get here: the
    /// replay counts them without decoding them.
    fn apply(&mut self, frame: Frame) -> Result<(), StoreError> {
        match frame {
            Frame::Identity(id) => match &self.identity {
                Some(existing) if *existing != id => return Err(StoreError::IdentityMismatch),
                _ => self.identity = Some(id),
            },
            Frame::Counts(rec) => {
                let follower = rec
                    .seq
                    .checked_add(1)
                    .ok_or(StoreError::SequenceOverflow(rec.source))?;
                let next = self.next_seq.entry(rec.source).or_insert(0);
                *next = (*next).max(follower);
                self.keep_counts(self.current_epoch, &rec);
            }
            Frame::Window(_) => {}
            Frame::Epoch(epoch) => {
                // Markers must ascend; a regressing marker is treated as
                // corruption by the replay loop (identity-mismatch
                // semantics).
                if epoch <= self.marked_epoch && !(epoch == 0 && self.marked_epoch == 0) {
                    return Err(StoreError::IdentityMismatch);
                }
                self.current_epoch = epoch;
                self.marked_epoch = epoch;
            }
        }
        Ok(())
    }

    /// Encode one frame into the pending buffer (not yet in the file).
    fn buffer_frame(&mut self, frame: &Frame) {
        self.pending.extend_from_slice(&encode_frame(frame));
    }

    /// Flush every deferred append to the file as **one** write (group
    /// commit). A no-op when nothing is pending. On success, everything
    /// accepted by a `*_deferred` call is handed to the OS but **not
    /// fsynced**: a host crash can lose recent frames, which reappear as
    /// a clean or torn tail that [`ProfileStore::open`] recovers from
    /// ([`ProfileStore::compact`] is the fsync point). On failure the
    /// pending bytes are kept so a retry is possible, but the running
    /// sums and frame tallies already include the deferred frames, so
    /// callers that cannot retry should treat the store as poisoned.
    ///
    /// # Errors
    ///
    /// I/O failures writing the log.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.pending)?;
        self.file.flush()?;
        self.len += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Bytes accepted by `*_deferred` appends but not yet committed.
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte length of the valid log.
    pub fn file_bytes(&self) -> u64 {
        self.len
    }

    /// What [`ProfileStore::open`] found and did.
    pub fn open_report(&self) -> &OpenReport {
        &self.report
    }

    /// The program identity, if one was written.
    pub fn identity(&self) -> Option<&StoreIdentity> {
        self.identity.as_ref()
    }

    /// Write the identity header. Only valid once per store.
    ///
    /// # Errors
    ///
    /// [`StoreError::IdentityMismatch`] if a different identity is
    /// already set; I/O errors from the append.
    pub fn set_identity(&mut self, identity: StoreIdentity) -> Result<(), StoreError> {
        match &self.identity {
            Some(existing) if *existing == identity => Ok(()),
            Some(_) => Err(StoreError::IdentityMismatch),
            None => {
                self.buffer_frame(&Frame::Identity(identity.clone()));
                self.commit()?;
                self.identity = Some(identity);
                Ok(())
            }
        }
    }

    /// Append one recording's counts, assigning the next sequence number
    /// for `source`. Returns the assigned `seq`.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingIdentity`] before an identity is set;
    /// [`StoreError::ReservedSource`] for [`COMPACTED_SOURCE`]; I/O
    /// errors from the append.
    pub fn append_counts(
        &mut self,
        source: u32,
        ebs_samples: u64,
        lbr_samples: u64,
        bbec: Bbec,
    ) -> Result<u32, StoreError> {
        let seq = self.append_counts_deferred(source, ebs_samples, lbr_samples, bbec)?;
        self.commit()?;
        Ok(seq)
    }

    /// [`ProfileStore::append_counts`] without the write: the frame is
    /// buffered until the next [`ProfileStore::commit`] (or any
    /// non-deferred append), so a writer can batch many appends into one
    /// file write. The assigned `seq`, the running sums (and thus every
    /// aggregate), [`ProfileStore::counts_frames`] and
    /// [`ProfileStore::snapshot`] reflect the frame immediately.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingIdentity`] before an identity is set;
    /// [`StoreError::ReservedSource`] for [`COMPACTED_SOURCE`].
    pub fn append_counts_deferred(
        &mut self,
        source: u32,
        ebs_samples: u64,
        lbr_samples: u64,
        bbec: Bbec,
    ) -> Result<u32, StoreError> {
        if source == COMPACTED_SOURCE {
            return Err(StoreError::ReservedSource);
        }
        self.push_counts(source, ebs_samples, lbr_samples, bbec)
    }

    /// The append path shared with [`ProfileStore::merge_from`], which
    /// legitimately carries [`COMPACTED_SOURCE`] frames.
    fn push_counts(
        &mut self,
        source: u32,
        ebs_samples: u64,
        lbr_samples: u64,
        bbec: Bbec,
    ) -> Result<u32, StoreError> {
        if self.identity.is_none() {
            return Err(StoreError::MissingIdentity);
        }
        let next = self.next_seq.entry(source).or_insert(0);
        let seq = *next;
        *next = seq
            .checked_add(1)
            .ok_or(StoreError::SequenceOverflow(source))?;
        let epoch = self.current_epoch;
        self.mark_epoch();
        let rec = CountsRecord {
            source,
            seq,
            ebs_samples,
            lbr_samples,
            bbec,
        };
        self.keep_counts(epoch, &rec);
        self.buffer_frame(&Frame::Counts(rec));
        Ok(seq)
    }

    /// Account for a counts frame of `epoch`: add it to the running sums,
    /// note its source and count it. The frame itself stays in the log.
    fn keep_counts(&mut self, epoch: u32, rec: &CountsRecord) {
        self.sums.add(epoch, rec);
        self.sources.insert(rec.source);
        self.counts_frames += 1;
    }

    /// Buffer the current epoch's boundary marker if the log does not
    /// carry it yet (lazy: an epoch that never receives a frame leaves
    /// no trace).
    fn mark_epoch(&mut self) {
        if self.current_epoch > self.marked_epoch {
            let frame = Frame::Epoch(self.current_epoch);
            self.buffer_frame(&frame);
            self.marked_epoch = self.current_epoch;
        }
    }

    /// Append one window timeline record.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingIdentity`] before an identity is set; I/O
    /// errors from the append.
    pub fn append_window(&mut self, record: WindowRecord) -> Result<(), StoreError> {
        self.append_window_deferred(record)?;
        self.commit()
    }

    /// [`ProfileStore::append_window`] without the write — buffered until
    /// the next [`ProfileStore::commit`], like
    /// [`ProfileStore::append_counts_deferred`]. The record is encoded
    /// and counted, not kept.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingIdentity`] before an identity is set.
    pub fn append_window_deferred(&mut self, record: WindowRecord) -> Result<(), StoreError> {
        if self.identity.is_none() {
            return Err(StoreError::MissingIdentity);
        }
        self.mark_epoch();
        self.buffer_frame(&Frame::Window(record));
        self.window_frames += 1;
        Ok(())
    }

    /// Number of counts frames, committed or pending.
    pub fn counts_frames(&self) -> u64 {
        self.counts_frames
    }

    /// Number of window timeline frames, committed or pending.
    pub fn window_frames(&self) -> u64 {
        self.window_frames
    }

    /// Window timeline frames in log order, read back from the log (see
    /// [`ProfileStore::try_snapshot`]) in one pass that skips the counts
    /// frames without decoding them.
    ///
    /// # Errors
    ///
    /// I/O errors reading the log, including a log that no longer reads
    /// back as written.
    pub fn windows(&self) -> Result<Vec<WindowRecord>, StoreError> {
        Ok(self.read_back(false)?.windows)
    }

    /// The epoch stamped onto the next append. Starts at 0; advanced by
    /// [`ProfileStore::advance_epoch`] and sealed by
    /// [`ProfileStore::compact`]; recovered from the log's boundary
    /// markers on open.
    pub fn current_epoch(&self) -> u32 {
        self.current_epoch
    }

    /// Open a new epoch: every subsequent append is stamped with the
    /// returned id. The boundary marker is written lazily with the
    /// epoch's first frame, so an advance that is never followed by an
    /// append does not survive a reopen.
    ///
    /// # Errors
    ///
    /// [`StoreError::SequenceOverflow`] if the epoch counter would leave
    /// u32 space.
    pub fn advance_epoch(&mut self) -> Result<u32, StoreError> {
        self.current_epoch = self
            .current_epoch
            .checked_add(1)
            .ok_or(StoreError::SequenceOverflow(COMPACTED_SOURCE))?;
        Ok(self.current_epoch)
    }

    /// An immutable view of the current contents, read back from the log
    /// (see [`ProfileStore::try_snapshot`]).
    ///
    /// # Panics
    ///
    /// On an I/O error reading the store's own log back;
    /// [`ProfileStore::try_snapshot`] reports it instead.
    pub fn snapshot(&self) -> Snapshot {
        self.try_snapshot()
            .unwrap_or_else(|e| panic!("reading {} back: {e}", self.path.display()))
    }

    /// An immutable view of the current contents. Counts and window
    /// frames are read back from the log — the committed file through
    /// positional reads that leave the append cursor alone, then the
    /// pending buffer — so the cost is one pass over the log.
    ///
    /// # Errors
    ///
    /// I/O errors reading the log, including a log that no longer reads
    /// back as written.
    pub fn try_snapshot(&self) -> Result<Snapshot, StoreError> {
        self.read_back(true)
    }

    /// The log's window frames, and its counts frames too when `counts`
    /// is set (otherwise they are skipped, never decoded). Each kind read
    /// must match its tally.
    fn read_back(&self, counts: bool) -> Result<Snapshot, StoreError> {
        let mut snap = Snapshot {
            identity: self.identity.clone(),
            counts: Vec::new(),
            windows: Vec::new(),
            counts_epochs: Vec::new(),
            window_epochs: Vec::new(),
        };
        self.for_each_frame(|bytes, epoch| {
            if bytes[0] == T_COUNTS && !counts {
                return Ok(());
            }
            match read_frame(bytes) {
                FrameOutcome::Frame {
                    frame: Some(Frame::Counts(c)),
                    ..
                } => {
                    snap.counts.push(c);
                    snap.counts_epochs.push(epoch);
                }
                FrameOutcome::Frame {
                    frame: Some(Frame::Window(w)),
                    ..
                } => {
                    snap.windows.push(w);
                    snap.window_epochs.push(epoch);
                }
                _ => return Err(log_changed()),
            }
            Ok(())
        })?;
        let counts_frames = if counts { self.counts_frames } else { 0 };
        if snap.counts.len() as u64 != counts_frames
            || snap.windows.len() as u64 != self.window_frames
        {
            return Err(log_changed());
        }
        Ok(snap)
    }

    /// Visit every counts and window frame in log order — the committed
    /// file, then the pending buffer — with the epoch it belongs to, as
    /// the epoch frames on the way say. `visit` gets the frame's bytes,
    /// checksum not yet checked.
    fn for_each_frame(
        &self,
        mut visit: impl FnMut(&[u8], u32) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut epoch = 0;
        let mut step = |frame: &[u8]| match frame[0] {
            T_COUNTS | T_WINDOW => visit(frame, epoch),
            T_EPOCH => match read_frame(frame) {
                FrameOutcome::Frame {
                    frame: Some(Frame::Epoch(e)),
                    ..
                } => {
                    epoch = e;
                    Ok(())
                }
                _ => Err(log_changed()),
            },
            _ => Ok(()),
        };
        let mut log = LogReader::new(HEADER_LEN as u64, self.len);
        while let Some(frame) = log.next(&self.file)? {
            step(frame)?;
        }
        if log.at != self.len {
            return Err(log_changed());
        }
        let mut rest = self.pending.as_slice();
        while let Some(len) = frame_len(rest) {
            let (frame, tail) = rest.split_at(len);
            step(frame)?;
            rest = tail;
        }
        Ok(())
    }

    /// Every epoch's exact partial, ascending by epoch — everything a
    /// read query needs from this store. Sealed epochs are shared, not
    /// copied.
    pub(crate) fn epoch_partials(&self) -> Vec<Arc<EpochPartial>> {
        self.sums.partials()
    }

    /// The running sums as a read surface: every aggregate and the
    /// per-epoch accounting, answered from memory without reading the
    /// log.
    pub fn partials(&self) -> Partials {
        Partials::gather([self.epoch_partials()])
    }

    /// Distinct source ids across the counts frames, ascending.
    pub fn sources(&self) -> Vec<u32> {
        self.sources.iter().copied().collect()
    }

    /// Merge another store's contents into this one — lossless: every
    /// counts and window frame of `other` is appended (counts are
    /// re-sequenced per source so per-source order is preserved without
    /// colliding with frames already present).
    ///
    /// ```
    /// use hbbp_program::{Bbec, Ring};
    /// use hbbp_store::{ModuleSpan, ProfileStore, StoreIdentity};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let dir = std::env::temp_dir().join(format!("hbbp-merge-doc-{}", std::process::id()));
    /// std::fs::create_dir_all(&dir)?;
    /// let identity = StoreIdentity {
    ///     program: "demo".into(),
    ///     block_count: 1,
    ///     modules: vec![ModuleSpan { name: "demo.bin".into(), base: 0x1000, len: 0x100, ring: Ring::User }],
    /// };
    /// let mut a = ProfileStore::open_with_identity(dir.join("a.hbbp"), identity.clone())?;
    /// let mut b = ProfileStore::open_with_identity(dir.join("b.hbbp"), identity)?;
    /// a.append_counts(1, 10, 5, [(0x1000u64, 0.1)].into_iter().collect::<Bbec>())?;
    /// b.append_counts(2, 20, 9, [(0x1000u64, 0.2)].into_iter().collect::<Bbec>())?;
    /// b.append_counts(2, 20, 9, [(0x1000u64, 0.3)].into_iter().collect::<Bbec>())?;
    ///
    /// // Lossless: every counts frame survives, and the aggregate is the
    /// // correctly rounded exact sum over the union — whatever the order
    /// // of the adds, so merging the other way round gives the same bits.
    /// a.merge_from(&b.snapshot())?;
    /// assert_eq!(a.counts_frames(), 3);
    /// assert_eq!(a.partials().aggregate().get(0x1000), 0.6);
    /// assert_eq!(b.partials().aggregate().get(0x1000), 0.5);
    /// # std::fs::remove_dir_all(&dir)?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`StoreError::IdentityMismatch`] when the identities differ (or
    /// [`StoreError::MissingIdentity`] when either side has none); I/O
    /// errors from the appends.
    pub fn merge_from(&mut self, other: &Snapshot) -> Result<(), StoreError> {
        let (Some(mine), Some(theirs)) = (&self.identity, &other.identity) else {
            return Err(StoreError::MissingIdentity);
        };
        if mine != theirs {
            return Err(StoreError::IdentityMismatch);
        }
        let mut in_order: Vec<&CountsRecord> = other.counts.iter().collect();
        in_order.sort_by_key(|r| (r.source, r.seq));
        for rec in in_order {
            // `push_counts`, not the public append: the other store may
            // legitimately carry `COMPACTED_SOURCE` frames. Merged
            // frames are re-sequenced and land in **this** store's
            // current epoch — a merge is an ingest event of the target's
            // timeline.
            self.push_counts(
                rec.source,
                rec.ebs_samples,
                rec.lbr_samples,
                rec.bbec.clone(),
            )?;
        }
        for w in &other.windows {
            self.append_window_deferred(w.clone())?;
        }
        // One group commit for the whole merge.
        self.commit()
    }

    /// Tiered compaction: rewrite the log as identity + **each epoch's
    /// exact partial** + the window timeline (grouped under its epoch
    /// markers), atomically (temp file + rename + directory fsync; this
    /// is also the store's fsync point). An epoch's partial is written as
    /// consecutive counts frames under [`COMPACTED_SOURCE`]: frame *i*
    /// holds term *i* of each block's canonical expansion, and the first
    /// frame carries every block of the epoch (its term 0 is the block's
    /// rounded sum) and the epoch's sample totals. The frames' exact sum
    /// is the epoch's, so every per-epoch aggregate, the global aggregate
    /// and every query of a daemon compacting all of its shards stay
    /// **bit-identical**. Only per-recording provenance *inside* an epoch
    /// is given up; history across epochs survives. An epoch may thus
    /// count more than one frame after compaction.
    ///
    /// The compacted frames come from the running sums; the window frames
    /// are copied from the old log (and any pending bytes) as
    /// checksum-verified raw bytes in one streaming pass, so compaction
    /// holds no more of the timeline than one read buffer. Frames of an
    /// unknown type are dropped.
    ///
    /// Compaction **seals** the current epoch *unconditionally*:
    /// subsequent appends are stamped with a fresh epoch, so each
    /// compact→ingest cycle adds one tier instead of erasing the last.
    /// An idle store seals too — the empty epoch costs one marker frame
    /// and never shows up in [`Snapshot::epochs`] — because a daemon
    /// fans `COMPACT` out to every shard, and a shard that happened to
    /// be empty must advance in lockstep or the shards' epoch numbering
    /// diverges (post-compact ingest on the idle shard would land in the
    /// epoch its siblings just sealed).
    ///
    /// The per-source sequence map survives compaction unchanged (a
    /// source re-appending afterwards continues its sequence instead of
    /// restarting at 0, which would violate per-source ordering under a
    /// later [`ProfileStore::merge_from`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingIdentity`] on an identity-less store; I/O
    /// errors on a store opened read-only, or from reading the old log or
    /// writing, syncing or renaming the temp file.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        if !self.writable {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "a store opened read-only cannot be compacted",
            )));
        }
        let Some(identity) = self.identity.clone() else {
            return Err(StoreError::MissingIdentity);
        };
        // Seal: the compacted epoch becomes closed history; appends after
        // this compact open a fresh tier. Sealing is durable — the new
        // epoch's boundary marker is written at the tail of the rewritten
        // log (the one eager marker; ordinary advances stay lazy).
        let sealed = self
            .current_epoch
            .checked_add(1)
            .ok_or(StoreError::SequenceOverflow(COMPACTED_SOURCE))?;

        let partials = self.epoch_partials();
        let first_fold = self.next_seq.get(&COMPACTED_SOURCE).copied().unwrap_or(0);
        let next_fold = u32::try_from(partials.iter().map(|p| terms(p)).sum::<usize>())
            .ok()
            .and_then(|n| first_fold.checked_add(n))
            .ok_or(StoreError::SequenceOverflow(COMPACTED_SOURCE))?;

        let tmp_path = self.path.with_extension("tmp");
        let mut out = BufWriter::new(File::create(&tmp_path)?);
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&encode_frame(&Frame::Identity(identity)))?;
        // Tier by tier in epoch order: each epoch's marker (when it needs
        // one), its compacted frames, then its windows. The log is
        // epoch-ordered, so the windows arrive tier by tier.
        let mut marked = 0u32;
        let mut write = |out: &mut BufWriter<File>, epoch: u32, frame: &[u8]| {
            if epoch > marked {
                out.write_all(&encode_frame(&Frame::Epoch(epoch)))?;
                marked = epoch;
            }
            out.write_all(frame)
        };
        let mut folds = term_frames(&partials, first_fold).peekable();
        self.for_each_frame(|frame, epoch| {
            if frame[0] != T_WINDOW {
                return Ok(());
            }
            if !crc_holds(frame) {
                return Err(log_changed());
            }
            while let Some((e, fold)) = folds.next_if(|(e, _)| *e <= epoch) {
                write(&mut out, e, &encode_frame(&Frame::Counts(fold)))?;
            }
            Ok(write(&mut out, epoch, frame)?)
        })?;
        for (e, fold) in folds {
            write(&mut out, e, &encode_frame(&Frame::Counts(fold)))?;
        }
        write(&mut out, sealed, &[])?;
        let tmp = out.into_inner().map_err(|e| e.into_error())?;
        tmp.sync_all()?;
        let len = tmp.metadata()?.len();
        drop(tmp);
        std::fs::rename(&tmp_path, &self.path)?;
        // The rename is durable only once the directory entry is.
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;

        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        // Deferred frames are part of the log just rewritten; the
        // buffered bytes must not be appended again.
        self.pending.clear();
        self.len = len;
        // Account for the compacted frames as a replay of the new log
        // would.
        self.sums = RunningSums::default();
        self.sources.clear();
        self.counts_frames = 0;
        for (epoch, fold) in term_frames(&partials, first_fold) {
            self.keep_counts(epoch, &fold);
        }
        self.next_seq.insert(COMPACTED_SOURCE, next_fold);
        self.marked_epoch = marked;
        self.current_epoch = sealed;
        Ok(())
    }
}

/// How many frames [`ProfileStore::compact`] writes for an epoch: one
/// per term of its longest expansion, and one for an epoch whose frames
/// carry no blocks, which keeps the epoch and its sample totals.
fn terms(partial: &EpochPartial) -> usize {
    partial.sums.depth().max(1)
}

/// The frames [`ProfileStore::compact`] writes for `partials`, with their
/// epochs: frame *i* of an epoch holds term *i* of each block's
/// expansion, and its first frame the epoch's sample totals. Sequence
/// numbers count up from `first_seq`.
fn term_frames(
    partials: &[Arc<EpochPartial>],
    first_seq: u32,
) -> impl Iterator<Item = (u32, CountsRecord)> + '_ {
    let frames = partials
        .iter()
        .flat_map(|p| (0..terms(p)).map(move |i| (p, i)));
    frames.zip(first_seq..).map(|((p, i), seq)| {
        let (ebs_samples, lbr_samples) = match i {
            0 => (p.stats.ebs_samples, p.stats.lbr_samples),
            _ => (0, 0),
        };
        let rec = CountsRecord {
            source: COMPACTED_SOURCE,
            seq,
            ebs_samples,
            lbr_samples,
            bbec: p.sums.term(i),
        };
        (p.stats.epoch, rec)
    })
}

impl StoreIdentity {
    /// The identity of a workload's address space: program name, block
    /// count of `map`, and every module's load span.
    pub fn of_workload(workload: &Workload, map: &BlockMap) -> StoreIdentity {
        StoreIdentity {
            program: workload.program().name().to_owned(),
            block_count: map.len() as u32,
            modules: workload
                .program()
                .modules()
                .iter()
                .map(|m| {
                    let (base, end) = workload.layout().module_range(m.id());
                    ModuleSpan {
                        name: m.name().to_owned(),
                        base,
                        len: end - base,
                        ring: m.ring(),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbp_program::Ring;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hbbp-store-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn identity() -> StoreIdentity {
        StoreIdentity {
            program: "p".into(),
            block_count: 3,
            modules: vec![ModuleSpan {
                name: "p.bin".into(),
                base: 0x400000,
                len: 0x1000,
                ring: Ring::User,
            }],
        }
    }

    fn bbec(entries: &[(u64, f64)]) -> Bbec {
        entries.iter().copied().collect()
    }

    #[test]
    fn append_reopen_roundtrip() {
        let path = tmp("roundtrip.hbbp");
        {
            let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
            assert!(!s.open_report().existed);
            let seq0 = s
                .append_counts(1, 10, 5, bbec(&[(0x400000, 2.5), (0x400010, 1.0)]))
                .unwrap();
            let seq1 = s.append_counts(1, 4, 2, bbec(&[(0x400000, 0.5)])).unwrap();
            assert_eq!((seq0, seq1), (0, 1));
            s.append_window(WindowRecord {
                source: 1,
                index: 0,
                start_cycles: 0,
                end_cycles: 100,
                ebs_samples: 10,
                lbr_samples: 5,
                mix: MnemonicMix::new(),
            })
            .unwrap();
        }
        let s = ProfileStore::open(&path).unwrap();
        assert!(s.open_report().existed);
        assert_eq!(s.open_report().truncated_bytes, 0);
        assert_eq!(s.identity(), Some(&identity()));
        assert_eq!(s.counts_frames(), 2);
        assert_eq!(s.windows().unwrap().len(), 1);
        assert_eq!(s.partials().aggregate().get(0x400000), 3.0);
        assert_eq!(
            s.partials().epoch_stats(),
            vec![EpochStats {
                epoch: 0,
                counts_frames: 2,
                ebs_samples: 14,
                lbr_samples: 7,
            }]
        );
    }

    use hbbp_program::MnemonicMix;

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = tmp("torn.hbbp");
        {
            let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
            s.append_counts(1, 1, 1, bbec(&[(0x400000, 1.0)])).unwrap();
            s.append_counts(2, 1, 1, bbec(&[(0x400010, 2.0)])).unwrap();
        }
        // Simulate a torn write: chop bytes off the tail.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let mut s = ProfileStore::open(&path).unwrap();
        assert!(s.open_report().truncated_bytes > 0);
        assert_eq!(s.counts_frames(), 1, "only the intact frame survives");
        // The log is consistent again: appends work and a further reopen
        // is clean.
        s.append_counts(2, 1, 1, bbec(&[(0x400010, 4.0)])).unwrap();
        drop(s);
        let s = ProfileStore::open(&path).unwrap();
        assert_eq!(s.open_report().truncated_bytes, 0);
        assert_eq!(s.counts_frames(), 2);
        assert_eq!(s.partials().aggregate().get(0x400010), 4.0);
    }

    #[test]
    fn aggregate_fold_is_arrival_order_independent() {
        let a = CountsRecord {
            source: 1,
            seq: 0,
            ebs_samples: 0,
            lbr_samples: 0,
            bbec: bbec(&[(0x400000, 0.1), (0x400010, 7.0)]),
        };
        let b = CountsRecord {
            source: 2,
            seq: 0,
            ebs_samples: 0,
            lbr_samples: 0,
            bbec: bbec(&[(0x400000, 0.2)]),
        };
        let snap = |counts: Vec<CountsRecord>| {
            let epochs = vec![0; counts.len()];
            Snapshot {
                identity: None,
                counts,
                windows: vec![],
                counts_epochs: epochs,
                window_epochs: vec![],
            }
        };
        let ab = snap(vec![a.clone(), b.clone()]).aggregate();
        let ba = snap(vec![b, a]).aggregate();
        assert_eq!(ab, ba);
        // Bitwise, not just approximately.
        assert_eq!(ab.get(0x400000).to_bits(), ba.get(0x400000).to_bits());
    }

    #[test]
    fn merge_is_lossless_and_identity_checked() {
        let pa = tmp("merge-a.hbbp");
        let pb = tmp("merge-b.hbbp");
        let mut a = ProfileStore::open_with_identity(&pa, identity()).unwrap();
        let mut b = ProfileStore::open_with_identity(&pb, identity()).unwrap();
        a.append_counts(1, 1, 0, bbec(&[(0x400000, 1.0)])).unwrap();
        b.append_counts(2, 2, 0, bbec(&[(0x400000, 2.0)])).unwrap();
        b.append_counts(2, 3, 0, bbec(&[(0x400020, 8.0)])).unwrap();
        a.merge_from(&b.snapshot()).unwrap();
        assert_eq!(a.counts_frames(), 3);
        assert_eq!(a.partials().aggregate().get(0x400000), 3.0);
        assert_eq!(a.sources(), vec![1, 2]);

        let mut other = identity();
        other.program = "q".into();
        let pc = tmp("merge-c.hbbp");
        let c = ProfileStore::open_with_identity(&pc, other).unwrap();
        assert!(matches!(
            a.merge_from(&c.snapshot()),
            Err(StoreError::IdentityMismatch)
        ));
    }

    #[test]
    fn compact_preserves_aggregate_bitwise_and_shrinks() {
        let path = tmp("compact.hbbp");
        let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
        for i in 0..20u32 {
            s.append_counts(
                i % 3,
                1,
                1,
                bbec(&[(0x400000 + u64::from(i) * 16, 1.0 / f64::from(i + 3))]),
            )
            .unwrap();
        }
        let before = s.partials().aggregate();
        let bytes_before = s.file_bytes();
        s.compact().unwrap();
        assert_eq!(s.counts_frames(), 1);
        assert_eq!(s.snapshot().counts[0].source, COMPACTED_SOURCE);
        assert!(s.file_bytes() < bytes_before);
        let after = s.partials().aggregate();
        for (addr, count) in before.iter() {
            assert_eq!(after.get(addr).to_bits(), count.to_bits(), "addr {addr:#x}");
        }
        // Reopen sees the compacted log; appends still work.
        drop(s);
        let mut s = ProfileStore::open(&path).unwrap();
        assert_eq!(s.counts_frames(), 1);
        s.append_counts(5, 1, 1, bbec(&[(0x400000, 1.0)])).unwrap();
        assert_eq!(s.counts_frames(), 2);
    }

    #[test]
    fn deferred_appends_group_commit_in_one_write() {
        let path = tmp("deferred.hbbp");
        let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
        let base = s.file_bytes();
        let seq0 = s
            .append_counts_deferred(1, 1, 1, bbec(&[(0x400000, 1.0)]))
            .unwrap();
        s.append_window_deferred(WindowRecord {
            source: 1,
            index: 0,
            start_cycles: 0,
            end_cycles: 10,
            ebs_samples: 1,
            lbr_samples: 1,
            mix: MnemonicMix::new(),
        })
        .unwrap();
        let seq1 = s
            .append_counts_deferred(1, 2, 2, bbec(&[(0x400010, 2.0)]))
            .unwrap();
        assert_eq!((seq0, seq1), (0, 1));
        // The counts see the frames immediately; the file only after
        // commit, as one write.
        assert_eq!(s.counts_frames(), 2);
        assert_eq!(s.file_bytes(), base);
        assert!(s.pending_bytes() > 0);
        s.commit().unwrap();
        assert_eq!(s.pending_bytes(), 0);
        assert!(s.file_bytes() > base);
        drop(s);
        let s = ProfileStore::open(&path).unwrap();
        assert_eq!(s.open_report().truncated_bytes, 0);
        assert_eq!(s.counts_frames(), 2);
        assert_eq!(s.windows().unwrap().len(), 1);
        assert_eq!(s.partials().aggregate().get(0x400000), 1.0);
    }

    #[test]
    fn uncommitted_deferred_frames_never_reach_the_file() {
        let path = tmp("deferred-drop.hbbp");
        let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
        s.append_counts(1, 1, 1, bbec(&[(0x400000, 1.0)])).unwrap();
        s.append_counts_deferred(2, 1, 1, bbec(&[(0x400010, 9.0)]))
            .unwrap();
        drop(s); // no commit: the deferred frame is lost, the log stays clean
        let s = ProfileStore::open(&path).unwrap();
        assert_eq!(s.open_report().truncated_bytes, 0);
        assert_eq!(s.counts_frames(), 1);
    }

    #[test]
    fn compact_absorbs_pending_deferred_frames_exactly_once() {
        let path = tmp("deferred-compact.hbbp");
        let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
        s.append_counts(1, 1, 1, bbec(&[(0x400000, 1.0)])).unwrap();
        s.append_counts_deferred(2, 1, 1, bbec(&[(0x400010, 2.0)]))
            .unwrap();
        s.compact().unwrap();
        assert_eq!(s.pending_bytes(), 0);
        assert_eq!(s.partials().aggregate().get(0x400010), 2.0);
        drop(s);
        let s = ProfileStore::open(&path).unwrap();
        assert_eq!(s.open_report().truncated_bytes, 0);
        assert_eq!(s.counts_frames(), 1, "one compacted frame");
        assert_eq!(s.partials().aggregate().get(0x400000), 1.0);
        assert_eq!(s.partials().aggregate().get(0x400010), 2.0);
    }

    /// A window frame with a valid checksum but a payload that does not
    /// decode: a bad mnemonic code, a mix shorter than its count, trailing
    /// bytes, a short header. Replay only counts windows, yet it must
    /// truncate exactly where decoding the frame would, with the same
    /// report.
    #[test]
    fn malformed_window_payloads_truncate_where_decoding_would() {
        let head = [7u8; 40];
        let entry = |opcode: u8| {
            let mut e = vec![opcode];
            e.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
            e
        };
        let payload = |n: u32, entries: &[Vec<u8>], tail: &[u8]| {
            let mut p = head.to_vec();
            p.extend_from_slice(&n.to_le_bytes());
            for e in entries {
                p.extend_from_slice(e);
            }
            p.extend_from_slice(tail);
            p
        };
        let frame = |payload: &[u8]| {
            let mut f = vec![T_WINDOW];
            f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            let crc = crate::frame::crc32_parts(&[&f[..5], payload]);
            f.extend_from_slice(&crc.to_le_bytes());
            f.extend_from_slice(payload);
            f
        };
        // Opcode 0xFFFF as a varint: no such mnemonic.
        let bad_code = {
            let mut e = vec![0xFF, 0xFF, 0x03];
            e.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
            e
        };
        let cases = [
            ("valid", payload(2, &[entry(1), entry(2)], &[]), true),
            ("bad mnemonic code", payload(1, &[bad_code], &[]), false),
            ("short mix", payload(2, &[entry(1)], &[]), false),
            ("trailing bytes", payload(1, &[entry(1)], &[0]), false),
            ("short header", head[..39].to_vec(), false),
        ];
        for (name, payload, valid) in cases {
            let path = tmp(&format!("window-{}.hbbp", name.replace(' ', "-")));
            let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
            s.append_counts(1, 1, 1, bbec(&[(0x400000, 1.0)])).unwrap();
            let clean = s.file_bytes();
            drop(s);
            let raw = frame(&payload);
            let decodes = matches!(read_frame(&raw), FrameOutcome::Frame { .. });
            assert_eq!(decodes, valid, "{name}: decode verdict");
            assert_eq!(window_frame_holds(&raw), valid, "{name}: check verdict");
            // The frame, then a valid window after it.
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.extend_from_slice(&raw);
            bytes.extend_from_slice(&frame(&payload_of_valid_window()));
            std::fs::write(&path, &bytes).unwrap();
            let s = ProfileStore::open(&path).unwrap();
            let tail = (bytes.len() as u64) - clean;
            let want = if valid {
                OpenReport {
                    frames: 4,
                    truncated_bytes: 0,
                    existed: true,
                }
            } else {
                OpenReport {
                    frames: 2,
                    truncated_bytes: tail,
                    existed: true,
                }
            };
            assert_eq!(s.open_report(), &want, "{name}");
            assert_eq!(s.window_frames(), if valid { 2 } else { 0 }, "{name}");
            assert_eq!(s.file_bytes(), bytes.len() as u64 - want.truncated_bytes);
        }
    }

    /// The payload of an ordinary window frame.
    fn payload_of_valid_window() -> Vec<u8> {
        let mut mix = MnemonicMix::new();
        mix.add(hbbp_isa::Mnemonic::Add, 3.0);
        let frame = encode_frame(&Frame::Window(WindowRecord {
            source: 2,
            index: 0,
            start_cycles: 0,
            end_cycles: 10,
            ebs_samples: 1,
            lbr_samples: 1,
            mix,
        }));
        frame[FRAME_OVERHEAD..].to_vec()
    }

    #[test]
    fn foreign_files_are_rejected_not_clobbered() {
        let path = tmp("foreign.hbbp");
        std::fs::write(&path, b"definitely not a store file").unwrap();
        assert!(matches!(
            ProfileStore::open(&path),
            Err(StoreError::NotAStore)
        ));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"definitely not a store file"
        );
    }

    #[test]
    fn appends_require_identity() {
        let path = tmp("noident.hbbp");
        let mut s = ProfileStore::open(&path).unwrap();
        assert!(matches!(
            s.append_counts(1, 0, 0, Bbec::new()),
            Err(StoreError::MissingIdentity)
        ));
    }

    #[test]
    fn reserved_source_is_rejected_on_append() {
        // Bug regression: a client picking source id u32::MAX used to
        // merge silently into compacted fold records.
        let path = tmp("reserved.hbbp");
        let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
        for append in [
            s.append_counts(COMPACTED_SOURCE, 1, 1, bbec(&[(0x400000, 1.0)])),
            s.append_counts_deferred(COMPACTED_SOURCE, 1, 1, bbec(&[(0x400000, 1.0)])),
        ] {
            let err = append.unwrap_err();
            assert!(matches!(err, StoreError::ReservedSource));
            assert_eq!(
                err.to_string(),
                "source id 4294967295 is reserved for compacted records"
            );
        }
        assert_eq!(s.counts_frames(), 0);
        assert_eq!(s.pending_bytes(), 0);
    }

    #[test]
    fn seq_overflow_in_replay_is_a_corrupt_store_error() {
        // Bug regression: recovery computed `rec.seq + 1` unchecked — a
        // checksum-valid frame with seq u32::MAX panicked the open in
        // debug builds and silently reused sequence numbers in release.
        let path = tmp("seq-overflow.hbbp");
        {
            let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
            s.append_counts(1, 1, 1, bbec(&[(0x400000, 1.0)])).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let poisoned = encode_frame(&Frame::Counts(CountsRecord {
            source: 9,
            seq: u32::MAX,
            ebs_samples: 1,
            lbr_samples: 1,
            bbec: bbec(&[(0x400000, 1.0)]),
        }));
        bytes.extend_from_slice(&poisoned);
        std::fs::write(&path, &bytes).unwrap();
        let err = ProfileStore::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::SequenceOverflow(9)));
        assert_eq!(
            err.to_string(),
            "corrupt store: sequence overflow for source 9"
        );
    }

    #[test]
    fn compact_preserves_per_source_sequencing() {
        // Bug regression: compact() used to reset `next_seq` to
        // {COMPACTED_SOURCE: 1}, so a source re-appending afterwards
        // restarted at seq 0 and violated per-source ordering under a
        // later merge_from.
        let path = tmp("seq-preserved.hbbp");
        let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
        s.append_counts(1, 1, 1, bbec(&[(0x400000, 1.0)])).unwrap();
        s.append_counts(1, 1, 1, bbec(&[(0x400010, 2.0)])).unwrap();
        s.compact().unwrap();
        let seq = s.append_counts(1, 1, 1, bbec(&[(0x400020, 3.0)])).unwrap();
        assert_eq!(seq, 2, "source 1 continues its sequence after compact");
    }

    #[test]
    fn epochs_stamp_appends_and_survive_reopen() {
        let path = tmp("epochs.hbbp");
        {
            let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
            assert_eq!(s.current_epoch(), 0);
            s.append_counts(1, 1, 0, bbec(&[(0x400000, 1.0)])).unwrap();
            assert_eq!(s.advance_epoch().unwrap(), 1);
            s.append_counts(1, 2, 0, bbec(&[(0x400000, 2.0)])).unwrap();
            s.append_counts(2, 4, 0, bbec(&[(0x400010, 8.0)])).unwrap();
            let snap = s.snapshot();
            assert_eq!(snap.counts_epochs, vec![0, 1, 1]);
            assert_eq!(snap.epochs(), vec![0, 1]);
        }
        let s = ProfileStore::open(&path).unwrap();
        assert_eq!(s.open_report().truncated_bytes, 0);
        assert_eq!(s.current_epoch(), 1);
        let snap = s.snapshot();
        assert_eq!(snap.counts_epochs, vec![0, 1, 1]);
        assert_eq!(snap.epoch_aggregate(0).get(0x400000), 1.0);
        assert_eq!(snap.epoch_aggregate(1).get(0x400000), 2.0);
        let stats = snap.epoch_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!((stats[0].epoch, stats[0].counts_frames), (0, 1));
        assert_eq!((stats[1].epoch, stats[1].counts_frames), (1, 2));
        assert_eq!(stats[1].ebs_samples, 6);
    }

    #[test]
    fn advance_without_appends_leaves_no_trace() {
        let path = tmp("epoch-lazy.hbbp");
        {
            let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
            s.advance_epoch().unwrap();
            s.advance_epoch().unwrap();
            assert_eq!(s.current_epoch(), 2);
        }
        let s = ProfileStore::open(&path).unwrap();
        assert_eq!(s.current_epoch(), 0, "lazy markers: no frame, no epoch");
    }

    /// Sealing must not depend on the store holding frames: a daemon
    /// fans COMPACT out to every shard, and a shard that was idle during
    /// the epoch has to advance in lockstep with its siblings — otherwise
    /// its next append lands in the epoch the others just sealed.
    #[test]
    fn compact_seals_even_an_idle_store() {
        let path = tmp("idle-seal.hbbp");
        let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
        s.compact().unwrap();
        assert_eq!(s.current_epoch(), 1, "empty store still seals");
        s.append_counts(1, 1, 1, bbec(&[(0x400000, 1.0)])).unwrap();
        assert_eq!(s.snapshot().counts_epochs, vec![1]);
        drop(s);
        // The seal marker is eager, so the epoch survives reopen.
        let s = ProfileStore::open(&path).unwrap();
        assert_eq!(s.current_epoch(), 1);
        assert_eq!(s.snapshot().counts_epochs, vec![1]);
    }

    #[test]
    fn tiered_compact_preserves_per_epoch_aggregates_and_seals() {
        let path = tmp("tiered.hbbp");
        let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
        for i in 0..6u32 {
            s.append_counts(
                i % 2,
                1,
                1,
                bbec(&[(0x400000 + u64::from(i) * 16, 1.0 / f64::from(i + 3))]),
            )
            .unwrap();
        }
        s.advance_epoch().unwrap();
        for i in 6..10u32 {
            s.append_counts(
                i % 3,
                1,
                1,
                bbec(&[(0x400000 + u64::from(i) * 16, 1.0 / f64::from(i + 3))]),
            )
            .unwrap();
        }
        let snap_before = s.snapshot();
        let global_before = snap_before.aggregate();
        s.compact().unwrap();
        assert_eq!(s.counts_frames(), 2, "one compacted frame per epoch");
        assert_eq!(s.current_epoch(), 2, "compaction seals the tier");
        let snap_after = s.snapshot();
        assert_eq!(snap_after.epochs(), vec![0, 1]);
        for epoch in [0, 1] {
            let before = snap_before.epoch_aggregate(epoch);
            let after = snap_after.epoch_aggregate(epoch);
            for (addr, count) in before.iter() {
                assert_eq!(
                    after.get(addr).to_bits(),
                    count.to_bits(),
                    "epoch {epoch} addr {addr:#x}"
                );
            }
            assert_eq!(before.len(), after.len());
        }
        for (addr, count) in global_before.iter() {
            assert_eq!(snap_after.aggregate().get(addr).to_bits(), count.to_bits());
        }
        // Reopen: the tiers, the seal and the aggregates all survive.
        drop(s);
        let mut s = ProfileStore::open(&path).unwrap();
        assert_eq!(s.open_report().truncated_bytes, 0);
        assert_eq!(s.current_epoch(), 2);
        let reopened = s.snapshot();
        assert_eq!(reopened.epochs(), vec![0, 1]);
        for (addr, count) in global_before.iter() {
            assert_eq!(reopened.aggregate().get(addr).to_bits(), count.to_bits());
        }
        // A second compact re-folds each single-record epoch onto itself.
        s.append_counts(7, 1, 1, bbec(&[(0x400000, 0.25)])).unwrap();
        assert_eq!(s.snapshot().counts_epochs.last(), Some(&2));
        s.compact().unwrap();
        assert_eq!(s.counts_frames(), 3);
        assert_eq!(s.snapshot().epochs(), vec![0, 1, 2]);
        for epoch in [0, 1] {
            let before = snap_before.epoch_aggregate(epoch);
            let after = s.snapshot().epoch_aggregate(epoch);
            for (addr, count) in before.iter() {
                assert_eq!(after.get(addr).to_bits(), count.to_bits());
            }
        }
    }

    #[test]
    fn windows_keep_their_epoch_through_compact() {
        let path = tmp("window-epochs.hbbp");
        let window = |source: u32, index: u32| WindowRecord {
            source,
            index,
            start_cycles: u64::from(index) * 100,
            end_cycles: u64::from(index + 1) * 100,
            ebs_samples: 1,
            lbr_samples: 1,
            mix: MnemonicMix::new(),
        };
        let mut s = ProfileStore::open_with_identity(&path, identity()).unwrap();
        s.append_counts(1, 1, 1, bbec(&[(0x400000, 1.0)])).unwrap();
        s.append_window(window(1, 0)).unwrap();
        s.advance_epoch().unwrap();
        s.append_window(window(1, 1)).unwrap();
        s.append_counts(1, 1, 1, bbec(&[(0x400010, 2.0)])).unwrap();
        s.compact().unwrap();
        drop(s);
        let s = ProfileStore::open(&path).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.windows.len(), 2);
        assert_eq!(snap.window_epochs, vec![0, 1]);
        assert_eq!(
            (snap.windows[0].index, snap.windows[1].index),
            (0, 1),
            "window order preserved within epochs"
        );
    }
}
