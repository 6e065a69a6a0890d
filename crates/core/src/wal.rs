//! Write-ahead log for the online stream.
//!
//! `save_model` checkpoints are crash-safe but coarse: a kill between
//! checkpoints silently loses every frame pushed since the last save. The WAL
//! closes that gap — [`OnlineAero::push`](crate::online::OnlineAero::push)
//! appends each incoming frame here *before* any state mutation or scoring,
//! so a resumed process can reconstruct the exact pre-crash state by loading
//! the checkpoint and replaying the log. PR 2's determinism contract is what
//! makes the replay *exact*: pushing the same frames in the same order
//! reproduces every score, verdict, and health counter to the bit (gated by
//! `tests/crash_recovery.rs`).
//!
//! # On-disk format
//!
//! A WAL directory holds numbered segment files `wal-000000.seg`,
//! `wal-000001.seg`, … Each segment starts with a 32-byte header
//! (`b"AEROWAL2"` magic + `u64` LE segment sequence number + `u64` LE catalog
//! hash + `u32` LE shard id + `u32` LE reserved) carrying a [`WalIdentity`],
//! followed by length-prefixed, checksummed records. A single detector logs
//! under the default identity (shard 0, catalog hash 0); fleet shards log
//! under their own. A resume pointed at the wrong shard's directory — or at a
//! log recorded under a different catalog partition — fails with a typed
//! [`DetectorError::WalMismatch`] instead of silently replaying another
//! shard's frames:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes] [checksum: u64 LE]   // FNV-1a(payload)
//! payload = frame_index: u64 LE | timestamp_bits: u64 LE
//!         | n: u32 LE | n × value_bits: u32 LE | meta: u32 LE
//! ```
//!
//! Every payload is exactly `24 + 4n` bytes; anything else is cut.
//! [`OnlineAero::push`](crate::online::OnlineAero::push) writes `meta` = 0;
//! the overload governor ([`crate::overload`]) writes each offered frame
//! with `meta` = the number of service polls performed since the previous
//! offer, which is exactly the information a resume needs to replay the same
//! offer/poll interleaving — and therefore the same admission, shed, and
//! ladder decisions — that the crashed process made.
//!
//! Directories written in the retired unidentified format (16-byte headers,
//! records without the meta word) are refused with a typed error and left
//! untouched on disk.
//!
//! The checksum reuses the FNV-1a scheme of the checkpoint format.
//! Segments rotate every [`WalConfig::frames_per_segment`] records; old
//! segments are never rewritten. Rotation also fsyncs the **directory**
//! (policy permitting) so the new segment's directory entry is durable, and
//! [`WalWriter::resume`] fsyncs the directory after deleting post-cut
//! segments so a crash immediately after recovery cannot resurrect them.
//!
//! # Recovery invariants
//!
//! A crash can leave a torn tail (partial record), a bit-flipped record, or a
//! half-created segment. [`replay`] scans segments in sequence order and
//! accepts the **longest valid prefix**: it stops at the first record that is
//! short, fails its checksum, or breaks the monotonically-contiguous
//! `frame_index` chain, and ignores any later segment. [`WalWriter::resume`]
//! additionally truncates the cut segment to its last valid record and
//! deletes the ignored segments, so the post-recovery log is exactly the
//! accepted prefix and appending continues from there.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy`] trades durability for per-frame latency: `Never` leaves
//! flushing to the OS (a process kill — the chaos-harness scenario — loses
//! nothing because the file is already written; only a whole-machine crash
//! can), `EverySegment` fsyncs at rotation, `EveryRecord` fsyncs each append.
//! The `wal_overhead` rows of `BENCH_parallel.json` record the measured cost.

// Streaming modules run unattended for whole nights; a stray `unwrap` is a
// latent crash, so the lint gate forbids them outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::detector::{DetectorError, DetectorResult};
use crate::persist::Fnv64;

/// Magic bytes opening every segment file.
pub const WAL_MAGIC: [u8; 8] = *b"AEROWAL2";

/// Segment header: magic + u64 sequence + u64 catalog hash + u32 shard id +
/// u32 reserved.
const SEGMENT_HEADER_LEN: u64 = 32;

/// Payload bytes besides the values: frame u64 + timestamp u64 + count u32
/// + meta u32.
const PAYLOAD_FIXED_BYTES: usize = 24;

/// Upper bound on one record's payload (guards against reading a corrupted
/// length prefix as a multi-gigabyte allocation).
const MAX_PAYLOAD_BYTES: u32 = 1 << 24;

/// When to fsync WAL appends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync; the OS flushes on its own schedule. Survives process
    /// kills (the chaos-harness crash model) but not power loss.
    Never,
    /// Fsync when a segment fills and rotates (and on graceful close).
    #[default]
    EverySegment,
    /// Fsync after every appended record. Maximum durability, maximum cost.
    EveryRecord,
}

impl FsyncPolicy {
    /// Parses the CLI spelling (`never` | `segment` | `record`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "never" => Some(Self::Never),
            "segment" => Some(Self::EverySegment),
            "record" => Some(Self::EveryRecord),
            _ => None,
        }
    }
}

/// Who a WAL belongs to: one shard of one catalog partition.
///
/// Stamped into every segment header. On replay and resume the stored
/// identity must match the expected one word-for-word. The default (shard 0,
/// catalog hash 0) names a single detector outside any fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct WalIdentity {
    /// Shard index within the fleet (coordinator logs use `u32::MAX`).
    pub shard_id: u32,
    /// Hash of the catalog partition the shard serves (star ids + membership).
    pub catalog_hash: u64,
}

impl fmt::Display for WalIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} / catalog {:#018x}",
            self.shard_id, self.catalog_hash
        )
    }
}

/// Write-ahead-log configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Records per segment before rotating to a new file.
    pub frames_per_segment: usize,
    /// Durability policy.
    pub fsync: FsyncPolicy,
    /// Written into every segment header; recovery rejects segments whose
    /// stored identity differs.
    pub identity: WalIdentity,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            frames_per_segment: 512,
            fsync: FsyncPolicy::default(),
            identity: WalIdentity::default(),
        }
    }
}

/// One logged frame, exactly as it was handed to `push`.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFrame {
    /// 0-based position in the push stream.
    pub frame: u64,
    /// The frame's timestamp (raw bits are preserved, NaN included).
    pub timestamp: f64,
    /// The frame's values (raw bits preserved).
    pub values: Vec<f32>,
    /// Caller metadata. The overload governor stores the number of service
    /// polls performed since the previous offer, so resume can replay the
    /// exact offer/poll interleaving. Plain [`WalWriter::append`] records
    /// carry 0.
    pub meta: u32,
}

/// What [`replay`] / [`WalWriter::resume`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Frames in the accepted prefix.
    pub frames: usize,
    /// Segment files scanned (accepted ones, including the cut segment).
    pub segments: usize,
    /// Whether a torn/corrupt record cut the log short.
    pub truncated: bool,
    /// Bytes discarded from the cut segment's tail.
    pub dropped_bytes: u64,
    /// Later segments ignored (and deleted on resume) past the cut.
    pub dropped_segments: usize,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> DetectorError {
    DetectorError::Io(format!("{what} {}: {e}", path.display()))
}

/// Classifies a *write-path* failure: a full device (ENOSPC, or the short
/// write `write_all` reports as `WriteZero`) becomes the typed
/// [`DetectorError::WalFull`] so the governor can degrade instead of
/// treating it like a transient I/O fault; everything else stays
/// [`DetectorError::Io`].
fn write_err(what: &str, path: &Path, e: std::io::Error) -> DetectorError {
    let full = e.raw_os_error() == Some(28) // POSIX ENOSPC
        || matches!(e.kind(), std::io::ErrorKind::WriteZero);
    if full {
        DetectorError::WalFull(format!("{what} {}: {e}", path.display()))
    } else {
        io_err(what, path, e)
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.seg"))
}

/// Fsyncs the WAL directory itself, making file creations and deletions
/// durable. File-content fsync does not cover directory entries: without
/// this, a crash right after rotation can lose the new segment's entry, and
/// a crash right after [`WalWriter::resume`] can resurrect a deleted
/// post-cut segment. On platforms where directories cannot be opened for
/// syncing, the error is surfaced to the caller.
fn fsync_dir(dir: &Path) -> DetectorResult<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsync dir", dir, e))
}

fn record_checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(payload);
    h.finish()
}

fn encode_record(frame: u64, timestamp: f64, values: &[f32], meta: u32) -> Vec<u8> {
    let payload_len = PAYLOAD_FIXED_BYTES + 4 * values.len();
    let mut buf = Vec::with_capacity(4 + payload_len + 8);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&frame.to_le_bytes());
    buf.extend_from_slice(&timestamp.to_bits().to_le_bytes());
    buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for &v in values {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    buf.extend_from_slice(&meta.to_le_bytes());
    let checksum = record_checksum(&buf[4..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Little-endian `u32` at `at`, if in bounds.
fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at.checked_add(4)?)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
}

/// Little-endian `u64` at `at`, if in bounds.
fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at.checked_add(8)?)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
}

/// Decodes one checksum-verified payload, or `None` if it is structurally
/// invalid or breaks the contiguous frame chain. The value count `n` is the
/// authoritative layout descriptor: a payload that is not exactly `24 + 4n`
/// bytes is corrupt.
fn parse_payload(payload: &[u8], expected_frame: u64) -> Option<WalFrame> {
    let frame = read_u64(payload, 0)?;
    let timestamp = f64::from_bits(read_u64(payload, 8)?);
    let n = read_u32(payload, 16)? as usize;
    let values_end = 20usize.checked_add(n.checked_mul(4)?)?;
    if payload.len() != values_end.checked_add(4)? {
        return None;
    }
    let meta = read_u32(payload, values_end)?;
    if frame != expected_frame {
        return None;
    }
    let values = payload
        .get(20..values_end)?
        .chunks_exact(4)
        .map(|c| c.try_into().ok().map(u32::from_le_bytes).map(f32::from_bits))
        .collect::<Option<Vec<f32>>>()?;
    Some(WalFrame {
        frame,
        timestamp,
        values,
        meta,
    })
}

/// Sorted `(seq, path)` list of the segment files present in `dir`.
fn list_segments(dir: &Path) -> DetectorResult<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        segments.push((seq, entry.path()));
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// Result of scanning one segment's bytes.
struct SegmentScan {
    frames: Vec<WalFrame>,
    /// Byte offset just past the last valid record.
    valid_len: u64,
    /// Whether anything after `valid_len` was rejected.
    cut: bool,
}

/// Parses a segment header's stored identity, or `None` when the header is
/// structurally invalid (short, bad magic, wrong sequence).
fn parse_segment_header(bytes: &[u8], expected_seq: u64) -> Option<WalIdentity> {
    if bytes.len() < SEGMENT_HEADER_LEN as usize
        || bytes.get(..8) != Some(&WAL_MAGIC[..])
        || read_u64(bytes, 8) != Some(expected_seq)
    {
        return None;
    }
    Some(WalIdentity {
        catalog_hash: read_u64(bytes, 16)?,
        shard_id: read_u32(bytes, 24)?,
    })
}

/// Why a segment written in the retired unidentified format (16-byte
/// `AEROWAL1` header, records without the meta word) cannot be read, or
/// `None` for any other segment. Such a log is refused rather than cut:
/// read as a torn header, it would make [`WalWriter::resume`] recreate
/// segment 0 and delete every later segment.
fn legacy_format(bytes: &[u8]) -> Option<&'static str> {
    bytes.starts_with(b"AEROWAL1").then_some(
        "legacy AEROWAL1 segment (no identity header); this build reads only \
         AEROWAL2 logs: re-run the night into an empty WAL directory, or finish \
         it with the release that wrote it",
    )
}

/// Accepts the longest valid record prefix of one segment. `next_frame` is
/// the frame index the first record must carry to keep the chain contiguous.
/// A segment whose header carries a different identity than `expected`, or
/// that is in the legacy format, is a hard [`DetectorError::WalMismatch`]
/// rather than a silent cut: the log is not *this detector's* log, and
/// treating it as a torn tail would misreplay (or delete) its frames.
fn scan_segment(
    bytes: &[u8],
    expected_seq: u64,
    mut next_frame: u64,
    expected: WalIdentity,
) -> DetectorResult<SegmentScan> {
    let mut frames = Vec::new();
    if let Some(why) = legacy_format(bytes) {
        return Err(DetectorError::WalMismatch(why.into()));
    }
    let Some(stored) = parse_segment_header(bytes, expected_seq) else {
        return Ok(SegmentScan {
            frames,
            valid_len: 0,
            cut: true,
        });
    };
    if stored != expected {
        return Err(DetectorError::WalMismatch(format!(
            "segment belongs to {stored}; expected {expected}"
        )));
    }
    let mut pos = SEGMENT_HEADER_LEN as usize;
    while pos < bytes.len() {
        let Ok(payload) = read_record(&bytes[pos..]) else {
            return Ok(cut_at(frames, pos));
        };
        let Some(frame) = parse_payload(payload, next_frame) else {
            return Ok(cut_at(frames, pos));
        };
        frames.push(frame);
        next_frame += 1;
        pos += 4 + payload.len() + 8;
    }
    Ok(SegmentScan {
        frames,
        valid_len: pos as u64,
        cut: false,
    })
}

/// The checksum-verified payload of the record framed at the start of
/// `rest`, or why it cannot be read: a torn tail (bytes missing, or a length
/// field out of range) or a checksum mismatch.
fn read_record(rest: &[u8]) -> Result<&[u8], (WalFindingKind, String)> {
    let torn = |detail| Err((WalFindingKind::TornTail, detail));
    let Some(len) = read_u32(rest, 0) else {
        return torn(format!(
            "{} trailing byte(s) after the last record",
            rest.len()
        ));
    };
    if !(PAYLOAD_FIXED_BYTES as u32..=MAX_PAYLOAD_BYTES).contains(&len) {
        return torn(format!("record length field {len} out of range"));
    }
    let len = len as usize;
    let (Some(payload), Some(stored)) = (rest.get(4..4 + len), read_u64(rest, 4 + len)) else {
        return torn(format!(
            "record of {len} payload byte(s) cut off at end of file"
        ));
    };
    if record_checksum(payload) != stored {
        return Err((
            WalFindingKind::ChecksumMismatch,
            format!("stored checksum {stored:#018x} does not match the payload"),
        ));
    }
    Ok(payload)
}

fn cut_at(frames: Vec<WalFrame>, pos: usize) -> SegmentScan {
    SegmentScan {
        frames,
        valid_len: pos as u64,
        cut: true,
    }
}

/// Where the accepted prefix ends, for [`WalWriter::resume`] to truncate.
struct ScanOutcome {
    frames: Vec<WalFrame>,
    recovery: WalRecovery,
    /// `(seq, path, valid_len)` of the last accepted segment, if any.
    tail: Option<(u64, PathBuf, u64)>,
    /// Segments past the cut (deleted on resume).
    ignored: Vec<PathBuf>,
}

fn scan_dir(dir: &Path, expected: WalIdentity) -> DetectorResult<ScanOutcome> {
    let segments = list_segments(dir)?;
    let mut frames: Vec<WalFrame> = Vec::new();
    let mut recovery = WalRecovery::default();
    let mut tail: Option<(u64, PathBuf, u64)> = None;
    let mut ignored: Vec<PathBuf> = Vec::new();
    let mut cut = false;
    for (i, (seq, path)) in segments.iter().enumerate() {
        // A gap in the sequence numbering (or a directory whose first
        // segment is not 0) means the prefix ends at the gap.
        if cut || *seq != i as u64 {
            recovery.truncated = true;
            recovery.dropped_segments += 1;
            ignored.push(path.clone());
            cut = true;
            continue;
        }
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err("read", path, e))?;
        let scan = scan_segment(&bytes, *seq, frames.len() as u64, expected).map_err(|e| {
            match e {
                DetectorError::WalMismatch(msg) => {
                    DetectorError::WalMismatch(format!("{}: {msg}", path.display()))
                }
                other => other,
            }
        })?;
        recovery.segments += 1;
        frames.extend(scan.frames);
        if scan.cut {
            recovery.truncated = true;
            recovery.dropped_bytes = bytes.len() as u64 - scan.valid_len;
            cut = true;
        }
        tail = Some((*seq, path.clone(), scan.valid_len));
    }
    recovery.frames = frames.len();
    Ok(ScanOutcome {
        frames,
        recovery,
        tail,
        ignored,
    })
}

/// Reads the longest valid frame prefix from a WAL directory without
/// modifying anything on disk, verifying every segment header carries
/// exactly `identity` ([`DetectorError::WalMismatch`] otherwise).
pub fn replay(dir: &Path, identity: WalIdentity) -> DetectorResult<(Vec<WalFrame>, WalRecovery)> {
    let outcome = scan_dir(dir, identity)?;
    Ok((outcome.frames, outcome.recovery))
}

/// What kind of damage an offline [`verify`] scrub found in a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFindingKind {
    /// The segment's header is missing, has a bad magic, or names the
    /// wrong sequence number.
    BadHeader,
    /// A hole in the `wal-NNNNNN.seg` numbering: the prefix replay stops
    /// at the gap even if later segments are intact.
    SequenceGap,
    /// A record extends past the end of the file (the classic torn tail
    /// of a crashed append), or its length field is structurally invalid.
    TornTail,
    /// A fully-present record whose FNV-1a checksum does not match its
    /// payload: bit rot, not a crash.
    ChecksumMismatch,
    /// A record decodes cleanly but carries the wrong frame index — the
    /// contiguous frame chain is broken.
    FrameChainBreak,
    /// The segment's identity header disagrees with the expected identity
    /// or with the other segments in the directory.
    IdentityMismatch,
}

impl WalFindingKind {
    /// Stable lowercase label for JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            Self::BadHeader => "bad_header",
            Self::SequenceGap => "sequence_gap",
            Self::TornTail => "torn_tail",
            Self::ChecksumMismatch => "checksum_mismatch",
            Self::FrameChainBreak => "frame_chain_break",
            Self::IdentityMismatch => "identity_mismatch",
        }
    }
}

/// One piece of damage found by [`verify`].
#[derive(Debug, Clone)]
pub struct WalFinding {
    /// Sequence number of the segment the finding is in.
    pub segment: u64,
    /// Path of that segment file.
    pub path: PathBuf,
    /// Byte offset of the damage within the segment.
    pub offset: u64,
    /// Damage category.
    pub kind: WalFindingKind,
    /// Human-readable detail.
    pub detail: String,
}

/// Outcome of an offline [`verify`] scrub over one WAL directory.
#[derive(Debug, Clone, Default)]
pub struct WalVerifyReport {
    /// Segment files examined.
    pub segments: usize,
    /// Records that decoded cleanly (checksum + frame chain intact).
    pub frames: usize,
    /// Total bytes examined.
    pub bytes: u64,
    /// The identity carried by the first segment with a valid header, if any.
    pub identity: Option<WalIdentity>,
    /// Everything wrong, in on-disk order.
    pub findings: Vec<WalFinding>,
}

impl WalVerifyReport {
    /// True when the scrub found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Offline integrity scrub of a WAL directory: walks **every** segment —
/// unlike [`replay`], it does not stop at the first cut — and reports each
/// checksum failure, torn tail, sequence gap, frame-chain break, and
/// identity mismatch it can attribute. Nothing on disk is modified. Errors
/// only on environmental failures (unreadable directory/file).
pub fn verify(dir: &Path, expected: Option<WalIdentity>) -> DetectorResult<WalVerifyReport> {
    let segments = list_segments(dir)?;
    let mut report = WalVerifyReport::default();
    let mut next_frame = 0u64;
    let mut expected_seq = 0u64;
    for (seq, path) in &segments {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err("read", path, e))?;
        report.segments += 1;
        report.bytes += bytes.len() as u64;
        if *seq != expected_seq {
            report.findings.push(WalFinding {
                segment: *seq,
                path: path.clone(),
                offset: 0,
                kind: WalFindingKind::SequenceGap,
                detail: format!("expected segment {expected_seq}, found {seq}"),
            });
        }
        expected_seq = seq + 1;
        let finding = |kind, detail: String| WalFinding {
            segment: *seq,
            path: path.clone(),
            offset: 0,
            kind,
            detail,
        };
        let Some(id) = parse_segment_header(&bytes, *seq) else {
            let detail = legacy_format(&bytes).unwrap_or("missing or malformed segment header");
            report
                .findings
                .push(finding(WalFindingKind::BadHeader, detail.into()));
            continue;
        };
        match report.identity {
            None => report.identity = Some(id),
            Some(first) if id != first => report.findings.push(finding(
                WalFindingKind::IdentityMismatch,
                format!("segment belongs to {id}; directory started as {first}"),
            )),
            Some(_) => {}
        }
        if let Some(exp) = expected.filter(|&exp| exp != id) {
            report.findings.push(finding(
                WalFindingKind::IdentityMismatch,
                format!("segment belongs to {id}; expected {exp}"),
            ));
        }
        verify_records(&bytes, *seq, path, &mut next_frame, &mut report);
    }
    Ok(report)
}

/// Scans one segment's record stream for [`verify`], attributing each
/// rejection. Stops at the first torn/corrupt record (the bytes after it
/// have no reliable framing) but keeps the directory walk going.
fn verify_records(
    bytes: &[u8],
    seq: u64,
    path: &Path,
    next_frame: &mut u64,
    report: &mut WalVerifyReport,
) {
    let mut pos = SEGMENT_HEADER_LEN as usize;
    let push = |report: &mut WalVerifyReport, offset: usize, kind, detail: String| {
        report.findings.push(WalFinding {
            segment: seq,
            path: path.to_path_buf(),
            offset: offset as u64,
            kind,
            detail,
        });
    };
    while pos < bytes.len() {
        let payload = match read_record(&bytes[pos..]) {
            Ok(payload) => payload,
            Err((kind, detail)) => {
                push(report, pos, kind, detail);
                return;
            }
        };
        // The checksum is good, so the payload bytes are authoritative:
        // decode against the frame index it *carries*, and report (then
        // resync on) any break in the chain.
        let carried = read_u64(payload, 0).unwrap_or(u64::MAX);
        if carried != *next_frame {
            push(
                report,
                pos,
                WalFindingKind::FrameChainBreak,
                format!("record carries frame {carried}, chain expected {}", *next_frame),
            );
            *next_frame = carried;
        }
        if parse_payload(payload, *next_frame).is_none() {
            push(report, pos, WalFindingKind::ChecksumMismatch, "checksummed payload is structurally invalid".into());
            return;
        }
        report.frames += 1;
        *next_frame += 1;
        pos += 4 + payload.len() + 8;
    }
}

/// Appends checksummed frame records to a segmented log.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    config: WalConfig,
    file: File,
    seq: u64,
    frames_in_segment: usize,
    next_frame: u64,
    /// Injectable write-error seam: `Some(n)` makes every append after the
    /// next `n` fail as if the device were full (see
    /// [`inject_wal_full_after`](Self::inject_wal_full_after)).
    fault_after: Option<u64>,
}

impl WalWriter {
    /// Starts a fresh log in `dir` (created if missing). Refuses to run if
    /// the directory already holds segments — silently appending a new
    /// stream after old frames would splice two unrelated nights together;
    /// use [`resume`](Self::resume) for continuation.
    pub fn create(dir: &Path, config: WalConfig) -> DetectorResult<Self> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
        if !list_segments(dir)?.is_empty() {
            return Err(DetectorError::Invalid(format!(
                "WAL directory {} already contains segments; use resume or point \
                 --wal at an empty directory",
                dir.display()
            )));
        }
        let file = Self::open_segment(dir, 0, config.identity)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            config,
            file,
            seq: 0,
            frames_in_segment: 0,
            next_frame: 0,
            fault_after: None,
        })
    }

    /// Recovers the longest valid prefix from `dir`, truncates the torn
    /// tail, deletes any segments past the cut, and reopens the log for
    /// appending. Returns the writer, the recovered frames (to replay into a
    /// fresh `OnlineAero`), and what was found. A directory under another
    /// identity, or in the retired unidentified format, fails with
    /// [`DetectorError::WalMismatch`] before anything on disk changes.
    pub fn resume(dir: &Path, config: WalConfig) -> DetectorResult<(Self, Vec<WalFrame>, WalRecovery)> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
        let outcome = scan_dir(dir, config.identity)?;
        for path in &outcome.ignored {
            std::fs::remove_file(path).map_err(|e| io_err("remove", path, e))?;
        }
        if !outcome.ignored.is_empty() {
            // Make the deletions durable regardless of the fsync policy:
            // resume runs once per process, and a resurrected post-cut
            // segment would splice already-rejected frames back into the
            // next recovery's prefix scan.
            fsync_dir(dir)?;
        }
        let writer = match outcome.tail {
            // Nothing usable at all (empty dir, or every segment ignored).
            None => Self::create(dir, config)?,
            // Tail segment whose own header was garbage: recreate it.
            Some((seq, _, valid_len)) if valid_len < SEGMENT_HEADER_LEN => Self {
                dir: dir.to_path_buf(),
                config,
                file: Self::open_segment(dir, seq, config.identity)?,
                seq,
                frames_in_segment: 0,
                next_frame: outcome.frames.len() as u64,
                fault_after: None,
            },
            Some((seq, path, valid_len)) => {
                // Append mode: after the truncation below, writes must land
                // at the new end of file, not at offset 0.
                let file = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err("open", &path, e))?;
                file.set_len(valid_len).map_err(|e| io_err("truncate", &path, e))?;
                if config.fsync != FsyncPolicy::Never {
                    file.sync_all().map_err(|e| io_err("fsync", &path, e))?;
                }
                // Count the tail segment's surviving frames so rotation
                // stays on schedule after resume.
                let earlier = seq as usize * config.frames_per_segment;
                let frames_in_segment = outcome.frames.len().saturating_sub(earlier);
                Self {
                    dir: dir.to_path_buf(),
                    config,
                    file,
                    seq,
                    frames_in_segment,
                    next_frame: outcome.frames.len() as u64,
                    fault_after: None,
                }
            }
        };
        Ok((writer, outcome.frames, outcome.recovery))
    }

    fn open_segment(dir: &Path, seq: u64, identity: WalIdentity) -> DetectorResult<File> {
        let path = segment_path(dir, seq);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create", &path, e))?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&seq.to_le_bytes());
        header.extend_from_slice(&identity.catalog_hash.to_le_bytes());
        header.extend_from_slice(&identity.shard_id.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        file.write_all(&header).map_err(|e| write_err("write", &path, e))?;
        Ok(file)
    }

    /// Appends one frame with meta word 0, rotating and fsyncing per
    /// policy. Returns the frame's 0-based index in the log.
    pub fn append(&mut self, timestamp: f64, values: &[f32]) -> DetectorResult<u64> {
        self.append_with_meta(timestamp, values, 0)
    }

    /// Write-error seam for tests and chaos harnesses: the next `appends`
    /// appends succeed, then every later one fails with
    /// [`DetectorError::WalFull`] — exactly the behaviour of a log device
    /// running out of space mid-night. No bytes are written by a faulted
    /// append, so the on-disk prefix stays valid.
    pub fn inject_wal_full_after(&mut self, appends: u64) {
        self.fault_after = Some(appends);
    }

    /// [`append`](Self::append) with a caller-supplied meta word (the
    /// overload governor's polls-since-last-offer count; see
    /// [`WalFrame::meta`]).
    pub fn append_with_meta(
        &mut self,
        timestamp: f64,
        values: &[f32],
        meta: u32,
    ) -> DetectorResult<u64> {
        if let Some(remaining) = self.fault_after.as_mut() {
            if *remaining == 0 {
                return Err(DetectorError::WalFull(format!(
                    "append {}: injected ENOSPC (no space left on device)",
                    segment_path(&self.dir, self.seq).display()
                )));
            }
            *remaining -= 1;
        }
        if self.frames_in_segment >= self.config.frames_per_segment.max(1) {
            if self.config.fsync != FsyncPolicy::Never {
                self.sync()?;
            }
            self.seq += 1;
            self.file = Self::open_segment(&self.dir, self.seq, self.config.identity)?;
            self.frames_in_segment = 0;
            if self.config.fsync != FsyncPolicy::Never {
                // The new segment's *directory entry* must be durable too,
                // or a crash here silently drops every record appended to a
                // file the next recovery cannot even see.
                fsync_dir(&self.dir)?;
            }
        }
        let frame = self.next_frame;
        let record = encode_record(frame, timestamp, values, meta);
        let path = segment_path(&self.dir, self.seq);
        self.file
            .write_all(&record)
            .map_err(|e| write_err("append", &path, e))?;
        if self.config.fsync == FsyncPolicy::EveryRecord {
            self.sync()?;
        }
        self.next_frame += 1;
        self.frames_in_segment += 1;
        Ok(frame)
    }

    /// Flushes the current segment to disk.
    pub fn sync(&mut self) -> DetectorResult<()> {
        let path = segment_path(&self.dir, self.seq);
        self.file.sync_all().map_err(|e| io_err("fsync", &path, e))
    }

    /// Index the next appended frame will get (= frames logged so far).
    pub fn next_frame(&self) -> u64 {
        self.next_frame
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aero_wal_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn frame(i: usize) -> (f64, Vec<f32>) {
        let ts = 1000.0 + i as f64 * 10.0;
        let values = vec![i as f32, -(i as f32) * 0.5, 1.0 / (i as f32 + 1.0)];
        (ts, values)
    }

    fn write_frames(dir: &Path, config: WalConfig, count: usize) -> WalWriter {
        let mut w = WalWriter::create(dir, config).unwrap();
        for i in 0..count {
            let (ts, values) = frame(i);
            assert_eq!(w.append(ts, &values).unwrap(), i as u64);
        }
        w
    }

    #[test]
    fn roundtrip_with_rotation_preserves_bits() {
        let dir = tmp_dir("roundtrip");
        let config = WalConfig {
            frames_per_segment: 4,
            fsync: FsyncPolicy::Never,
            identity: WalIdentity::default(),
        };
        let _w = write_frames(&dir, config, 11);
        let (frames, recovery) = replay(&dir, WalIdentity::default()).unwrap();
        assert_eq!(frames.len(), 11);
        assert_eq!(recovery.frames, 11);
        assert_eq!(recovery.segments, 3, "4 + 4 + 3 across three segments");
        assert!(!recovery.truncated);
        for (i, f) in frames.iter().enumerate() {
            let (ts, values) = frame(i);
            assert_eq!(f.frame, i as u64);
            assert_eq!(f.timestamp.to_bits(), ts.to_bits());
            assert_eq!(f.values, values);
        }
        // NaN timestamps and values survive bit-exactly (the degradation
        // layer, not the WAL, is what handles them).
        let mut w = WalWriter::resume(&dir, config).unwrap().0;
        w.append(f64::NAN, &[f32::NAN, f32::INFINITY]).unwrap();
        let (frames, _) = replay(&dir, WalIdentity::default()).unwrap();
        assert!(frames[11].timestamp.is_nan());
        assert!(frames[11].values[0].is_nan());
        assert_eq!(frames[11].values[1], f32::INFINITY);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_to_longest_valid_prefix() {
        let dir = tmp_dir("torn");
        let config = WalConfig {
            frames_per_segment: 100,
            fsync: FsyncPolicy::Never,
            identity: WalIdentity::default(),
        };
        let _w = write_frames(&dir, config, 6);
        // Simulate a kill mid-write: chop the last record in half.
        let path = segment_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 13).unwrap();
        drop(file);

        let (frames, recovery) = replay(&dir, WalIdentity::default()).unwrap();
        assert_eq!(frames.len(), 5, "torn 6th record dropped");
        assert!(recovery.truncated);
        assert!(recovery.dropped_bytes > 0);

        // Resume truncates the tail and appends cleanly after it.
        let (mut w, recovered, rec2) = WalWriter::resume(&dir, config).unwrap();
        assert_eq!(recovered.len(), 5);
        assert_eq!(rec2.frames, 5);
        assert_eq!(w.next_frame(), 5);
        let (ts, values) = frame(5);
        w.append(ts, &values).unwrap();
        drop(w);
        let (frames, recovery) = replay(&dir, WalIdentity::default()).unwrap();
        assert_eq!(frames.len(), 6);
        assert!(!recovery.truncated, "resume healed the log");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_cuts_prefix_and_drops_later_segments() {
        let dir = tmp_dir("bitflip");
        let config = WalConfig {
            frames_per_segment: 3,
            fsync: FsyncPolicy::Never,
            identity: WalIdentity::default(),
        };
        let _w = write_frames(&dir, config, 9);
        // Flip one payload byte in the middle of segment 1 (frames 3..6):
        // frames 0..4 survive, the rest of segment 1 and all of segment 2
        // are past the cut.
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = SEGMENT_HEADER_LEN as usize + {
            let (_, vals) = frame(3);
            let rec = encode_record(3, frame(3).0, &vals, 0).len();
            rec + 10
        };
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (frames, recovery) = replay(&dir, WalIdentity::default()).unwrap();
        assert_eq!(frames.len(), 4, "prefix = segment 0 plus one good record");
        assert!(recovery.truncated);
        assert_eq!(recovery.dropped_segments, 1, "segment 2 ignored");

        let (w, recovered, _) = WalWriter::resume(&dir, config).unwrap();
        assert_eq!(recovered.len(), 4);
        assert!(
            !segment_path(&dir, 2).exists(),
            "resume deletes segments past the cut"
        );
        drop(w);
        let (frames, recovery) = replay(&dir, WalIdentity::default()).unwrap();
        assert_eq!(frames.len(), 4);
        assert!(!recovery.truncated);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_nonempty_directory() {
        let dir = tmp_dir("nonempty");
        let _w = write_frames(&dir, WalConfig::default(), 2);
        match WalWriter::create(&dir, WalConfig::default()) {
            Err(DetectorError::Invalid(msg)) => assert!(msg.contains("resume"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_empty_directory_starts_fresh() {
        let dir = tmp_dir("fresh");
        let (w, frames, recovery) = WalWriter::resume(&dir, WalConfig::default()).unwrap();
        assert!(frames.is_empty());
        assert_eq!(recovery, WalRecovery::default());
        assert_eq!(w.next_frame(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_records_roundtrip_and_mix_with_plain_ones() {
        let dir = tmp_dir("meta");
        let config = WalConfig {
            frames_per_segment: 3,
            fsync: FsyncPolicy::Never,
            identity: WalIdentity::default(),
        };
        let mut w = WalWriter::create(&dir, config).unwrap();
        // Alternate governor-style meta records with plain ones across a
        // rotation boundary.
        for i in 0..7u64 {
            let (ts, values) = frame(i as usize);
            let got = if i % 2 == 0 {
                w.append_with_meta(ts, &values, i as u32 * 3).unwrap()
            } else {
                w.append(ts, &values).unwrap()
            };
            assert_eq!(got, i);
        }
        drop(w);
        let (frames, recovery) = replay(&dir, WalIdentity::default()).unwrap();
        assert_eq!(frames.len(), 7);
        assert!(!recovery.truncated);
        for (i, f) in frames.iter().enumerate() {
            // Plain appends read back meta 0.
            let expected = if i % 2 == 0 { i as u32 * 3 } else { 0 };
            assert_eq!(f.meta, expected, "frame {i}");
            assert_eq!(f.values, frame(i).1);
        }
        // Resume appends cleanly after a mixed log.
        let (mut w, recovered, _) = WalWriter::resume(&dir, config).unwrap();
        assert_eq!(recovered.len(), 7);
        w.append_with_meta(frame(7).0, &frame(7).1, 99).unwrap();
        let (frames, _) = replay(&dir, WalIdentity::default()).unwrap();
        assert_eq!(frames[7].meta, 99);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_payload_with_wrong_length_is_rejected() {
        // Hand-craft records whose checksum passes but whose payload is not
        // 24+4n bytes for its declared count n: 4 bytes short (the retired
        // layout without the meta word) and 4 bytes long. The parser cuts
        // both, keeping the prefix.
        for (name, resize) in [("short", -4i64), ("long", 4)] {
            let dir = tmp_dir(&format!("metalen_{name}"));
            let config = WalConfig {
                frames_per_segment: 100,
                fsync: FsyncPolicy::Never,
                identity: WalIdentity::default(),
            };
            let _w = write_frames(&dir, config, 2);
            let record = encode_record(2, 1.0, &[1.0, 2.0], 5);
            let mut payload = record[4..record.len() - 8].to_vec();
            payload.resize((payload.len() as i64 + resize) as usize, 0);
            let mut bogus = (payload.len() as u32).to_le_bytes().to_vec();
            bogus.extend_from_slice(&payload);
            bogus.extend_from_slice(&record_checksum(&payload).to_le_bytes());
            let path = segment_path(&dir, 0);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.extend_from_slice(&bogus);
            std::fs::write(&path, &bytes).unwrap();

            let (frames, recovery) = replay(&dir, WalIdentity::default()).unwrap();
            assert_eq!(frames.len(), 2, "{name}: malformed record cut, prefix kept");
            assert!(recovery.truncated, "{name}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn identified_wal_roundtrips_and_rejects_wrong_identity() {
        let dir = tmp_dir("identity");
        let id = WalIdentity { shard_id: 3, catalog_hash: 0xfeed_beef_cafe_0042 };
        let config = WalConfig {
            frames_per_segment: 2,
            fsync: FsyncPolicy::Never,
            identity: id,
        };
        let w = write_frames(&dir, config, 5);
        drop(w);

        let (frames, recovery) = replay(&dir, id).unwrap();
        assert_eq!(frames.len(), 5);
        assert!(!recovery.truncated);

        // Resume with the right identity continues across rotation.
        let (mut w, recovered, _) = WalWriter::resume(&dir, config).unwrap();
        assert_eq!(recovered.len(), 5);
        w.append(frame(5).0, &frame(5).1).unwrap();
        drop(w);
        assert_eq!(replay(&dir, id).unwrap().0.len(), 6);

        // A different shard id or catalog hash is a typed hard error, for
        // replay and resume alike — never a silent truncation.
        for wrong in [
            WalIdentity { shard_id: 4, ..id },
            WalIdentity { catalog_hash: 1, ..id },
        ] {
            match replay(&dir, wrong) {
                Err(DetectorError::WalMismatch(msg)) => {
                    assert!(msg.contains("shard 3"), "{msg}");
                }
                other => panic!("expected WalMismatch, got {other:?}"),
            }
            let bad = WalConfig { identity: wrong, ..config };
            assert!(matches!(
                WalWriter::resume(&dir, bad),
                Err(DetectorError::WalMismatch(_))
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_and_fleet_identities_refuse_each_other() {
        // A single detector's log (default identity) must not resume as a
        // fleet shard's, nor the reverse.
        let single = WalIdentity::default();
        let shard = WalIdentity { shard_id: 0, catalog_hash: 0x5eed_0000_0000_0007 };
        for (wrote, resumes) in [(single, shard), (shard, single)] {
            let dir = tmp_dir("identity_cross");
            let config = WalConfig {
                frames_per_segment: 2,
                fsync: FsyncPolicy::Never,
                identity: wrote,
            };
            drop(write_frames(&dir, config, 3));
            match WalWriter::resume(&dir, WalConfig { identity: resumes, ..config }) {
                Err(DetectorError::WalMismatch(msg)) => {
                    assert!(msg.contains(&wrote.to_string()), "{msg}");
                    assert!(msg.contains(&resumes.to_string()), "{msg}");
                }
                other => panic!("expected WalMismatch, got {other:?}"),
            }
            assert_eq!(replay(&dir, wrote).unwrap().0.len(), 3, "log left intact");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// One segment in the retired unidentified format: 16-byte `AEROWAL1`
    /// header, records without the meta word.
    fn legacy_segment(seq: u64, first_frame: usize, count: usize) -> Vec<u8> {
        let mut bytes = b"AEROWAL1".to_vec();
        bytes.extend_from_slice(&seq.to_le_bytes());
        for i in first_frame..first_frame + count {
            let (ts, values) = frame(i);
            let record = encode_record(i as u64, ts, &values, 0);
            // Today's payload minus its trailing meta word.
            let payload = &record[4..record.len() - 12];
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(payload);
            bytes.extend_from_slice(&record_checksum(payload).to_le_bytes());
        }
        bytes
    }

    #[test]
    fn aerowal1_directory_is_refused_and_left_untouched() {
        let dir = tmp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let segments: Vec<(PathBuf, Vec<u8>)> = (0..3)
            .map(|seq| (segment_path(&dir, seq), legacy_segment(seq, 4 * seq as usize, 4)))
            .collect();
        for (path, bytes) in &segments {
            std::fs::write(path, bytes).unwrap();
        }
        let names_format_and_remedy = |r: DetectorResult<()>| match r {
            Err(DetectorError::WalMismatch(msg)) => {
                assert!(msg.contains("AEROWAL1"), "names the format: {msg}");
                assert!(msg.contains("empty WAL directory"), "names the remedy: {msg}");
            }
            other => panic!("expected WalMismatch, got {other:?}"),
        };
        names_format_and_remedy(replay(&dir, WalIdentity::default()).map(drop));
        names_format_and_remedy(WalWriter::resume(&dir, WalConfig::default()).map(drop));
        // The refused resume neither recreated segment 0 nor deleted the rest.
        for (path, bytes) in &segments {
            assert_eq!(&std::fs::read(path).unwrap(), bytes, "{}", path.display());
        }
        // The scrub attributes the format too.
        let report = verify(&dir, None).unwrap();
        assert_eq!(report.findings.len(), 3, "{:?}", report.findings);
        assert!(report
            .findings
            .iter()
            .all(|f| f.kind == WalFindingKind::BadHeader && f.detail.contains("AEROWAL1")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_segment_header_rejected() {
        let dir = tmp_dir("badheader");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 0), b"NOTAWAL!\0\0\0\0\0\0\0\0junk").unwrap();
        let (frames, recovery) = replay(&dir, WalIdentity::default()).unwrap();
        assert!(frames.is_empty());
        assert!(recovery.truncated);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_reports_clean_log_and_identity() {
        let dir = tmp_dir("verify_clean");
        let id = WalIdentity { shard_id: 3, catalog_hash: 99 };
        let config = WalConfig {
            frames_per_segment: 4,
            fsync: FsyncPolicy::Never,
            identity: id,
        };
        let _w = write_frames(&dir, config, 10);
        let report = verify(&dir, Some(id)).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.segments, 3);
        assert_eq!(report.frames, 10);
        assert_eq!(report.identity, Some(id));
        assert!(report.bytes > 0);
        // Scrubbing is read-only: the log replays untouched afterwards.
        let (frames, recovery) = replay(&dir, id).unwrap();
        assert_eq!(frames.len(), 10);
        assert!(!recovery.truncated);
        // The wrong expectation is a finding, not an error.
        let other = WalIdentity { shard_id: 4, catalog_hash: 99 };
        let report = verify(&dir, Some(other)).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .findings
            .iter()
            .all(|f| f.kind == WalFindingKind::IdentityMismatch));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_attributes_every_kind_of_damage() {
        let dir = tmp_dir("verify_damage");
        let config = WalConfig {
            frames_per_segment: 3,
            fsync: FsyncPolicy::Never,
            identity: WalIdentity::default(),
        };
        let _w = write_frames(&dir, config, 9); // segments 0, 1, 2
        // Bit-flip a payload byte mid-segment-1, tear segment 2's tail, and
        // remove segment 0 entirely (a sequence gap). Unlike replay — which
        // stops at the first cut — the scrub must attribute all three.
        let path1 = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path1).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x40;
        std::fs::write(&path1, &bytes).unwrap();
        let path2 = segment_path(&dir, 2);
        let len = std::fs::metadata(&path2).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path2).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        std::fs::remove_file(segment_path(&dir, 0)).unwrap();

        let report = verify(&dir, None).unwrap();
        assert!(!report.is_clean());
        let kinds: Vec<WalFindingKind> = report.findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&WalFindingKind::SequenceGap), "{kinds:?}");
        assert!(kinds.contains(&WalFindingKind::ChecksumMismatch), "{kinds:?}");
        assert!(kinds.contains(&WalFindingKind::TornTail), "{kinds:?}");
        // Every finding names its segment file and a real byte offset.
        for f in &report.findings {
            assert!(f.path.exists() || f.kind == WalFindingKind::SequenceGap, "{f:?}");
            assert!(!f.detail.is_empty());
        }
        // The scrub changed nothing on disk: a second pass agrees.
        let again = verify(&dir, None).unwrap();
        assert_eq!(again.findings.len(), report.findings.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
