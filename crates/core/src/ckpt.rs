//! Durable checkpoint/restart: versioned, checksummed, bitwise-exact
//! snapshots written through an injectable [`Storage`] trait.
//!
//! The on-disk unit is an `LCKP` frame (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "LCKP"
//! 4       4     format version (u32)
//! 8       8     payload length in bytes (u64)
//! 16      8     payload xxhash64 (seed 0)
//! 24      8     header xxhash64 over bytes 0..24 (seed 0)
//! 32      n     payload
//! ```
//!
//! A single flipped bit anywhere in the frame is detected: corruption of the
//! header (including the stored payload hash) breaks the header hash,
//! corruption of the payload breaks the payload hash, and truncation breaks
//! the length check. Floating-point payload fields travel as `to_bits()`
//! words, so NaN payloads and signed zeros round-trip bitwise.
//!
//! [`CheckpointStore`] lays generations `ckpt-<gen>.bin` over any [`Storage`]
//! and keeps the newest `K >= 2`; a corrupt newest generation is skipped in
//! favor of the previous good one, never silently restored. [`DirStorage`]
//! is the only filesystem writer in the library crates (lint E008): it
//! writes a hidden temp file, fsyncs it, renames it into place, then fsyncs
//! the directory. [`FaultyStorage`] injects deterministic storage faults
//! (torn/short writes, bit flips, ENOSPC, latency) for resilience tests.

use landau_obs::MetricRegistry;
use landau_vgpu::fault::{FaultCursor, FaultKind, FaultPlan, FaultSpec};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Magic bytes opening every checkpoint frame.
pub const CKPT_MAGIC: [u8; 4] = *b"LCKP";
/// Current frame format version.
pub const CKPT_VERSION: u32 = 1;
/// Fixed frame header size (magic + version + length + two hashes).
pub const FRAME_HEADER_LEN: usize = 32;

// ---------------------------------------------------------------------------
// xxhash64 (public-domain algorithm; reimplemented here to avoid a dep)
// ---------------------------------------------------------------------------

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh64_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn xxh64_merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ xxh64_round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline]
fn read_u64_le(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

#[inline]
fn read_u32_le(b: &[u8]) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&b[..4]);
    u32::from_le_bytes(w)
}

/// xxhash64 of `data` with the given seed.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len() as u64;
    let mut rest = data;
    let mut h: u64;
    if rest.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = xxh64_round(v1, read_u64_le(&rest[0..]));
            v2 = xxh64_round(v2, read_u64_le(&rest[8..]));
            v3 = xxh64_round(v3, read_u64_le(&rest[16..]));
            v4 = xxh64_round(v4, read_u64_le(&rest[24..]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xxh64_merge_round(h, v1);
        h = xxh64_merge_round(h, v2);
        h = xxh64_merge_round(h, v3);
        h = xxh64_merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }
    h = h.wrapping_add(len);
    while rest.len() >= 8 {
        h = (h ^ xxh64_round(0, read_u64_le(rest)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h = (h ^ u64::from(read_u32_le(rest)).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Structured checkpoint error; storage faults surface as `Io`, checksum or
/// format failures as `Corrupt`, and schema mismatches as `Incompatible`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Underlying storage operation failed (includes injected ENOSPC).
    Io { op: &'static str, detail: String },
    /// Frame or payload failed validation; never restored.
    Corrupt { reason: String },
    /// A decoded checkpoint does not match the live configuration.
    Incompatible { reason: String },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { op, detail } => write!(f, "checkpoint io ({op}): {detail}"),
            CkptError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            CkptError::Incompatible { reason } => {
                write!(f, "incompatible checkpoint: {reason}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

fn corrupt(reason: impl Into<String>) -> CkptError {
    CkptError::Corrupt {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Binary payload encoding (bitwise f64 round-trip)
// ---------------------------------------------------------------------------

/// Little-endian payload writer; `f64` fields are stored as `to_bits()`.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.put_f64(x);
        }
    }
}

/// Little-endian payload reader mirroring [`ByteWriter`]; every underrun or
/// malformed field is a [`CkptError::Corrupt`].
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt(format!("payload underrun at byte {}", self.pos)))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, CkptError> {
        Ok(read_u32_le(self.take(4)?))
    }

    pub fn get_u64(&mut self) -> Result<u64, CkptError> {
        Ok(read_u64_le(self.take(8)?))
    }

    pub fn get_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_str(&mut self) -> Result<String, CkptError> {
        let n = self.get_u64()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("non-utf8 string field"))
    }

    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CkptError> {
        let n = self.get_u64()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) / 8 {
            return Err(corrupt(format!("f64 vector length {n} exceeds payload")));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Assert the entire payload was consumed (trailing garbage is corruption).
    pub fn finish(self) -> Result<(), CkptError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------------

/// Wrap a payload in a versioned, double-checksummed `LCKP` frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&CKPT_MAGIC);
    frame.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&xxh64(payload, 0).to_le_bytes());
    let header_hash = xxh64(&frame[..24], 0);
    frame.extend_from_slice(&header_hash.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Validate an `LCKP` frame and return its payload. Any single-bit
/// corruption anywhere in the frame (header, hashes, payload, truncation)
/// yields [`CkptError::Corrupt`].
pub fn decode_frame(frame: &[u8]) -> Result<&[u8], CkptError> {
    if frame.len() < FRAME_HEADER_LEN {
        return Err(corrupt(format!(
            "frame too short: {} < {FRAME_HEADER_LEN} header bytes",
            frame.len()
        )));
    }
    let header_hash = read_u64_le(&frame[24..32]);
    if xxh64(&frame[..24], 0) != header_hash {
        return Err(corrupt("header checksum mismatch"));
    }
    if frame[..4] != CKPT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = read_u32_le(&frame[4..8]);
    if version != CKPT_VERSION {
        return Err(corrupt(format!("unsupported frame version {version}")));
    }
    let payload_len = read_u64_le(&frame[8..16]) as usize;
    let payload_hash = read_u64_le(&frame[16..24]);
    let payload = &frame[FRAME_HEADER_LEN..];
    if payload.len() != payload_len {
        return Err(corrupt(format!(
            "payload length mismatch: header says {payload_len}, frame has {}",
            payload.len()
        )));
    }
    if xxh64(payload, 0) != payload_hash {
        return Err(corrupt("payload checksum mismatch"));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

/// Injectable durable-storage backend. `write_atomic` must be all-or-nothing
/// from the reader's point of view (tmp-write/fsync/rename for filesystems).
pub trait Storage: Send {
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), CkptError>;
    fn read(&self, name: &str) -> Result<Vec<u8>, CkptError>;
    /// Stable-sorted list of stored object names.
    fn list(&self) -> Result<Vec<String>, CkptError>;
    fn remove(&mut self, name: &str) -> Result<(), CkptError>;
    /// A second handle onto the **same durable medium**, if the backend
    /// supports sharing (two processes opening one checkpoint directory).
    /// `None` for media that cannot be shared. The service layer uses this
    /// to hand each rebuilt driver its job's checkpoint store.
    fn clone_box(&self) -> Option<Box<dyn Storage>> {
        None
    }
}

/// Filesystem storage with atomic tmp-write/fsync/rename semantics. This is
/// the single library-crate site allowed to open files for writing (lint
/// E008); everything else goes through the [`Storage`] trait.
pub struct DirStorage {
    dir: PathBuf,
}

impl DirStorage {
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| CkptError::Io {
            op: "create_dir",
            detail: format!("{}: {e}", dir.display()),
        })?;
        Ok(Self { dir })
    }

    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

impl Storage for DirStorage {
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        use std::io::Write;
        let io = |op: &'static str| {
            move |e: std::io::Error| CkptError::Io {
                op,
                detail: e.to_string(),
            }
        };
        let tmp = self.dir.join(format!(".{name}.tmp"));
        let fin = self.dir.join(name);
        let mut fh = std::fs::File::create(&tmp).map_err(io("create"))?;
        fh.write_all(bytes).map_err(io("write"))?;
        fh.sync_all().map_err(io("fsync"))?;
        drop(fh);
        std::fs::rename(&tmp, &fin).map_err(io("rename"))?;
        // Persist the rename itself: fsync the containing directory.
        if let Ok(dh) = std::fs::File::open(&self.dir) {
            let _ = dh.sync_all();
        }
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        std::fs::read(self.dir.join(name)).map_err(|e| CkptError::Io {
            op: "read",
            detail: format!("{name}: {e}"),
        })
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        let rd = std::fs::read_dir(&self.dir).map_err(|e| CkptError::Io {
            op: "list",
            detail: e.to_string(),
        })?;
        let mut names: Vec<String> = rd
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| !n.starts_with('.'))
            .collect();
        names.sort();
        Ok(names)
    }

    fn remove(&mut self, name: &str) -> Result<(), CkptError> {
        std::fs::remove_file(self.dir.join(name)).map_err(|e| CkptError::Io {
            op: "remove",
            detail: format!("{name}: {e}"),
        })
    }

    fn clone_box(&self) -> Option<Box<dyn Storage>> {
        // Same directory — the directory itself is the shared medium.
        Some(Box::new(DirStorage {
            dir: self.dir.clone(),
        }))
    }
}

/// In-memory storage. `Clone` shares the underlying map, modelling the same
/// durable medium seen by a killed and a resumed process.
#[derive(Clone, Default)]
pub struct MemStorage {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemStorage {
    pub fn new() -> Self {
        Self::default()
    }

    /// Raw stored bytes (test hook for corruption matrices).
    pub fn raw(&self, name: &str) -> Option<Vec<u8>> {
        self.files.lock().ok().and_then(|m| m.get(name).cloned())
    }

    /// Overwrite stored bytes directly, bypassing atomicity (test hook).
    pub fn poke(&self, name: &str, bytes: Vec<u8>) {
        if let Ok(mut m) = self.files.lock() {
            m.insert(name.to_string(), bytes);
        }
    }
}

impl Storage for MemStorage {
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        let mut m = self.files.lock().map_err(|_| CkptError::Io {
            op: "write",
            detail: "storage mutex poisoned".into(),
        })?;
        m.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        self.files
            .lock()
            .map_err(|_| CkptError::Io {
                op: "read",
                detail: "storage mutex poisoned".into(),
            })?
            .get(name)
            .cloned()
            .ok_or_else(|| CkptError::Io {
                op: "read",
                detail: format!("{name}: not found"),
            })
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        Ok(self
            .files
            .lock()
            .map_err(|_| CkptError::Io {
                op: "list",
                detail: "storage mutex poisoned".into(),
            })?
            .keys()
            .cloned()
            .collect())
    }

    fn remove(&mut self, name: &str) -> Result<(), CkptError> {
        if let Ok(mut m) = self.files.lock() {
            m.remove(name);
        }
        Ok(())
    }

    fn clone_box(&self) -> Option<Box<dyn Storage>> {
        // `Clone` already shares the underlying map.
        Some(Box::new(self.clone()))
    }
}

// ---------------------------------------------------------------------------
// Fault-injected storage
// ---------------------------------------------------------------------------

/// Deterministic storage fault kinds, mirroring the kernel-site
/// `FaultKind` discipline: seeded plans, not random flakiness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// Persist only the first `keep_pct` percent of the bytes (torn write).
    Torn { keep_pct: u8 },
    /// Drop the last `drop_bytes` bytes (short write).
    Short { drop_bytes: usize },
    /// XOR one byte (index modulo length) with `mask` after the write lands.
    BitFlip { byte: usize, mask: u8 },
    /// Fail the write with an ENOSPC-style error; nothing is persisted.
    NoSpace,
    /// Delay the write by `micros` microseconds, then succeed cleanly.
    Latency { micros: u64 },
}

/// One scheduled fault: fires on the `nth_write`-th write (0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageFault {
    pub nth_write: u64,
    pub kind: StorageFaultKind,
}

/// Wraps any [`Storage`] and injects the scheduled faults deterministically.
pub struct FaultyStorage<S: Storage> {
    inner: S,
    faults: Vec<StorageFault>,
    writes: u64,
    log: Vec<StorageFault>,
}

impl<S: Storage> FaultyStorage<S> {
    pub fn new(inner: S, faults: Vec<StorageFault>) -> Self {
        Self {
            inner,
            faults,
            writes: 0,
            log: Vec::new(),
        }
    }

    /// Faults that actually fired, in order.
    pub fn log(&self) -> &[StorageFault] {
        &self.log
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        let n = self.writes;
        self.writes += 1;
        let mut data = bytes.to_vec();
        for f in self.faults.iter().filter(|f| f.nth_write == n) {
            self.log.push(*f);
            match f.kind {
                StorageFaultKind::Torn { keep_pct } => {
                    let keep = data.len() * usize::from(keep_pct.min(100)) / 100;
                    data.truncate(keep);
                }
                StorageFaultKind::Short { drop_bytes } => {
                    let keep = data.len().saturating_sub(drop_bytes);
                    data.truncate(keep);
                }
                StorageFaultKind::BitFlip { byte, mask } => {
                    if !data.is_empty() {
                        let i = byte % data.len();
                        data[i] ^= mask;
                    }
                }
                StorageFaultKind::NoSpace => {
                    return Err(CkptError::Io {
                        op: "write",
                        detail: "no space left on device (injected ENOSPC)".into(),
                    });
                }
                StorageFaultKind::Latency { micros } => {
                    std::thread::sleep(std::time::Duration::from_micros(micros));
                }
            }
        }
        self.inner.write_atomic(name, &data)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        self.inner.read(name)
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        self.inner.list()
    }

    fn remove(&mut self, name: &str) -> Result<(), CkptError> {
        self.inner.remove(name)
    }
}

// ---------------------------------------------------------------------------
// Generation store
// ---------------------------------------------------------------------------

/// A successfully validated checkpoint.
pub struct LoadedCheckpoint {
    pub generation: u64,
    pub payload: Vec<u8>,
    /// Newer generations that were present but corrupt and skipped.
    pub skipped: u64,
}

/// Generational checkpoint store over any [`Storage`]: writes
/// `ckpt-<gen>.bin` frames, keeps the newest `keep >= 2`, and on load walks
/// generations newest-first, skipping (and counting) corrupt ones.
pub struct CheckpointStore {
    storage: Box<dyn Storage>,
    keep: usize,
    registry: Option<Arc<MetricRegistry>>,
}

impl CheckpointStore {
    /// `keep` is clamped to at least 2 so one corrupt write never strands
    /// the run without a fallback generation.
    pub fn new(storage: Box<dyn Storage>, keep: usize) -> Self {
        Self {
            storage,
            keep: keep.max(2),
            registry: None,
        }
    }

    /// Publish `ckpt.*` counters to this registry on save/load.
    pub fn with_registry(mut self, registry: Arc<MetricRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    fn gen_name(generation: u64) -> String {
        format!("ckpt-{generation:08}.bin")
    }

    fn parse_gen(name: &str) -> Option<u64> {
        name.strip_prefix("ckpt-")?
            .strip_suffix(".bin")?
            .parse()
            .ok()
    }

    /// Ascending (generation, name) pairs currently in storage.
    fn generations(&self) -> Result<Vec<(u64, String)>, CkptError> {
        let mut gens: Vec<(u64, String)> = self
            .storage
            .list()?
            .into_iter()
            .filter_map(|n| Self::parse_gen(&n).map(|g| (g, n)))
            .collect();
        gens.sort();
        Ok(gens)
    }

    fn count(&self, name: &str, by: u64) {
        if let Some(reg) = &self.registry {
            reg.add(name, by);
        }
    }

    /// Frame and durably write a new generation, pruning old ones beyond
    /// `keep`. Returns the new generation number.
    pub fn save(&mut self, payload: &[u8]) -> Result<u64, CkptError> {
        let _sp = landau_obs::span(landau_obs::names::CKPT_WRITE);
        let gens = self.generations()?;
        let generation = gens.last().map(|(g, _)| g + 1).unwrap_or(0);
        let frame = encode_frame(payload);
        match self
            .storage
            .write_atomic(&Self::gen_name(generation), &frame)
        {
            Ok(()) => {}
            Err(e) => {
                self.count("ckpt.write_failures", 1);
                return Err(e);
            }
        }
        self.count("ckpt.writes", 1);
        self.count("ckpt.write_bytes", frame.len() as u64);
        landau_obs::Journal::global().publish(landau_obs::Event::checkpoint_write(
            generation,
            frame.len() as u64,
        ));
        // Prune: keep the newest `keep` generations including the new one.
        let total = gens.len() + 1;
        for (_, name) in gens.iter().take(total.saturating_sub(self.keep)) {
            let _ = self.storage.remove(name);
        }
        Ok(generation)
    }

    /// Load the newest good generation. Corrupt generations are counted,
    /// skipped, and never restored. `Ok(None)` means no checkpoints exist;
    /// an error means every present generation failed validation.
    pub fn load_latest(&mut self) -> Result<Option<LoadedCheckpoint>, CkptError> {
        let _sp = landau_obs::span(landau_obs::names::CKPT_LOAD);
        let gens = self.generations()?;
        if gens.is_empty() {
            return Ok(None);
        }
        let mut skipped = 0u64;
        for (generation, name) in gens.iter().rev() {
            let decoded = self
                .storage
                .read(name)
                .and_then(|frame| decode_frame(&frame).map(<[u8]>::to_vec));
            match decoded {
                Ok(payload) => {
                    self.count("ckpt.loads", 1);
                    self.count("ckpt.corrupt_skipped", skipped);
                    landau_obs::Journal::global().publish(landau_obs::Event::checkpoint_load(
                        *generation,
                        payload.len() as u64,
                    ));
                    return Ok(Some(LoadedCheckpoint {
                        generation: *generation,
                        payload,
                        skipped,
                    }));
                }
                Err(_) => skipped += 1,
            }
        }
        self.count("ckpt.corrupt_skipped", skipped);
        Err(corrupt(format!(
            "all {skipped} checkpoint generations failed validation"
        )))
    }
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// When to cut a checkpoint. All triggers compose (logical OR).
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointPolicy {
    /// Checkpoint once at least this many steps completed since the last one.
    pub every_steps: Option<u64>,
    /// Checkpoint once this much wall-clock elapsed since the last one.
    pub every_wall_secs: Option<f64>,
    /// Checkpoint on driver phase transitions (e.g. equilibration → quench).
    pub on_phase_change: bool,
}

impl CheckpointPolicy {
    /// Never checkpoint automatically (explicit `checkpoint_now` only).
    pub fn never() -> Self {
        Self::default()
    }

    pub fn every_steps(n: u64) -> Self {
        Self {
            every_steps: Some(n.max(1)),
            ..Self::default()
        }
    }

    pub fn every_wall_secs(secs: f64) -> Self {
        Self {
            every_wall_secs: Some(secs.max(0.0)),
            ..Self::default()
        }
    }

    pub fn and_on_phase_change(mut self) -> Self {
        self.on_phase_change = true;
        self
    }
}

/// Runtime cursor for a [`CheckpointPolicy`]; lives beside the driver, is
/// never serialized (wall-clock restarts on resume by design).
#[derive(Clone, Debug)]
pub struct PolicyCursor {
    last_step: u64,
    last_wall: Instant,
}

impl Default for PolicyCursor {
    fn default() -> Self {
        Self::new()
    }
}

impl PolicyCursor {
    pub fn new() -> Self {
        Self {
            last_step: 0,
            last_wall: Instant::now(),
        }
    }

    /// Start counting steps from `step` (used right after resume).
    pub fn rebase(&mut self, step: u64) {
        self.last_step = step;
        self.last_wall = Instant::now();
    }

    /// Decide whether a checkpoint is due after completing `step` total
    /// steps; arms the cursor forward when it fires.
    pub fn due(&mut self, policy: &CheckpointPolicy, step: u64, phase_change: bool) -> bool {
        let mut due = phase_change && policy.on_phase_change;
        if let Some(n) = policy.every_steps {
            if step >= self.last_step.saturating_add(n) {
                due = true;
            }
        }
        if let Some(s) = policy.every_wall_secs {
            if self.last_wall.elapsed().as_secs_f64() >= s {
                due = true;
            }
        }
        if due {
            self.last_step = step;
            self.last_wall = Instant::now();
        }
        due
    }
}

/// Serialize a [`FaultCursor`] (plan, armed flag, per-site tallies) so a
/// resumed run replays the remaining fault schedule identically. Shared by
/// the quench driver's and the batched advance's checkpoint encoders.
pub fn encode_fault_cursor(w: &mut ByteWriter, cur: &FaultCursor) {
    w.put_u8(u8::from(cur.armed));
    w.put_u64(cur.plan.seed);
    w.put_u64(cur.plan.faults.len() as u64);
    for f in &cur.plan.faults {
        w.put_str(&f.site);
        w.put_u64(f.nth);
        w.put_u64(f.count);
        match f.kind {
            FaultKind::Nan => w.put_u8(0),
            FaultKind::Perturb { rel } => {
                w.put_u8(1);
                w.put_f64(rel);
            }
            FaultKind::SingularBlock => w.put_u8(2),
        }
    }
    w.put_u64(cur.counts.len() as u64);
    for (site, tally) in &cur.counts {
        w.put_str(site);
        w.put_u64(*tally);
    }
}

/// Inverse of [`encode_fault_cursor`].
pub fn decode_fault_cursor(r: &mut ByteReader<'_>) -> Result<FaultCursor, CkptError> {
    let armed = r.get_u8()? != 0;
    let seed = r.get_u64()?;
    let n_faults = r.get_u64()? as usize;
    let mut faults = Vec::with_capacity(n_faults.min(1 << 16));
    for _ in 0..n_faults {
        let site = r.get_str()?;
        let nth = r.get_u64()?;
        let count = r.get_u64()?;
        let kind = match r.get_u8()? {
            0 => FaultKind::Nan,
            1 => FaultKind::Perturb { rel: r.get_f64()? },
            2 => FaultKind::SingularBlock,
            t => {
                return Err(CkptError::Corrupt {
                    reason: format!("unknown fault kind tag {t}"),
                })
            }
        };
        faults.push(FaultSpec {
            site,
            nth,
            count,
            kind,
        });
    }
    let n_counts = r.get_u64()? as usize;
    let mut counts = Vec::with_capacity(n_counts.min(1 << 16));
    for _ in 0..n_counts {
        let site = r.get_str()?;
        let tally = r.get_u64()?;
        counts.push((site, tally));
    }
    Ok(FaultCursor {
        armed,
        plan: FaultPlan { seed, faults },
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Reference values from the canonical xxHash test suite.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        // Seed participates in the hash; long inputs exercise the 32-byte
        // stripe loop and every tail width.
        let long: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        assert_ne!(xxh64(&long, 0), xxh64(&long, 1));
        for cut in [31, 32, 33, 39, 40, 43, 44, 45] {
            assert_ne!(xxh64(&long[..cut], 7), xxh64(&long[..cut + 1], 7));
        }
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"hello checkpoint".to_vec();
        let frame = encode_frame(&payload);
        assert_eq!(decode_frame(&frame).unwrap(), &payload[..]);
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let mut w = ByteWriter::new();
        w.put_f64_slice(&[1.0, -0.0, f64::NAN, 2.5e-308]);
        let frame = encode_frame(&w.into_bytes());
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xFF;
            assert!(
                decode_frame(&bad).is_err(),
                "byte flip at {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let frame = encode_frame(b"payload bytes here");
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn store_keeps_k_generations_and_falls_back() {
        let mem = MemStorage::new();
        let mut store = CheckpointStore::new(Box::new(mem.clone()), 2);
        assert!(store.load_latest().unwrap().is_none());
        store.save(b"gen0").unwrap();
        store.save(b"gen1").unwrap();
        store.save(b"gen2").unwrap();
        // Oldest generation pruned, newest two kept.
        assert_eq!(mem.list().unwrap().len(), 2);
        // Corrupt the newest generation in place: load falls back to gen1.
        let name = "ckpt-00000002.bin";
        let mut raw = mem.raw(name).unwrap();
        raw[FRAME_HEADER_LEN + 1] ^= 0x40;
        mem.poke(name, raw);
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.payload, b"gen1");
        assert_eq!(loaded.skipped, 1);
    }

    #[test]
    fn faulty_storage_modes_never_restore_silently() {
        let modes = [
            StorageFaultKind::Torn { keep_pct: 50 },
            StorageFaultKind::Short { drop_bytes: 3 },
            StorageFaultKind::BitFlip {
                byte: 7,
                mask: 0x01,
            },
            StorageFaultKind::NoSpace,
            StorageFaultKind::Latency { micros: 10 },
        ];
        for kind in modes {
            let mem = MemStorage::new();
            let faulty = FaultyStorage::new(mem.clone(), vec![StorageFault { nth_write: 1, kind }]);
            let mut store = CheckpointStore::new(Box::new(faulty), 2);
            store.save(b"good generation").unwrap();
            let second = store.save(b"possibly torn");
            let loaded = store.load_latest().unwrap().unwrap();
            match kind {
                StorageFaultKind::Latency { .. } => {
                    // Clean (just slow): newest generation restored.
                    second.unwrap();
                    assert_eq!(loaded.payload, b"possibly torn");
                }
                StorageFaultKind::NoSpace => {
                    assert!(second.is_err());
                    assert_eq!(loaded.payload, b"good generation");
                }
                _ => {
                    // Corruption landed: must fall back, never silently
                    // return the damaged frame.
                    second.unwrap();
                    assert_eq!(loaded.payload, b"good generation", "{kind:?}");
                    assert_eq!(loaded.skipped, 1, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn policy_triggers_compose() {
        let mut cur = PolicyCursor::new();
        let p = CheckpointPolicy::every_steps(3).and_on_phase_change();
        assert!(!cur.due(&p, 1, false));
        assert!(cur.due(&p, 2, true)); // phase change fires early
        assert!(!cur.due(&p, 4, false));
        assert!(cur.due(&p, 5, false)); // 3 steps since rebase at 2
        assert!(!cur.due(&p, 6, false));
        let never = CheckpointPolicy::never();
        assert!(!cur.due(&never, 1000, false));
    }
}
