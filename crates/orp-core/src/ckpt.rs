//! Crash-safe checkpoint format: versioned, checksummed, atomically
//! written.
//!
//! Long solves and simulations must survive preemption, OOM-kills, and
//! stalls. This module provides the on-disk container every checkpoint
//! in the workspace uses (see DESIGN.md §6):
//!
//! ```text
//! +----------------+---------+--------+-------------+---------+-------+
//! | magic "ORPCKPT0" | version | kind | payload len | payload | crc32 |
//! |     8 bytes      |   u32   | u32  |     u64     |   ...   |  u32  |
//! +----------------+---------+--------+-------------+---------+-------+
//! ```
//!
//! All integers are little-endian. The CRC-32 (IEEE) covers everything
//! after the magic up to and including the payload, so truncation,
//! bit-flips, and partially-written files are all rejected with a
//! structured [`CkptError`] instead of being deserialized into garbage
//! state. Files are written via [`atomic_write`] — write to a sibling
//! temp file, `fsync`, then `rename` — so a crash mid-write leaves
//! either the old complete checkpoint or the new complete checkpoint,
//! never a torn file.
//!
//! Domain types implement [`Checkpointable`] (a `KIND` tag plus
//! [`Encoder`]/[`Decoder`] round-trip methods) and get `save`/`load`
//! for free. Floating-point values are stored as raw IEEE-754 bits so a
//! resumed run continues with *bit-identical* state — the invariant the
//! whole layer exists to uphold.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// File magic: identifies an orp checkpoint regardless of kind.
pub const MAGIC: [u8; 8] = *b"ORPCKPT0";

/// Current container format version. Bump on any layout change; old
/// files are rejected with [`CkptError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 1;

/// Structured failure modes for checkpoint I/O and decoding.
///
/// `Clone + PartialEq` so it can ride inside `SaError` and the facade's
/// unified error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Underlying filesystem operation failed (message preserved;
    /// `std::io::Error` itself is not `Clone`).
    Io(String),
    /// File (or a section inside it) ended before the declared length.
    Truncated,
    /// The file does not start with the orp checkpoint magic.
    BadMagic,
    /// The container was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The checkpoint holds a different kind of state than requested
    /// (e.g. a simulator snapshot fed to `--resume` of a solve).
    WrongKind {
        /// Kind tag found in the file header.
        found: u32,
        /// Kind tag the caller required.
        expected: u32,
    },
    /// The CRC-32 over the header and payload does not match: the file
    /// was bit-flipped, truncated at a section boundary, or otherwise
    /// corrupted after being written.
    ChecksumMismatch,
    /// The container was intact but a payload section failed validation
    /// (named in the message).
    BadSection(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(msg) => write!(f, "checkpoint i/o error: {msg}"),
            Self::Truncated => write!(f, "checkpoint file is truncated"),
            Self::BadMagic => write!(f, "not an orp checkpoint (bad magic)"),
            Self::UnsupportedVersion { found, expected } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {expected})"
            ),
            Self::WrongKind { found, expected } => write!(
                f,
                "wrong checkpoint kind: the file is {}, but {} was requested",
                KindName(*found),
                KindName(*expected)
            ),
            Self::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (file corrupted)")
            }
            Self::BadSection(what) => write!(f, "invalid checkpoint section: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// A kind tag as an error message names it.
struct KindName(u32);

impl fmt::Display for KindName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            KIND_ANNEAL => write!(f, "an annealer checkpoint (kind 1)"),
            KIND_SIM => write!(f, "a simulator checkpoint (kind 2)"),
            KIND_TEMPER_RETIRED => write!(
                f,
                "a parallel-tempering checkpoint (kind 3, no longer resumed)"
            ),
            k => write!(f, "a checkpoint of kind {k}"),
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------

/// Slicing-by-8 lookup tables: `CRC32_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC32_TABLES[k][b]` advances a CRC whose next
/// input byte `b` is followed by `k` zero bytes, letting the hot loop
/// fold 8 input bytes per iteration instead of one. Same polynomial,
/// same checksum values — just ~6× the throughput, which matters now
/// that million-flow configurations are fingerprinted and checkpoints
/// reach hundreds of megabytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `data`. Public so tests can construct deliberately
/// corrupted files with a *valid* checksum over *invalid* contents.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Encoder / Decoder
// ---------------------------------------------------------------------

/// Appends little-endian primitives to a growing byte buffer.
///
/// Floats go through [`Encoder::put_f64`] as raw bits — never as text —
/// so decoded values compare bit-equal to what was saved.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u32(x);
        }
    }
}

/// Reads little-endian primitives back out of a byte slice, returning
/// [`CkptError::Truncated`] on any short read.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any nonzero byte is `true`.
    pub fn get_bool(&mut self) -> Result<bool, CkptError> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a count of entries at least `elem_size` bytes each, bounding
    /// it by the bytes actually remaining ([`CkptError::Truncated`] past
    /// them) so a corrupted count cannot trigger an enormous allocation.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, CkptError> {
        let n = self.get_u64()? as usize;
        if n.checked_mul(elem_size)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(CkptError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.get_len(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CkptError> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CkptError::BadSection("non-UTF-8 string".into()))
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, CkptError> {
        let n = self.get_len(4)?;
        (0..n).map(|_| self.get_u32()).collect()
    }
}

// ---------------------------------------------------------------------
// Atomic file writes
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: the data goes to a sibling
/// `.tmp` file, is `fsync`ed, then `rename`d over the destination.
/// Readers (and a resumed run) therefore see either the previous
/// complete file or the new complete file — never a torn write.
///
/// Used by every artifact writer in the workspace (checkpoints,
/// `results/*.json`, saved `.hsg` graphs, exported traces).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    // Persist the rename itself; failure here (e.g. on filesystems that
    // do not allow opening a directory) does not invalidate the data.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Container read / write
// ---------------------------------------------------------------------

/// Wraps `payload` in the versioned, checksummed container and writes
/// it atomically to `path`.
pub fn write_checkpoint(path: &Path, kind: u32, payload: &[u8]) -> Result<(), CkptError> {
    let mut body = Vec::with_capacity(16 + payload.len());
    body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    body.extend_from_slice(&kind.to_le_bytes());
    body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    body.extend_from_slice(payload);
    let crc = crc32(&body);
    let mut file = Vec::with_capacity(MAGIC.len() + body.len() + 4);
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&body);
    file.extend_from_slice(&crc.to_le_bytes());
    atomic_write(path, &file)
}

/// Validates a container's magic, version, kind, declared length, and
/// checksum, returning the payload bytes.
pub fn parse_checkpoint(file: &[u8], kind: u32) -> Result<&[u8], CkptError> {
    if file.len() < MAGIC.len() {
        return Err(CkptError::Truncated);
    }
    if file[..MAGIC.len()] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let body = &file[MAGIC.len()..];
    // version + kind + len + crc is the minimum body.
    if body.len() < 4 + 4 + 8 + 4 {
        return Err(CkptError::Truncated);
    }
    let (checked, crc_bytes) = body.split_at(body.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4"));
    if crc32(checked) != stored_crc {
        // Distinguish the common truncation case (payload shorter than
        // its declared length) from in-place corruption.
        let declared = u64::from_le_bytes(checked[8..16].try_into().expect("8")) as usize;
        if checked.len() - 16 < declared {
            return Err(CkptError::Truncated);
        }
        return Err(CkptError::ChecksumMismatch);
    }
    let mut d = Decoder::new(checked);
    let version = d.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(CkptError::UnsupportedVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let found_kind = d.get_u32()?;
    if found_kind != kind {
        return Err(CkptError::WrongKind {
            found: found_kind,
            expected: kind,
        });
    }
    let declared = d.get_u64()? as usize;
    if d.remaining() != declared {
        return Err(CkptError::Truncated);
    }
    Ok(&checked[16..])
}

/// Reads `path` and returns the validated payload of a `kind`
/// checkpoint.
pub fn read_checkpoint(path: &Path, kind: u32) -> Result<Vec<u8>, CkptError> {
    let file = fs::read(path)?;
    parse_checkpoint(&file, kind).map(|p| p.to_vec())
}

/// State that can be saved to and restored from a checkpoint file.
///
/// Implementors pick a unique `KIND` tag (stored in the container
/// header so a solve checkpoint can never be mistaken for a simulator
/// snapshot) and round-trip their state through [`Encoder`] /
/// [`Decoder`]. `save` / `load` handle the container and atomicity.
pub trait Checkpointable: Sized {
    /// Kind tag identifying this state family in the container header.
    const KIND: u32;

    /// Serializes the complete state into `enc`.
    fn encode_ckpt(&self, enc: &mut Encoder);

    /// Reconstructs the state from `dec`, validating every section.
    fn decode_ckpt(dec: &mut Decoder<'_>) -> Result<Self, CkptError>;

    /// Writes this state to `path` as an atomic, checksummed
    /// checkpoint.
    fn save(&self, path: &Path) -> Result<(), CkptError> {
        let mut enc = Encoder::new();
        self.encode_ckpt(&mut enc);
        write_checkpoint(path, Self::KIND, &enc.into_bytes())
    }

    /// Loads and validates a checkpoint of this kind from `path`.
    fn load(path: &Path) -> Result<Self, CkptError> {
        let payload = read_checkpoint(path, Self::KIND)?;
        let mut dec = Decoder::new(&payload);
        let v = Self::decode_ckpt(&mut dec)?;
        Ok(v)
    }
}

/// Kind tag for annealer checkpoints ([`crate::anneal::Anneal`]).
pub const KIND_ANNEAL: u32 = 1;
/// Kind tag for event-simulator checkpoints (`orp-netsim`).
pub const KIND_SIM: u32 = 2;
/// Kind tag of the parallel-tempering checkpoints older builds wrote.
/// Nothing writes or resumes it any more; the tag stays reserved so such
/// a file fails with a [`CkptError::WrongKind`] that names it.
pub const KIND_TEMPER_RETIRED: u32 = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u64,
        x: f64,
        tag: String,
        v: Vec<u32>,
    }

    impl Checkpointable for Demo {
        const KIND: u32 = 77;
        fn encode_ckpt(&self, enc: &mut Encoder) {
            enc.put_u64(self.a);
            enc.put_f64(self.x);
            enc.put_str(&self.tag);
            enc.put_u32_slice(&self.v);
        }
        fn decode_ckpt(dec: &mut Decoder<'_>) -> Result<Self, CkptError> {
            Ok(Self {
                a: dec.get_u64()?,
                x: dec.get_f64()?,
                tag: dec.get_str()?,
                v: dec.get_u32_vec()?,
            })
        }
    }

    fn demo() -> Demo {
        Demo {
            a: 0xDEAD_BEEF_CAFE,
            x: -0.1234567891011,
            tag: "hello".into(),
            v: vec![1, 2, 3, u32::MAX],
        }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn round_trip_through_file() {
        let dir = std::env::temp_dir().join(format!("orp_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.orp");
        let d = demo();
        d.save(&path).unwrap();
        assert_eq!(Demo::load(&path).unwrap(), d);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let mut enc = Encoder::new();
        demo().encode_ckpt(&mut enc);
        let payload = enc.into_bytes();
        let mut body = Vec::new();
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&Demo::KIND.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(&payload);
        let crc = crc32(&body);
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        file.extend_from_slice(&body);
        file.extend_from_slice(&crc.to_le_bytes());
        assert!(parse_checkpoint(&file, Demo::KIND).is_ok());
        for cut in 0..file.len() {
            let err = parse_checkpoint(&file[..cut], Demo::KIND).unwrap_err();
            assert!(
                matches!(
                    err,
                    CkptError::Truncated | CkptError::BadMagic | CkptError::ChecksumMismatch
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bit_flip_rejected() {
        let mut enc = Encoder::new();
        demo().encode_ckpt(&mut enc);
        let payload = enc.into_bytes();
        let mut body = Vec::new();
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&Demo::KIND.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(&payload);
        let crc = crc32(&body);
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        file.extend_from_slice(&body);
        file.extend_from_slice(&crc.to_le_bytes());
        // Flip one bit somewhere in the payload region.
        let idx = MAGIC.len() + 16 + payload.len() / 2;
        file[idx] ^= 0x10;
        assert_eq!(
            parse_checkpoint(&file, Demo::KIND).unwrap_err(),
            CkptError::ChecksumMismatch
        );
    }

    #[test]
    fn version_and_kind_mismatch_rejected() {
        let mut body = Vec::new();
        body.extend_from_slice(&(FORMAT_VERSION + 9).to_le_bytes());
        body.extend_from_slice(&Demo::KIND.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        let crc = crc32(&body);
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        file.extend_from_slice(&body);
        file.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            parse_checkpoint(&file, Demo::KIND).unwrap_err(),
            CkptError::UnsupportedVersion { .. }
        ));

        let mut body = Vec::new();
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&99u32.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        let crc = crc32(&body);
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        file.extend_from_slice(&body);
        file.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            parse_checkpoint(&file, Demo::KIND).unwrap_err(),
            CkptError::WrongKind {
                found: 99,
                expected: 77
            }
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            parse_checkpoint(b"NOTACKPTxxxxxxxxxxxxxxxxxxxx", 1).unwrap_err(),
            CkptError::BadMagic
        );
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("orp_aw_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        atomic_write(&path, b"first version").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp file left behind.
        assert!(!dir.join("out.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
