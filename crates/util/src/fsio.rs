//! Crash-safe file I/O: atomic writes, a versioned + checksummed
//! checkpoint envelope, and a fault-injection layer for testing them.
//!
//! Durability model: a checkpoint write is **atomic** — readers observe
//! either the complete previous file or the complete new file, never a
//! torn mixture. This is implemented the classic way (temp file in the
//! same directory → `fsync` → `rename` → directory `fsync`), and the
//! envelope adds belt-and-braces detection for anything that slips
//! through (truncation on a non-POSIX filesystem, bit rot, manual edits):
//!
//! ```text
//! HISRESCKPT v2 kind=<kind> len=<payload bytes> crc=<fnv1a64 hex>\n
//! <payload>
//! ```
//!
//! The header names the format version and the *kind* of checkpoint
//! (`"model"`, `"params"`, `"train-state"`), so loading the wrong file
//! species is a typed error rather than a JSON-shape coincidence. A v2
//! payload is JSON text ([`seal`]/[`open`]); a v3 payload is bytes
//! ([`seal_bytes`]/[`open_bytes`]), which model checkpoints use for their
//! little-endian f32 tensor sections. The checksum covers the payload in
//! both.
//!
//! [`FaultInjector`] scripts failures into [`atomic_write_with`]: an I/O
//! error before anything is written, a torn write that leaves a partial
//! temp file (simulated power loss mid-write), or a crash after the temp
//! write but before the rename. Integration tests use it to prove the
//! previous checkpoint survives every one of those.

use std::cell::Cell;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// FNV-1a 64-bit hash — the envelope's content checksum. Not
/// cryptographic; it exists to catch truncation and bit-flips.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Envelope format version of text payloads. Version 1 was the bare-JSON
/// format without a header; files carrying this header start at 2.
pub const ENVELOPE_VERSION: u32 = 2;

/// Envelope format version of byte payloads ([`seal_bytes`]).
pub const BINARY_ENVELOPE_VERSION: u32 = 3;

const MAGIC: &str = "HISRESCKPT";

/// Typed failures when opening a checkpoint envelope. Each corruption
/// mode maps to a distinct variant so callers (and tests) can tell a
/// truncated file from a bit-flip from a foreign format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The file does not start with the checkpoint magic — it is not a
    /// HisRES checkpoint (or is a pre-envelope v1 file).
    NotACheckpoint,
    /// The magic matched but the header line is unparseable.
    HeaderMalformed(String),
    /// The header names a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The file is a valid checkpoint of a different kind.
    WrongKind {
        /// Kind the caller asked for.
        expected: String,
        /// Kind the header declares.
        found: String,
    },
    /// Payload is shorter or longer than the header's `len` — the write
    /// was torn or the file truncated.
    Truncated {
        /// Bytes the header promises.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// Payload length matches but its checksum does not — bit-level
    /// corruption.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::NotACheckpoint => {
                write!(f, "not a HisRES checkpoint (missing {MAGIC} header); unknown format")
            }
            EnvelopeError::HeaderMalformed(m) => write!(f, "malformed checkpoint header: {m}"),
            EnvelopeError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format version {found} is not supported (this build reads v{supported})"
            ),
            EnvelopeError::WrongKind { expected, found } => write!(
                f,
                "checkpoint is of kind {found:?}, expected {expected:?}"
            ),
            EnvelopeError::Truncated { expected, actual } => write!(
                f,
                "checkpoint truncated: header promises {expected} payload bytes, found {actual}"
            ),
            EnvelopeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header {expected:016x}, payload {actual:016x}"
            ),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// The parsed header line of an envelope.
struct Header<'a> {
    version: u32,
    kind: Option<&'a str>,
    len: Option<usize>,
    crc: Option<u64>,
}

/// Splits `file` into its parsed header line and the payload after it.
/// Fails on a missing magic, an unterminated or malformed header (an
/// unrecognised field included), or a version other than 2 or 3.
fn parse_header(file: &[u8]) -> Result<(Header<'_>, &[u8]), EnvelopeError> {
    let Some(rest) = file
        .strip_prefix(MAGIC.as_bytes())
        .and_then(|r| r.strip_prefix(b" "))
    else {
        return Err(EnvelopeError::NotACheckpoint);
    };
    let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
        return Err(EnvelopeError::HeaderMalformed(
            "header line not terminated".into(),
        ));
    };
    let line = std::str::from_utf8(&rest[..nl])
        .map_err(|_| EnvelopeError::HeaderMalformed("header line is not UTF-8".into()))?;
    let mut fields = line.split(' ');
    let version: u32 = fields
        .next()
        .and_then(|t| t.strip_prefix('v'))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| EnvelopeError::HeaderMalformed("missing version token".into()))?;
    if version != ENVELOPE_VERSION && version != BINARY_ENVELOPE_VERSION {
        return Err(EnvelopeError::UnsupportedVersion {
            found: version,
            supported: BINARY_ENVELOPE_VERSION,
        });
    }
    let mut header = Header {
        version,
        kind: None,
        len: None,
        crc: None,
    };
    for field in fields {
        match field.split_once('=') {
            Some(("kind", v)) => header.kind = Some(v),
            Some(("len", v)) => {
                header.len = Some(
                    v.parse::<usize>()
                        .map_err(|_| EnvelopeError::HeaderMalformed(format!("bad len {v:?}")))?,
                );
            }
            Some(("crc", v)) => {
                header.crc = Some(
                    u64::from_str_radix(v, 16)
                        .map_err(|_| EnvelopeError::HeaderMalformed(format!("bad crc {v:?}")))?,
                );
            }
            _ => {
                return Err(EnvelopeError::HeaderMalformed(format!(
                    "unrecognised header field {field:?}"
                )))
            }
        }
    }
    Ok((header, &rest[nl + 1..]))
}

/// Reads the *kind* a checkpoint envelope declares without verifying the
/// payload — used to dispatch a file to the right loader (a serving
/// process accepts both `"model"` and `"train-state"` files). The full
/// length/checksum verification still happens in [`open`] /
/// [`open_bytes`].
pub fn kind_of<B: AsRef<[u8]> + ?Sized>(file: &B) -> Result<&str, EnvelopeError> {
    let (header, _) = parse_header(file.as_ref())?;
    header
        .kind
        .ok_or_else(|| EnvelopeError::HeaderMalformed("missing kind".into()))
}

/// Wraps a text `payload` in the versioned, checksummed v2 envelope.
pub fn seal(kind: &str, payload: &str) -> String {
    format!(
        "{}{payload}",
        header_line(ENVELOPE_VERSION, kind, payload.as_bytes())
    )
}

/// Wraps a byte `payload` in the v3 envelope: the same header line as
/// [`seal`], then the bytes.
pub fn seal_bytes(kind: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = header_line(BINARY_ENVELOPE_VERSION, kind, payload).into_bytes();
    out.extend_from_slice(payload);
    out
}

fn header_line(version: u32, kind: &str, payload: &[u8]) -> String {
    debug_assert!(
        !kind.is_empty() && kind.bytes().all(|b| b.is_ascii_graphic() && b != b'='),
        "envelope kind must be a bare token"
    );
    format!(
        "{MAGIC} v{version} kind={kind} len={} crc={:016x}\n",
        payload.len(),
        fnv1a64(payload)
    )
}

/// Verifies the envelope of `file` (v2 or v3) and returns its version and
/// payload. `expected_kind` guards against loading, say, a training-state
/// file as a model.
pub fn open_bytes<'a>(
    file: &'a [u8],
    expected_kind: &str,
) -> Result<(u32, &'a [u8]), EnvelopeError> {
    let (header, payload) = parse_header(file)?;
    let found = header
        .kind
        .ok_or_else(|| EnvelopeError::HeaderMalformed("missing kind".into()))?;
    let expected_len = header
        .len
        .ok_or_else(|| EnvelopeError::HeaderMalformed("missing len".into()))?;
    let expected_crc = header
        .crc
        .ok_or_else(|| EnvelopeError::HeaderMalformed("missing crc".into()))?;
    if found != expected_kind {
        return Err(EnvelopeError::WrongKind {
            expected: expected_kind.to_owned(),
            found: found.to_owned(),
        });
    }
    if payload.len() != expected_len {
        return Err(EnvelopeError::Truncated { expected: expected_len, actual: payload.len() });
    }
    let actual_crc = fnv1a64(payload);
    if actual_crc != expected_crc {
        return Err(EnvelopeError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    Ok((header.version, payload))
}

/// Verifies the v2 envelope of `file` and returns the text payload.
/// `expected_kind` guards against loading, say, a training-state file as
/// a model.
pub fn open<'a, B: AsRef<[u8]> + ?Sized>(
    file: &'a B,
    expected_kind: &str,
) -> Result<&'a str, EnvelopeError> {
    let text_only = |found| EnvelopeError::UnsupportedVersion {
        found,
        supported: ENVELOPE_VERSION,
    };
    let (version, payload) = open_bytes(file.as_ref(), expected_kind).map_err(|e| match e {
        EnvelopeError::UnsupportedVersion { found, .. } => text_only(found),
        e => e,
    })?;
    if version != ENVELOPE_VERSION {
        return Err(text_only(version));
    }
    std::str::from_utf8(payload)
        .map_err(|_| EnvelopeError::HeaderMalformed("v2 payload is not UTF-8 text".into()))
}

/// How a scripted fault manifests inside [`atomic_write_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// I/O error before the temp file is created; nothing touches disk.
    ErrorBeforeWrite,
    /// Simulated power loss mid-write: only the first `n` bytes reach the
    /// temp file, the rename never happens, the partial temp file is left
    /// behind (as a real crash would).
    TornWrite(usize),
    /// Simulated crash after a complete, synced temp write but before the
    /// rename makes it visible.
    CrashBeforeRename,
}

/// Scripts faults into the Nth write of a run. Uses interior mutability so
/// a shared `&FaultInjector` can be threaded through otherwise-immutable
/// call chains (e.g. a training loop saving state every epoch).
#[derive(Debug, Default)]
pub struct FaultInjector {
    writes: Cell<usize>,
    faults: Vec<(usize, FaultMode)>,
    reads: Cell<usize>,
    read_faults: Vec<usize>,
}

impl FaultInjector {
    /// An injector that never fires — [`atomic_write`] uses this.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fail the `n`th write (0-based) with `mode`; all others succeed.
    pub fn fail_nth_write(n: usize, mode: FaultMode) -> Self {
        FaultInjector { writes: Cell::new(0), faults: vec![(n, mode)], ..Default::default() }
    }

    /// Adds another scripted fault.
    pub fn and_fail(mut self, n: usize, mode: FaultMode) -> Self {
        self.faults.push((n, mode));
        self
    }

    /// Fail the `n`th read (0-based) through [`read_with`] with a
    /// transient I/O error; all others succeed.
    pub fn fail_nth_read(n: usize) -> Self {
        FaultInjector { read_faults: vec![n], ..Default::default() }
    }

    /// Fail the first `n` reads — models a transient outage that a bounded
    /// retry should ride out.
    pub fn fail_first_reads(n: usize) -> Self {
        FaultInjector { read_faults: (0..n).collect(), ..Default::default() }
    }

    /// Adds another scripted read fault.
    pub fn and_fail_read(mut self, n: usize) -> Self {
        self.read_faults.push(n);
        self
    }

    /// Number of atomic writes attempted through this injector so far.
    pub fn writes_attempted(&self) -> usize {
        self.writes.get()
    }

    /// Number of reads attempted through this injector so far.
    pub fn reads_attempted(&self) -> usize {
        self.reads.get()
    }

    fn next_fault(&self) -> Option<FaultMode> {
        let idx = self.writes.get();
        self.writes.set(idx + 1);
        self.faults.iter().find(|(n, _)| *n == idx).map(|(_, m)| *m)
    }

    /// Consumes the next scripted write fault, if any. Lets alternative
    /// durable-write paths — the WAL's [`crate::wal`] append, which is
    /// deliberately *not* an atomic replace — share one injector script
    /// with [`atomic_write_with`]. Each call advances the write counter
    /// exactly like an atomic write would.
    pub fn take_write_fault(&self) -> Option<FaultMode> {
        self.next_fault()
    }

    fn next_read_fails(&self) -> bool {
        let idx = self.reads.get();
        self.reads.set(idx + 1);
        self.read_faults.contains(&idx)
    }
}

fn injected(msg: &str) -> io::Error {
    io::Error::other(format!("injected fault: {msg}"))
}

/// `std::fs::read` with scripted transient faults — the read path retry
/// logic is tested against this. Injected failures use
/// [`std::io::ErrorKind::Interrupted`], which retry predicates treat as
/// transient.
pub fn read_with(path: impl AsRef<Path>, faults: &FaultInjector) -> io::Result<Vec<u8>> {
    if faults.next_read_fails() {
        return Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "injected fault: transient read error",
        ));
    }
    fs::read(path)
}

/// Atomically replaces the file at `path` with `bytes`: temp file in the
/// same directory, `fsync`, `rename`, directory `fsync`. A crash at any
/// point leaves either the old file or the new file, never a mixture.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, bytes, &FaultInjector::none())
}

/// [`atomic_write`] with scripted faults — the write path used by tests
/// that simulate crashes. Production callers pass [`FaultInjector::none`].
pub fn atomic_write_with(
    path: impl AsRef<Path>,
    bytes: &[u8],
    faults: &FaultInjector,
) -> io::Result<()> {
    let path = path.as_ref();
    let fault = faults.next_fault();
    if fault == Some(FaultMode::ErrorBeforeWrite) {
        return Err(injected("I/O error before write"));
    }
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(".{file_name}.tmp"));
    {
        let mut f = fs::File::create(&tmp)?;
        match fault {
            Some(FaultMode::TornWrite(keep)) => {
                f.write_all(&bytes[..keep.min(bytes.len())])?;
                f.sync_all().ok();
                return Err(injected("torn write (crash mid-write)"));
            }
            _ => f.write_all(bytes)?,
        }
        f.sync_all()?;
    }
    if fault == Some(FaultMode::CrashBeforeRename) {
        return Err(injected("crash before rename"));
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync is best-effort: some
    // filesystems refuse to open directories for writing.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            d.sync_all().ok();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hisres_fsio_{tag}_{}", std::process::id()))
    }

    #[test]
    fn seal_open_round_trips() {
        let sealed = seal("model", r#"{"a":1}"#);
        assert_eq!(open(&sealed, "model").unwrap(), r#"{"a":1}"#);
    }

    #[test]
    fn open_rejects_foreign_text_and_wrong_kind() {
        assert_eq!(open("{\"json\": true}", "model"), Err(EnvelopeError::NotACheckpoint));
        let sealed = seal("train-state", "x");
        assert!(matches!(
            open(&sealed, "model"),
            Err(EnvelopeError::WrongKind { .. })
        ));
    }

    #[test]
    fn open_rejects_unsupported_version() {
        let sealed = seal("model", "payload").replace(" v2 ", " v99 ");
        assert_eq!(
            open(&sealed, "model"),
            Err(EnvelopeError::UnsupportedVersion { found: 99, supported: ENVELOPE_VERSION })
        );
        // a v3 file is not a text checkpoint
        let v3 = seal_bytes("model", b"payload");
        assert_eq!(
            open(std::str::from_utf8(&v3).unwrap(), "model"),
            Err(EnvelopeError::UnsupportedVersion {
                found: 3,
                supported: ENVELOPE_VERSION
            })
        );
    }

    #[test]
    fn byte_envelope_round_trips_and_reads_both_versions() {
        let payload = [0u8, 10, 255, 7, b'\n', 0];
        let sealed = seal_bytes("model", &payload);
        assert!(sealed.starts_with(b"HISRESCKPT v3 kind=model len=6 crc="));
        assert_eq!(kind_of(&sealed).unwrap(), "model");
        assert_eq!(open_bytes(&sealed, "model").unwrap(), (3, &payload[..]));
        let text = seal("model", "{}");
        assert_eq!(
            open_bytes(text.as_bytes(), "model").unwrap(),
            (2, &b"{}"[..])
        );
        let mut flipped = sealed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            open_bytes(&flipped, "model"),
            Err(EnvelopeError::ChecksumMismatch { .. })
        ));
        assert_eq!(
            open_bytes(&sealed[..sealed.len() - 1], "model"),
            Err(EnvelopeError::Truncated {
                expected: 6,
                actual: 5
            })
        );
    }

    #[test]
    fn open_detects_truncation() {
        let sealed = seal("model", "0123456789");
        let cut = &sealed[..sealed.len() - 4];
        assert_eq!(
            open(cut, "model"),
            Err(EnvelopeError::Truncated { expected: 10, actual: 6 })
        );
    }

    #[test]
    fn open_detects_bit_flip() {
        let sealed = seal("model", "0123456789");
        let flipped = sealed.replace('5', "6");
        assert!(matches!(
            open(&flipped, "model"),
            Err(EnvelopeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn fnv1a64_known_answers() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn atomic_write_replaces_content() {
        let p = tmp_path("replace");
        atomic_write(&p, b"first").unwrap();
        atomic_write(&p, b"second").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"second");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn torn_write_preserves_previous_file() {
        let p = tmp_path("torn");
        atomic_write(&p, b"previous checkpoint").unwrap();
        let inj = FaultInjector::fail_nth_write(0, FaultMode::TornWrite(3));
        let err = atomic_write_with(&p, b"new checkpoint", &inj).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // old content intact; the torn temp file holds only the prefix
        assert_eq!(fs::read(&p).unwrap(), b"previous checkpoint");
        let tmp = p.with_file_name(format!(
            ".{}.tmp",
            p.file_name().unwrap().to_str().unwrap()
        ));
        assert_eq!(fs::read(&tmp).unwrap(), b"new");
        fs::remove_file(&p).ok();
        fs::remove_file(&tmp).ok();
    }

    #[test]
    fn crash_before_rename_preserves_previous_file() {
        let p = tmp_path("crash");
        atomic_write(&p, b"old").unwrap();
        let inj = FaultInjector::fail_nth_write(0, FaultMode::CrashBeforeRename);
        assert!(atomic_write_with(&p, b"new", &inj).is_err());
        assert_eq!(fs::read(&p).unwrap(), b"old");
        fs::remove_file(&p).ok();
        fs::remove_file(p.with_file_name(format!(
            ".{}.tmp",
            p.file_name().unwrap().to_str().unwrap()
        )))
        .ok();
    }

    #[test]
    fn kind_of_reads_header_without_payload_check() {
        let sealed = seal("train-state", "payload");
        assert_eq!(kind_of(&sealed).unwrap(), "train-state");
        // truncated payload: kind_of still answers, open still rejects
        let cut = &sealed[..sealed.len() - 2];
        assert_eq!(kind_of(cut).unwrap(), "train-state");
        assert!(open(cut, "train-state").is_err());
        assert_eq!(kind_of("not a checkpoint"), Err(EnvelopeError::NotACheckpoint));
        let v99 = sealed.replace(" v2 ", " v99 ");
        assert!(matches!(kind_of(&v99), Err(EnvelopeError::UnsupportedVersion { .. })));
    }

    #[test]
    fn read_faults_fire_on_scripted_reads_only() {
        let p = tmp_path("readfault");
        atomic_write(&p, b"content").unwrap();
        let inj = FaultInjector::fail_first_reads(2);
        assert!(read_with(&p, &inj).is_err());
        assert!(read_with(&p, &inj).is_err());
        assert_eq!(read_with(&p, &inj).unwrap(), b"content");
        assert_eq!(inj.reads_attempted(), 3);
        fs::remove_file(&p).ok();
    }

    #[test]
    fn injected_read_errors_are_transient_kind() {
        let inj = FaultInjector::fail_nth_read(0);
        let err = read_with("/nonexistent", &inj).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    }

    #[test]
    fn injector_fires_only_on_scripted_write() {
        let p = tmp_path("nth");
        let inj = FaultInjector::fail_nth_write(1, FaultMode::ErrorBeforeWrite);
        atomic_write_with(&p, b"one", &inj).unwrap();
        assert!(atomic_write_with(&p, b"two", &inj).is_err());
        atomic_write_with(&p, b"three", &inj).unwrap();
        assert_eq!(inj.writes_attempted(), 3);
        assert_eq!(fs::read(&p).unwrap(), b"three");
        fs::remove_file(&p).ok();
    }
}
