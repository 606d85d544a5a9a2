//! Crash-safe write-ahead log framing.
//!
//! A WAL file is a flat sequence of frames:
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][payload: len bytes]
//! ```
//!
//! `crc` is the IEEE CRC-32 of the length prefix *and* the payload, so a
//! bit flip anywhere in a frame — including one that leaves `len`
//! plausible — is detected. The reader ([`read_wal`]) never errors on a
//! damaged file: it returns the longest valid frame prefix and reports
//! where (and why) it stopped, which is exactly the contract a crash
//! leaves behind — a torn or half-synced tail record must be discarded,
//! not propagated as corruption of the whole log.
//!
//! [`WalWriter`] appends frames with a configurable fsync cadence
//! (`fsync_every` records; `1` means every append is durable before it
//! is acknowledged). Each append hands the whole frame, header and
//! payload, to the OS in one `write(2)` before it returns — a `kill -9`
//! loses nothing already appended; only an OS/machine crash can lose
//! the un-fsynced suffix, and recovery then still sees a clean prefix.
//! A failed `write` or `sync_data` stops the writer: the file may end in
//! a partial frame, which recovery cuts together with everything behind
//! it, so every later `append` and `sync` errors without touching the
//! file until the log is reopened ([`WalWriter::open_truncated`] cuts the
//! partial frame). The CRC runs slicing-by-8: eight input bytes per
//! table step instead of one.
//!
//! For crash-point testing the writer accepts a [`FaultInjector`]
//! (`wal.*` streams): torn writes persist only a prefix of the frame
//! and report the crash as an I/O error, bit flips corrupt one bit of
//! the frame on its way to disk. Both are pure functions of
//! `(seed, stream, record index)`, so a campaign replays bit-for-bit.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use crate::fault::FaultInjector;

/// Bytes of frame header: `len: u32` + `crc: u32`.
pub const HEADER_BYTES: usize = 8;

/// Hard cap on a single record payload (16 MiB). A `len` beyond this is
/// treated as tail corruption by the reader and rejected by the writer;
/// it bounds recovery memory against a corrupt length prefix.
pub const MAX_RECORD_BYTES: usize = 16 << 20;

/// IEEE CRC-32 slicing-by-8 tables, built at compile time. `CRC_TABLES[0]`
/// is the classic bytewise table; `CRC_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight table lookups fold eight
/// input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
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
};

/// Streaming IEEE CRC-32 (the polynomial used by zip/png/ethernet).
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh digest.
    #[must_use]
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the digest, eight bytes per step (slicing-by-8)
    /// and the remainder one byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The finished checksum.
    #[must_use]
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// The header of the frame around `payload`: length prefix, then the CRC
/// of the length prefix and the payload.
fn frame_header(payload: &[u8]) -> io::Result<[u8; HEADER_BYTES]> {
    if payload.len() > MAX_RECORD_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds MAX_RECORD_BYTES",
        ));
    }
    let len_le = (payload.len() as u32).to_le_bytes();
    let mut header = [0u8; HEADER_BYTES];
    header[..4].copy_from_slice(&len_le);
    header[4..].copy_from_slice(&frame_crc(len_le, payload).to_le_bytes());
    Ok(header)
}

/// CRC of a frame: length prefix bytes, then payload.
fn frame_crc(len_le: [u8; 4], payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&len_le);
    c.update(payload);
    c.finish()
}

/// Why [`read_wal`] stopped before the end of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailDamage {
    /// Fewer bytes remained than a header or the announced payload —
    /// the classic torn write of a crashed appender.
    Torn,
    /// A full frame was present but its checksum did not match.
    BadCrc,
    /// The length prefix was beyond [`MAX_RECORD_BYTES`] — treated as
    /// corruption rather than trusted.
    BadLength,
}

impl std::fmt::Display for TailDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TailDamage::Torn => "torn frame",
            TailDamage::BadCrc => "crc mismatch",
            TailDamage::BadLength => "implausible length",
        })
    }
}

/// Result of scanning a WAL file: the valid frame prefix plus where and
/// why the scan stopped, if it stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRead {
    /// Payloads of every valid frame, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix. Reopening a writer must truncate
    /// the file here first so a damaged tail is never followed by fresh
    /// frames.
    pub valid_bytes: u64,
    /// Damage found after the valid prefix (`None` for a clean file).
    pub damage: Option<TailDamage>,
}

/// Scans `path`, returning every valid frame and truncation metadata.
///
/// A missing file reads as an empty, undamaged log. Damage — a torn
/// frame, a checksum mismatch, an implausible length — terminates the
/// scan at the last valid frame rather than erroring: everything after
/// the first damaged byte is unrecoverable by construction (frames are
/// not self-synchronizing), and the crash-recovery contract is to keep
/// the durable prefix.
pub fn read_wal(path: &Path) -> io::Result<WalRead> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    Ok(scan_frames(&bytes))
}

/// Frame scan over an in-memory image (the testable core of [`read_wal`]).
#[must_use]
pub fn scan_frames(bytes: &[u8]) -> WalRead {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut damage = None;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < HEADER_BYTES {
            damage = Some(TailDamage::Torn);
            break;
        }
        let len_le = [rest[0], rest[1], rest[2], rest[3]];
        let len = u32::from_le_bytes(len_le) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_BYTES {
            damage = Some(TailDamage::BadLength);
            break;
        }
        if rest.len() < HEADER_BYTES + len {
            damage = Some(TailDamage::Torn);
            break;
        }
        let payload = &rest[HEADER_BYTES..HEADER_BYTES + len];
        if frame_crc(len_le, payload) != crc {
            damage = Some(TailDamage::BadCrc);
            break;
        }
        records.push(payload.to_vec());
        at += HEADER_BYTES + len;
    }
    WalRead {
        records,
        valid_bytes: at as u64,
        damage,
    }
}

/// Appends one checksummed frame — header, then `payload` — to `out`.
// lint: no-alloc
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    out.extend_from_slice(&frame_header(payload)?);
    out.extend_from_slice(payload);
    Ok(())
}

/// Writes one checksummed frame to `w` (the snapshot-file format: a
/// meta frame followed by one frame per host).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_header(payload)?)?;
    w.write_all(payload)
}

/// Appends checksummed frames to a log file with a bounded-staleness
/// fsync policy.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    /// Frames appended over this writer's lifetime plus the frames that
    /// already existed when it was opened.
    records: u64,
    /// Records covered by the last fsync.
    synced: u64,
    /// `sync` after this many un-synced appends (`1` = every append,
    /// `0` = never implicitly; callers sync explicitly).
    fsync_every: u64,
    /// The frame being appended, header and payload contiguous so it goes
    /// out in one `write`. Reused: a warm append allocates nothing.
    frame: Vec<u8>,
    /// Set by a failed `write` or `sync_data`; sticky until the log is
    /// reopened.
    failed: bool,
    /// Test-only fault wiring: `(injector, stream)` for the `wal.*`
    /// decision streams, keyed by record index.
    faults: Option<(FaultInjector, u64)>,
}

impl WalWriter {
    /// Opens (creating if absent) `path` for appending, trusting the
    /// existing contents. Use [`WalWriter::open_truncated`] after a
    /// recovery scan so a damaged tail is cut before new frames follow.
    pub fn open(path: &Path, fsync_every: u64, existing_records: u64) -> io::Result<WalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(WalWriter {
            file,
            records: existing_records,
            synced: existing_records,
            fsync_every,
            frame: Vec::new(),
            failed: false,
            faults: None,
        })
    }

    /// Opens `path` for appending after truncating it to `valid_bytes`
    /// (the valid prefix reported by [`read_wal`]); `existing_records`
    /// is that prefix's frame count.
    pub fn open_truncated(
        path: &Path,
        fsync_every: u64,
        valid_bytes: u64,
        existing_records: u64,
    ) -> io::Result<WalWriter> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        file.set_len(valid_bytes)?;
        file.sync_data()?;
        let mut w = WalWriter {
            file,
            records: existing_records,
            synced: existing_records,
            fsync_every,
            frame: Vec::new(),
            failed: false,
            faults: None,
        };
        use std::io::Seek;
        w.file.seek(io::SeekFrom::End(0))?;
        Ok(w)
    }

    /// Arms the `wal.*` fault streams on this writer (test harnesses
    /// only). `stream` keys the decision coordinates.
    #[must_use]
    pub fn with_faults(mut self, injector: FaultInjector, stream: u64) -> WalWriter {
        self.faults = Some((injector, stream));
        self
    }

    /// Frames appended so far (including pre-existing frames).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Frames covered by the last fsync.
    #[must_use]
    pub fn synced_records(&self) -> u64 {
        self.synced
    }

    /// Appends one record, returning its index. The frame is built in a
    /// reused buffer and handed to the OS in one `write`, before this
    /// returns (a process kill cannot lose it); it reaches the platter at
    /// the fsync cadence. Errors without writing once a write or sync has
    /// failed.
    // lint: no-alloc
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        if self.failed {
            return Err(stopped());
        }
        self.frame.clear();
        frame_into(&mut self.frame, payload)?;
        let written = if self.faults.is_some() {
            self.append_faulty()
        } else {
            self.file.write_all(&self.frame)
        };
        written.inspect_err(|_| self.failed = true)?;
        let index = self.records;
        self.records += 1;
        if self.fsync_every > 0 && self.records - self.synced >= self.fsync_every {
            self.sync()?;
        }
        Ok(index)
    }

    /// Fault-injected write of the built frame (cold path): may tear it
    /// (persist a prefix, then report the simulated crash) or flip one bit
    /// on its way to disk.
    fn append_faulty(&mut self) -> io::Result<()> {
        let (inj, stream) = self.faults.as_ref().expect("faults armed");
        let index = self.records;
        let frame = &mut self.frame;
        if let Some((byte, mask)) = inj.wal_bit_flip(*stream, index, frame.len()) {
            frame[byte] ^= mask;
        }
        if let Some(keep) = inj.wal_torn_write(*stream, index, frame.len()) {
            self.file.write_all(&frame[..keep])?;
            self.file.sync_data().ok();
            return Err(io::Error::other("injected torn write (simulated crash)"));
        }
        self.file.write_all(frame)
    }

    /// Flushes appended frames to stable storage. Errors without syncing
    /// once a write or sync has failed.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.failed {
            return Err(stopped());
        }
        self.file.sync_data().inspect_err(|_| self.failed = true)?;
        self.synced = self.records;
        Ok(())
    }
}

/// The error of a writer stopped by an earlier failed write or sync.
#[cold]
fn stopped() -> io::Error {
    io::Error::other("WAL writer stopped by an earlier failed write or sync; reopen the log")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fgcs-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Byte-at-a-time IEEE CRC-32 straight from the polynomial, without
    /// tables: the reference the sliced tables must reproduce.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn sliced_crc32_matches_the_bitwise_reference_at_every_alignment() {
        assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
        let data: Vec<u8> = (0..80u32).map(|i| (i * 131 + 7) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                let want = reference_crc32(bytes);
                assert_eq!(crc32(bytes), want, "start {start} len {len}");
                // The same bytes fed in two and in three updates.
                for cut in 0..=len {
                    let mut c = Crc32::new();
                    c.update(&bytes[..cut]);
                    c.update(&bytes[cut..]);
                    assert_eq!(c.finish(), want, "start {start} len {len} cut {cut}");
                    let mid = cut + (len - cut) / 2;
                    let mut c = Crc32::default();
                    c.update(&bytes[..cut]);
                    c.update(&bytes[cut..mid]);
                    c.update(&bytes[mid..]);
                    assert_eq!(c.finish(), want, "start {start} len {len} cuts {cut},{mid}");
                }
            }
        }
    }

    #[test]
    fn framed_bytes_match_the_written_file() {
        let path = tmp("frame-into");
        let payloads: [&[u8]; 3] = [b"", b"x", &[b'3'; 14_400]];
        let mut w = WalWriter::open(&path, 0, 0).expect("open");
        let mut want = Vec::new();
        for p in payloads {
            w.append(p).expect("append");
            frame_into(&mut want, p).expect("frame");
        }
        drop(w);
        assert_eq!(std::fs::read(&path).expect("read"), want);
        let back = scan_frames(&want);
        assert_eq!(back.damage, None);
        assert_eq!(back.records, payloads.map(<[u8]>::to_vec));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trips_records() {
        let path = tmp("roundtrip");
        let mut w = WalWriter::open(&path, 1, 0).expect("open");
        for i in 0..100u32 {
            let payload = format!("record-{i}");
            assert_eq!(w.append(payload.as_bytes()).expect("append"), u64::from(i));
        }
        assert_eq!(w.records(), 100);
        assert_eq!(w.synced_records(), 100);
        let back = read_wal(&path).expect("read");
        assert_eq!(back.damage, None);
        assert_eq!(back.records.len(), 100);
        assert_eq!(back.records[41], b"record-41");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reads_empty() {
        let got = read_wal(&tmp("missing-never-created")).expect("read");
        assert_eq!(got.records.len(), 0);
        assert_eq!(got.valid_bytes, 0);
        assert_eq!(got.damage, None);
    }

    #[test]
    fn torn_tail_is_truncated_not_an_error() {
        let path = tmp("torn");
        let mut w = WalWriter::open(&path, 1, 0).expect("open");
        for i in 0..10u32 {
            w.append(format!("rec-{i}").as_bytes()).expect("append");
        }
        drop(w);
        // Chop 3 bytes off the tail: the last frame is torn.
        let len = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(len - 3).expect("truncate");
        drop(f);
        let back = read_wal(&path).expect("read");
        assert_eq!(back.damage, Some(TailDamage::Torn));
        assert_eq!(back.records.len(), 9);
        // Reopening truncated drops the tail; appends continue cleanly.
        let mut w =
            WalWriter::open_truncated(&path, 1, back.valid_bytes, back.records.len() as u64)
                .expect("reopen");
        assert_eq!(w.records(), 9);
        w.append(b"rec-9-again").expect("append");
        let back = read_wal(&path).expect("read");
        assert_eq!(back.damage, None);
        assert_eq!(back.records.len(), 10);
        assert_eq!(back.records[9], b"rec-9-again");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_truncates_at_the_damaged_frame() {
        let path = tmp("flip");
        let mut w = WalWriter::open(&path, 1, 0).expect("open");
        for i in 0..10u32 {
            w.append(format!("rec-{i}").as_bytes()).expect("append");
        }
        drop(w);
        let mut bytes = std::fs::read(&path).expect("read file");
        // Flip a payload bit inside frame 6 (frames are 8 + 5 bytes).
        let frame6 = 6 * (HEADER_BYTES + 5);
        bytes[frame6 + HEADER_BYTES + 2] ^= 0x10;
        let got = scan_frames(&bytes);
        assert_eq!(got.damage, Some(TailDamage::BadCrc));
        assert_eq!(got.records.len(), 6, "frames before the flip survive");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn implausible_length_is_damage() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let got = scan_frames(&bytes);
        assert_eq!(got.damage, Some(TailDamage::BadLength));
        assert_eq!(got.records.len(), 0);
        assert_eq!(got.valid_bytes, 0);
    }

    #[test]
    fn injected_torn_write_leaves_a_recoverable_prefix() {
        let plan = FaultPlan {
            // Fires on some record; the writer reports a simulated crash.
            wal_torn_write_rate: 0.05,
            ..FaultPlan::none(77)
        };
        let inj = FaultInjector::new(plan);
        let path = tmp("inj-torn");
        let mut w = WalWriter::open(&path, 1, 0)
            .expect("open")
            .with_faults(inj, 3);
        let mut appended = 0u64;
        let crash = loop {
            match w.append(format!("rec-{appended}").as_bytes()) {
                Ok(_) => appended += 1,
                Err(_) => break appended,
            }
            assert!(appended < 10_000, "torn write never fired");
        };
        drop(w);
        let back = read_wal(&path).expect("read");
        // Everything acked before the crash survives; the torn frame may
        // leave damage (unless it tore at a frame boundary of 0 bytes).
        assert_eq!(back.records.len() as u64, crash);
        for (i, rec) in back.records.iter().enumerate() {
            assert_eq!(rec, format!("rec-{i}").as_bytes());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_write_stops_the_writer_until_reopen() {
        // A failed write can leave a partial frame at the end of the file.
        // Recovery truncates there, so a frame appended behind it would be
        // acked and then lost: after the failure the file must not grow.
        let plan = FaultPlan {
            wal_torn_write_rate: 0.05,
            ..FaultPlan::none(77)
        };
        let path = tmp("stop-after-failure");
        let mut w = WalWriter::open(&path, 1, 0)
            .expect("open")
            .with_faults(FaultInjector::new(plan), 3);
        let mut acked = 0u64;
        while w.append(format!("rec-{acked}").as_bytes()).is_ok() {
            acked += 1;
            assert!(acked < 10_000, "torn write never fired");
        }
        let torn_len = std::fs::metadata(&path).expect("meta").len();
        for i in 0..3 {
            assert!(w.append(format!("late-{i}").as_bytes()).is_err());
        }
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), torn_len);
        assert!(w.sync().is_err(), "a stopped writer must not report a sync");
        assert_eq!(w.records(), acked);
        drop(w);
        let back = read_wal(&path).expect("read");
        assert_eq!(back.records.len() as u64, acked);
        for (i, rec) in back.records.iter().enumerate() {
            assert_eq!(rec, format!("rec-{i}").as_bytes());
        }
        // Reopening cuts the partial frame; appends resume behind the
        // acked records.
        let mut w = WalWriter::open_truncated(&path, 1, back.valid_bytes, acked).expect("reopen");
        w.append(b"after-reopen").expect("append");
        let back = read_wal(&path).expect("read");
        assert_eq!(back.damage, None);
        assert_eq!(back.records.len() as u64, acked + 1);
        assert_eq!(back.records[acked as usize], b"after-reopen");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_bit_flip_is_caught_by_crc() {
        let plan = FaultPlan {
            wal_bit_flip_rate: 0.05,
            ..FaultPlan::none(91)
        };
        let inj = FaultInjector::new(plan);
        let path = tmp("inj-flip");
        let mut w = WalWriter::open(&path, 1, 0)
            .expect("open")
            .with_faults(inj.clone(), 9);
        for i in 0..200u32 {
            w.append(format!("record-{i}").as_bytes()).expect("append");
        }
        drop(w);
        let first_flip = (0..200u64).find(|&i| inj.wal_bit_flip(9, i, 16).is_some());
        let back = read_wal(&path).expect("read");
        match first_flip {
            Some(i) => {
                assert_eq!(back.damage, Some(TailDamage::BadCrc));
                assert_eq!(back.records.len() as u64, i);
            }
            None => assert_eq!(back.damage, None),
        }
        std::fs::remove_file(&path).ok();
    }
}
