//! Pins the bytes a durable registry leaves in its data dir: every WAL and
//! snapshot frame, length prefix and CRC included. A data dir written by
//! an earlier build must keep recovering, so any change to the on-disk
//! format has to show up here as a changed literal.
//!
//! Frame layout (`fgcs_runtime::wal`): `[len: u32 LE][crc: u32 LE][payload]`,
//! where `crc` is the IEEE CRC-32 of the four length bytes and the payload.

use std::path::{Path, PathBuf};

use fgcs::core::registry::{RegistryConfig, ShardedRegistry};
use fgcs::core::state::State;
use fgcs::core::window::{DayType, TimeWindow};

/// The host both days belong to.
const HOST: u64 = 7;

/// Two short days, as `(day_index, digits)`.
const DAYS: [(usize, &str); 2] = [(0, "1122"), (1, "1534")];

/// One frame as it sits on disk.
fn frame(len: u32, crc: u32, payload: &str) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// `shard-0.wal` after ingesting [`DAYS`]: one frame per ingest.
fn pinned_wal() -> Vec<u8> {
    [
        frame(
            40,
            0x5802_E445,
            r#"{"host":7,"day_index":0,"states":"1122"}"#,
        ),
        frame(
            40,
            0xFEE1_EFB3,
            r#"{"host":7,"day_index":1,"states":"1534"}"#,
        ),
    ]
    .concat()
}

/// `shard-0.snap` after `snapshot_all`: a meta frame, then one frame per host.
fn pinned_snap() -> Vec<u8> {
    [
        frame(
            65,
            0xFEE9_5A45,
            r#"{"schema":"fgcs-snap-v1","step_secs":6,"wal_records":2,"hosts":1}"#,
        ),
        frame(
            57,
            0x6F3F_7A6A,
            r#"{"host":7,"days":[{"i":0,"s":"1122"},{"i":1,"s":"1534"}]}"#,
        ),
    ]
    .concat()
}

/// A unique, empty data dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("fgcs-disk-format-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create data dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable(dir: &Path) -> RegistryConfig {
    RegistryConfig {
        shards: 1,
        data_dir: Some(dir.to_path_buf()),
        fsync_every: 1,
        snapshot_every: 0,
        ..RegistryConfig::default()
    }
}

fn states(digits: &str) -> Vec<State> {
    digits
        .bytes()
        .map(|b| State::from_index(usize::from(b - b'1')))
        .collect()
}

/// Every prediction the two days support, as bits (or the error text).
fn fingerprint(reg: &ShardedRegistry) -> Vec<String> {
    let window = TimeWindow::new(0, 12);
    let mut out = Vec::new();
    for day_type in DayType::ALL {
        for init in [State::S1, State::S2] {
            out.push(match reg.predict(HOST, day_type, window, init) {
                Ok(tr) => format!("{:016x}", tr.to_bits()),
                Err(e) => e.to_string(),
            });
        }
    }
    out
}

/// The answers of a registry that ingested [`DAYS`] in memory.
fn expected_fingerprint() -> Vec<String> {
    let reg = ShardedRegistry::new(RegistryConfig {
        shards: 1,
        ..RegistryConfig::default()
    });
    for (day, digits) in DAYS {
        reg.ingest_day(HOST, Some(day), states(digits))
            .expect("ingest");
    }
    let fp = fingerprint(&reg);
    assert!(
        fp.iter().any(|p| p.len() == 16),
        "the two days must answer at least one predict: {fp:?}"
    );
    fp
}

#[test]
fn wal_and_snapshot_bytes_are_pinned() {
    let dir = TempDir::new("write");
    let reg = ShardedRegistry::open(durable(dir.path())).expect("open");
    for (day, digits) in DAYS {
        reg.ingest_day(HOST, Some(day), states(digits))
            .expect("ingest");
    }
    reg.snapshot_all().expect("snapshot");
    drop(reg);
    let wal = std::fs::read(dir.path().join("shard-0.wal")).expect("read wal");
    let snap = std::fs::read(dir.path().join("shard-0.snap")).expect("read snap");
    assert_eq!(wal, pinned_wal(), "shard-0.wal bytes moved");
    assert_eq!(snap, pinned_snap(), "shard-0.snap bytes moved");
}

#[test]
fn pinned_bytes_recover_both_days_bit_identically() {
    let want = expected_fingerprint();
    // Each file alone, then both: the WAL decoder and the snapshot decoder
    // must each recover the days on their own.
    let layouts: [(&str, bool, bool); 3] = [
        ("wal-only", true, false),
        ("snap-only", false, true),
        ("both", true, true),
    ];
    for (tag, with_wal, with_snap) in layouts {
        let dir = TempDir::new(tag);
        if with_wal {
            std::fs::write(dir.path().join("shard-0.wal"), pinned_wal()).expect("write wal");
        }
        if with_snap {
            std::fs::write(dir.path().join("shard-0.snap"), pinned_snap()).expect("write snap");
        }
        let reg = ShardedRegistry::open(durable(dir.path())).expect("recover");
        assert_eq!(reg.host_days(HOST), Some(2), "{tag}: both days recovered");
        assert_eq!(reg.stats().days, 2, "{tag}");
        assert_eq!(fingerprint(&reg), want, "{tag}: predictions differ");
    }
}
