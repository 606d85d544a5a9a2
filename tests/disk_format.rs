//! Pins the bytes a durable registry leaves in its data dir: every WAL and
//! snapshot frame, length prefix and CRC included. A data dir written by
//! an earlier build must keep recovering, so any change to the on-disk
//! format has to show up here as a changed literal.
//!
//! Frame layout (`fgcs_runtime::wal`): `[len: u32 LE][crc: u32 LE][payload]`,
//! where `crc` is the IEEE CRC-32 of the four length bytes and the payload.
//!
//! A day is stored as its run text: each run as its state digit repeated,
//! or as `<digit>(<count>)` where that is shorter (runs of 5 samples or
//! more). Earlier builds stored one digit per sample. The two fixture days
//! below have no run that long, so both generations write them alike;
//! [`RUN_DAY`] pins the counted form, and the mixed-generation test
//! recovers digit frames and run frames side by side.

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

/// A day with runs long enough to be counted, as `(day_index, digits)`:
/// 7 × S1, 5 × S5, 10 × S2, 4 × S1.
const RUN_DAY: (usize, &str) = (3, "11111115555522222222221111");

/// `shard-0.wal` after ingesting [`RUN_DAY`] alone.
fn pinned_run_wal() -> Vec<u8> {
    frame(
        53,
        0xEBCF_517A,
        r#"{"host":7,"day_index":3,"states":"1(7)5(5)2(10)1111"}"#,
    )
}

/// `shard-0.snap` after ingesting [`RUN_DAY`] alone and `snapshot_all`.
fn pinned_run_snap() -> Vec<u8> {
    [
        frame(
            65,
            0x8977_88B5,
            r#"{"schema":"fgcs-snap-v1","step_secs":6,"wal_records":1,"hosts":1}"#,
        ),
        frame(
            51,
            0xE40F_EA97,
            r#"{"host":7,"days":[{"i":3,"s":"1(7)5(5)2(10)1111"}]}"#,
        ),
    ]
    .concat()
}

#[test]
fn run_form_bytes_are_pinned() {
    let dir = TempDir::new("run-form");
    let reg = ShardedRegistry::open(durable(dir.path())).expect("open");
    let (day, digits) = RUN_DAY;
    reg.ingest_day(HOST, Some(day), states(digits))
        .expect("ingest");
    reg.snapshot_all().expect("snapshot");
    drop(reg);
    let wal = std::fs::read(dir.path().join("shard-0.wal")).expect("read wal");
    let snap = std::fs::read(dir.path().join("shard-0.snap")).expect("read snap");
    assert_eq!(wal, pinned_run_wal(), "shard-0.wal bytes moved");
    assert_eq!(snap, pinned_run_snap(), "shard-0.snap bytes moved");
}

/// A WAL frame as an earlier build wrote it: the day's digits, one per
/// sample.
fn digit_frame(day: usize, digits: &str) -> Vec<u8> {
    let payload = format!(r#"{{"host":{HOST},"day_index":{day},"states":"{digits}"}}"#);
    let mut out = Vec::new();
    fgcs::runtime::wal::frame_into(&mut out, payload.as_bytes()).expect("frame fits");
    out
}

/// Predictions over windows the fixture days and the longer days each
/// cover, as bits (or the error text).
fn mixed_fingerprint(reg: &ShardedRegistry) -> Vec<String> {
    let mut out = Vec::new();
    for window in [TimeWindow::new(0, 12), TimeWindow::new(0, 60)] {
        for init in [State::S1, State::S2] {
            out.push(match reg.predict(HOST, DayType::Weekday, window, init) {
                Ok(tr) => format!("{:016x}", tr.to_bits()),
                Err(e) => e.to_string(),
            });
        }
    }
    out
}

#[test]
fn mixed_generation_dirs_recover_bit_identically() {
    // Day 2 stored by an earlier build (digits), day 3 by this one (runs).
    let old_day = (2, "1111111111222222222211111");
    let days = [DAYS[0], DAYS[1], old_day, RUN_DAY];
    let oracle = ShardedRegistry::new(RegistryConfig {
        shards: 1,
        ..RegistryConfig::default()
    });
    for (day, digits) in days {
        oracle
            .ingest_day(HOST, Some(day), states(digits))
            .expect("ingest");
    }
    let want = mixed_fingerprint(&oracle);
    assert!(
        want.iter().all(|p| p.len() == 16),
        "every window must answer: {want:?}"
    );

    // Old digit frames, then a frame this build appends after recovering
    // them; recovered from the WAL alone.
    let dir = TempDir::new("mixed-wal");
    let old_wal = [pinned_wal(), digit_frame(old_day.0, old_day.1)].concat();
    std::fs::write(dir.path().join("shard-0.wal"), &old_wal).expect("write wal");
    let reg = ShardedRegistry::open(durable(dir.path())).expect("recover old frames");
    assert_eq!(reg.host_days(HOST), Some(3));
    reg.ingest_day(HOST, Some(RUN_DAY.0), states(RUN_DAY.1))
        .expect("ingest");
    drop(reg);
    let wal = std::fs::read(dir.path().join("shard-0.wal")).expect("read wal");
    assert_eq!(
        wal,
        [old_wal, pinned_run_wal()].concat(),
        "old frames, then the run frame"
    );
    std::fs::remove_file(dir.path().join("shard-0.snap")).expect("remove snapshot");
    let reg = ShardedRegistry::open(durable(dir.path())).expect("recover mixed wal");
    assert_eq!(reg.host_days(HOST), Some(4), "wal-only");
    assert_eq!(
        mixed_fingerprint(&reg),
        want,
        "wal-only: predictions differ"
    );
    drop(reg);

    // An old snapshot beside a WAL this build wrote.
    let dir = TempDir::new("mixed-snap");
    let writer = TempDir::new("mixed-snap-writer");
    let reg = ShardedRegistry::open(durable(writer.path())).expect("open");
    for (day, digits) in [old_day, RUN_DAY] {
        reg.ingest_day(HOST, Some(day), states(digits))
            .expect("ingest");
    }
    drop(reg);
    let new_wal = std::fs::read(writer.path().join("shard-0.wal")).expect("read wal");
    assert!(
        new_wal.ends_with(&pinned_run_wal()),
        "the WAL holds run frames"
    );
    std::fs::write(dir.path().join("shard-0.wal"), &new_wal).expect("write wal");
    std::fs::write(dir.path().join("shard-0.snap"), pinned_snap()).expect("write snap");
    let reg = ShardedRegistry::open(durable(dir.path())).expect("recover");
    assert_eq!(reg.host_days(HOST), Some(4), "snapshot beside a new wal");
    assert_eq!(
        mixed_fingerprint(&reg),
        want,
        "snapshot beside a new wal: predictions differ"
    );
}
