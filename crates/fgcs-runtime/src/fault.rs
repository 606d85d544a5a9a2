//! Deterministic fault injection for robustness campaigns.
//!
//! A [`FaultPlan`] describes *how often* each fault class fires; a
//! [`FaultInjector`] answers, for any `(stream, index)` coordinate, *whether*
//! a fault is active there. Every decision is a pure function of
//! `(plan.seed, stream, index, fault class)` — no internal state, no call
//! ordering — so:
//!
//! * the same plan reproduces the same fault schedule bit for bit, on any
//!   platform, regardless of how consumers interleave their queries;
//! * a plan with every rate at zero is indistinguishable from no injector
//!   at all (the zero-rate fast path never draws a random number and never
//!   touches a metric), which is what lets the chaos suite assert that the
//!   faulted pipeline degenerates to the unfaulted one bit-identically.
//!
//! The fault taxonomy mirrors what real fine-grained cycle-sharing monitors
//! produce: garbage measurements under contention (NaN / ±inf /
//! out-of-range values), lost and duplicated samples, stuck-at readings,
//! multi-step monitor outages, and whole-node blackouts during cluster
//! sweeps. Injection sites report through `runtime.fault.*` counters, one
//! per class, so a campaign can be audited from the metrics snapshot alone.

use crate::impl_json_struct;
use crate::rng::splitmix64;

/// How a single measured *value* is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueFault {
    /// The reading is NaN (a failed parse or a division by zero in the
    /// monitor).
    Nan,
    /// The reading overflowed to `+inf`.
    PosInf,
    /// The reading underflowed to `-inf`.
    NegInf,
    /// The reading is finite but outside its physical range (a load above
    /// 100 % or a negative free-memory figure).
    OutOfRange,
}

/// Rates and shapes of every injectable fault class.
///
/// All `*_rate` fields are per-event probabilities in `[0, 1]` (per
/// sample, tick, WAL record or snapshot); `*_len` fields are run lengths
/// in samples. [`FaultPlan::none`] injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Probability that a sample's value is replaced by NaN.
    pub nan_rate: f64,
    /// Probability that a sample's value is replaced by ±inf.
    pub inf_rate: f64,
    /// Probability that a sample's value goes out of physical range.
    pub out_of_range_rate: f64,
    /// Probability that a sample is lost entirely.
    pub drop_rate: f64,
    /// Probability that a sample is replaced by a duplicate of the
    /// previous reading.
    pub duplicate_rate: f64,
    /// Probability that a stuck-at run *starts* at a sample.
    pub stuck_rate: f64,
    /// Length of a stuck-at run in samples.
    pub stuck_len: u64,
    /// Probability that a monitor outage *starts* at a sample.
    pub outage_rate: f64,
    /// Length of a monitor outage in samples.
    pub outage_len: u64,
    /// Probability that a node blackout *starts* at a tick (the node
    /// becomes unreachable for queries and placements).
    pub blackout_rate: f64,
    /// Length of a blackout in ticks.
    pub blackout_len: u64,
    /// Probability that a WAL append is torn mid-frame (a crash between
    /// `write` and completion persists only a prefix of the frame).
    pub wal_torn_write_rate: f64,
    /// Probability that one bit of a WAL frame is flipped on its way to
    /// disk (silent media corruption; caught by the frame CRC).
    pub wal_bit_flip_rate: f64,
    /// Probability that a snapshot file is missing at recovery (crash
    /// before the tmp-file rename, or snapshot media loss).
    pub wal_snapshot_loss_rate: f64,
}

impl_json_struct!(FaultPlan {
    seed,
    nan_rate,
    inf_rate,
    out_of_range_rate,
    drop_rate,
    duplicate_rate,
    stuck_rate,
    stuck_len,
    outage_rate,
    outage_len,
    blackout_rate,
    blackout_len,
    wal_torn_write_rate,
    wal_bit_flip_rate,
    wal_snapshot_loss_rate,
});

impl FaultPlan {
    /// A plan that injects nothing (all rates zero). A pipeline driven by
    /// this plan is bit-identical to one with no injector at all.
    #[must_use]
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            nan_rate: 0.0,
            inf_rate: 0.0,
            out_of_range_rate: 0.0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            stuck_rate: 0.0,
            stuck_len: 0,
            outage_rate: 0.0,
            outage_len: 0,
            blackout_rate: 0.0,
            blackout_len: 0,
            wal_torn_write_rate: 0.0,
            wal_bit_flip_rate: 0.0,
            wal_snapshot_loss_rate: 0.0,
        }
    }

    /// A campaign plan with every fault class enabled at rates that corrupt
    /// a few percent of the stream — aggressive enough to exercise every
    /// degradation path, mild enough that the pipeline still has signal.
    #[must_use]
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            nan_rate: 0.01,
            inf_rate: 0.005,
            out_of_range_rate: 0.01,
            drop_rate: 0.01,
            duplicate_rate: 0.01,
            stuck_rate: 0.002,
            stuck_len: 20,
            outage_rate: 0.001,
            outage_len: 40,
            blackout_rate: 0.0005,
            blackout_len: 200,
            wal_torn_write_rate: 0.02,
            wal_bit_flip_rate: 0.01,
            wal_snapshot_loss_rate: 0.1,
        }
    }

    /// Whether every rate is zero (the plan can never fire).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.nan_rate == 0.0
            && self.inf_rate == 0.0
            && self.out_of_range_rate == 0.0
            && self.drop_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.stuck_rate == 0.0
            && self.outage_rate == 0.0
            && self.blackout_rate == 0.0
            && self.wal_torn_write_rate == 0.0
            && self.wal_bit_flip_rate == 0.0
            && self.wal_snapshot_loss_rate == 0.0
    }
}

/// Salts decorrelating the per-class decision streams.
mod salt {
    pub const NAN: u64 = 0x9E37_79B9_7F4A_7C15;
    pub const INF: u64 = 0xC2B2_AE3D_27D4_EB4F;
    pub const INF_SIGN: u64 = 0x1656_67B1_9E37_79F9;
    pub const OUT_OF_RANGE: u64 = 0xFF51_AFD7_ED55_8CCD;
    pub const DROP: u64 = 0xC4CE_B9FE_1A85_EC53;
    pub const DUPLICATE: u64 = 0x2545_F491_4F6C_DD1D;
    pub const STUCK: u64 = 0x9E6C_63D0_876A_3F6B;
    pub const OUTAGE: u64 = 0xD6E8_FEB8_6659_FD93;
    pub const BLACKOUT: u64 = 0xA076_1D64_95B0_63C2;
    pub const WAL_TORN: u64 = 0x4CF5_AD43_2745_937F;
    pub const WAL_TORN_FRAC: u64 = 0x6C62_272E_07BB_0142;
    pub const WAL_FLIP: u64 = 0x27D4_EB2F_1656_67C5;
    pub const WAL_FLIP_POS: u64 = 0x9E37_79B9_0000_F00D;
    pub const WAL_SNAP_LOSS: u64 = 0xCBF2_9CE4_8422_2325;
}

/// Answers fault queries for a [`FaultPlan`]. Cheap to clone (it is just
/// the plan) and safe to share across threads.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wraps a plan.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan }
    }

    /// The plan in force.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A uniform draw in `[0, 1)`, a pure function of the coordinates.
    fn roll(&self, salt: u64, stream: u64, index: u64) -> f64 {
        let mut state = self
            .plan
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
        let z = splitmix64(&mut state);
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether an event with probability `rate` fires at the coordinates.
    /// The zero-rate fast path draws nothing.
    fn fires(&self, rate: f64, salt: u64, stream: u64, index: u64) -> bool {
        rate > 0.0 && self.roll(salt, stream, index) < rate
    }

    /// Whether `index` lies inside a run of length `len` whose start fires
    /// with probability `rate`. Scans the `len` possible start positions,
    /// so membership is order-independent and needs no state.
    fn in_run(&self, rate: f64, len: u64, salt: u64, stream: u64, index: u64) -> bool {
        if rate <= 0.0 || len == 0 {
            return false;
        }
        let first = index.saturating_sub(len - 1);
        (first..=index).any(|start| self.fires(rate, salt, stream, start))
    }

    /// The value corruption active at a sample, if any. NaN beats ±inf
    /// beats out-of-range when several fire at once.
    pub fn value_fault(&self, stream: u64, index: u64) -> Option<ValueFault> {
        let fault = if self.fires(self.plan.nan_rate, salt::NAN, stream, index) {
            ValueFault::Nan
        } else if self.fires(self.plan.inf_rate, salt::INF, stream, index) {
            if self.roll(salt::INF_SIGN, stream, index) < 0.5 {
                ValueFault::PosInf
            } else {
                ValueFault::NegInf
            }
        } else if self.fires(
            self.plan.out_of_range_rate,
            salt::OUT_OF_RANGE,
            stream,
            index,
        ) {
            ValueFault::OutOfRange
        } else {
            return None;
        };
        match fault {
            ValueFault::Nan => crate::counter_add!("runtime.fault.nan_values", 1),
            ValueFault::PosInf | ValueFault::NegInf => {
                crate::counter_add!("runtime.fault.inf_values", 1);
            }
            ValueFault::OutOfRange => crate::counter_add!("runtime.fault.out_of_range_values", 1),
        }
        Some(fault)
    }

    /// Whether the sample at the coordinates is lost.
    pub fn dropped(&self, stream: u64, index: u64) -> bool {
        let hit = self.fires(self.plan.drop_rate, salt::DROP, stream, index);
        if hit {
            crate::counter_add!("runtime.fault.dropped_samples", 1);
        }
        hit
    }

    /// Whether the sample at the coordinates is replaced by a duplicate of
    /// the previous reading.
    pub fn duplicated(&self, stream: u64, index: u64) -> bool {
        let hit = self.fires(self.plan.duplicate_rate, salt::DUPLICATE, stream, index);
        if hit {
            crate::counter_add!("runtime.fault.duplicated_samples", 1);
        }
        hit
    }

    /// Whether the coordinates lie inside a stuck-at run (the monitor keeps
    /// re-reporting one stale reading).
    pub fn stuck_at(&self, stream: u64, index: u64) -> bool {
        let hit = self.in_run(
            self.plan.stuck_rate,
            self.plan.stuck_len,
            salt::STUCK,
            stream,
            index,
        );
        if hit {
            crate::counter_add!("runtime.fault.stuck_samples", 1);
        }
        hit
    }

    /// Whether the coordinates lie inside a monitor outage (no samples are
    /// produced at all).
    pub fn in_outage(&self, stream: u64, index: u64) -> bool {
        let hit = self.in_run(
            self.plan.outage_rate,
            self.plan.outage_len,
            salt::OUTAGE,
            stream,
            index,
        );
        if hit {
            crate::counter_add!("runtime.fault.outage_samples", 1);
        }
        hit
    }

    /// Whether the node owning `stream` is blacked out (unreachable for
    /// queries and placements) at the coordinates. Metric-free: callers may
    /// probe this many times per tick, so the per-tick accounting lives at
    /// the consumer (`runtime.fault.blackout_steps`).
    #[must_use]
    pub fn in_blackout(&self, stream: u64, index: u64) -> bool {
        self.in_run(
            self.plan.blackout_rate,
            self.plan.blackout_len,
            salt::BLACKOUT,
            stream,
            index,
        )
    }

    /// If the WAL append of record `index` is torn, the number of frame
    /// bytes (out of `frame_len`) that survive — a strict prefix, so
    /// the reader sees a torn tail. `None` when the append completes.
    pub fn wal_torn_write(&self, stream: u64, index: u64, frame_len: usize) -> Option<usize> {
        if !self.fires(self.plan.wal_torn_write_rate, salt::WAL_TORN, stream, index) {
            return None;
        }
        crate::counter_add!("runtime.fault.wal_torn_writes", 1);
        let frac = self.roll(salt::WAL_TORN_FRAC, stream, index);
        Some(((frame_len as f64 * frac) as usize).min(frame_len.saturating_sub(1)))
    }

    /// If record `index`'s frame is silently corrupted on its way to
    /// disk, the `(byte offset, xor mask)` of the flipped bit.
    pub fn wal_bit_flip(&self, stream: u64, index: u64, frame_len: usize) -> Option<(usize, u8)> {
        if frame_len == 0 || !self.fires(self.plan.wal_bit_flip_rate, salt::WAL_FLIP, stream, index)
        {
            return None;
        }
        crate::counter_add!("runtime.fault.wal_bit_flips", 1);
        let draw = self.roll(salt::WAL_FLIP_POS, stream, index);
        let bit = (draw * (frame_len * 8) as f64) as usize;
        let bit = bit.min(frame_len * 8 - 1);
        Some((bit / 8, 1u8 << (bit % 8)))
    }

    /// Whether snapshot `index` of the stream is missing at recovery
    /// (crash before the atomic rename, or snapshot media loss).
    pub fn wal_snapshot_lost(&self, stream: u64, index: u64) -> bool {
        let hit = self.fires(
            self.plan.wal_snapshot_loss_rate,
            salt::WAL_SNAP_LOSS,
            stream,
            index,
        );
        if hit {
            crate::counter_add!("runtime.fault.wal_snapshots_lost", 1);
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::none(42));
        assert!(inj.plan().is_zero());
        for i in 0..10_000 {
            assert_eq!(inj.value_fault(3, i), None);
            assert!(!inj.dropped(3, i));
            assert!(!inj.duplicated(3, i));
            assert!(!inj.stuck_at(3, i));
            assert!(!inj.in_outage(3, i));
            assert!(!inj.in_blackout(3, i));
            assert_eq!(inj.wal_torn_write(3, i, 64), None);
            assert_eq!(inj.wal_bit_flip(3, i, 64), None);
            assert!(!inj.wal_snapshot_lost(3, i));
        }
    }

    #[test]
    fn wal_faults_fire_within_bounds() {
        let inj = FaultInjector::new(FaultPlan::chaos(17));
        let mut torn = 0;
        let mut flips = 0;
        for i in 0..10_000u64 {
            if let Some(keep) = inj.wal_torn_write(0, i, 100) {
                assert!(keep < 100, "torn write must keep a strict prefix");
                torn += 1;
            }
            if let Some((byte, mask)) = inj.wal_bit_flip(0, i, 100) {
                assert!(byte < 100);
                assert_eq!(mask.count_ones(), 1);
                flips += 1;
            }
        }
        assert!(torn > 0, "torn writes never fired at chaos rates");
        assert!(flips > 0, "bit flips never fired at chaos rates");
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let a = FaultInjector::new(FaultPlan::chaos(7));
        let b = FaultInjector::new(FaultPlan::chaos(7));
        // Query b in reverse order: answers must match a's exactly.
        let fwd: Vec<_> = (0..5_000)
            .map(|i| (a.value_fault(1, i), a.dropped(1, i), a.in_outage(1, i)))
            .collect();
        let mut rev: Vec<_> = (0..5_000)
            .rev()
            .map(|i| (b.value_fault(1, i), b.dropped(1, i), b.in_outage(1, i)))
            .collect();
        rev.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn different_seeds_and_streams_decorrelate() {
        let a = FaultInjector::new(FaultPlan::chaos(1));
        let b = FaultInjector::new(FaultPlan::chaos(2));
        let hits = |inj: &FaultInjector, stream: u64| -> Vec<u64> {
            (0..20_000).filter(|&i| inj.dropped(stream, i)).collect()
        };
        assert_ne!(hits(&a, 0), hits(&b, 0), "seeds must decorrelate");
        assert_ne!(hits(&a, 0), hits(&a, 1), "streams must decorrelate");
    }

    #[test]
    fn rates_are_approximately_respected() {
        let inj = FaultInjector::new(FaultPlan::chaos(99));
        let n = 100_000u64;
        let drops = (0..n).filter(|&i| inj.dropped(5, i)).count() as f64 / n as f64;
        assert!(
            (drops - 0.01).abs() < 0.003,
            "drop rate {drops} far from 0.01"
        );
    }

    #[test]
    fn runs_have_the_configured_length() {
        let plan = FaultPlan {
            outage_rate: 0.001,
            outage_len: 40,
            ..FaultPlan::none(11)
        };
        let inj = FaultInjector::new(plan);
        // Find an outage start and verify the whole run is covered.
        let start = (0..100_000u64)
            .find(|&i| inj.in_outage(0, i) && (i == 0 || !inj.in_outage(0, i - 1)))
            .expect("an outage fires somewhere");
        for i in start..start + 40 {
            // Runs may merge with a later-starting run, but the first 40
            // samples are covered by construction.
            assert!(inj.in_outage(0, i), "gap inside outage at {i}");
        }
    }

    #[test]
    fn is_zero_reads_every_rate_field() {
        use crate::json::{FromJson, Json, ToJson};
        let Json::Obj(fields) = FaultPlan::none(0).to_json() else {
            panic!("a plan serialises as an object");
        };
        let rates: Vec<&str> = fields
            .iter()
            .map(|(name, _)| name.as_str())
            .filter(|name| name.ends_with("_rate"))
            .collect();
        assert!(!rates.is_empty());
        for rate in rates {
            let mut one = fields.clone();
            for (name, value) in &mut one {
                if name == rate {
                    *value = Json::F64(1.0);
                }
            }
            let plan = FaultPlan::from_json(&Json::Obj(one)).expect("parses");
            assert!(!plan.is_zero(), "is_zero ignores {rate}");
        }
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::chaos(123);
        let json = crate::json::to_string(&plan);
        let back: FaultPlan = crate::json::from_str(&json).expect("parses");
        assert_eq!(plan, back);
    }
}
