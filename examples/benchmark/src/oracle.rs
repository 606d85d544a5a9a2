//! Off-path correctness oracle for sampled replies.
//!
//! Each sampled reply is recomputed offline from the benchmark's own
//! [`HistoryStore`] — rebuilt from the synthesizer, so it shares nothing
//! with the server's state — and must match exactly:
//!
//! * a predict's TR is bit-equal to [`SmpPredictor::predict`];
//! * a sweep reply is byte-equal to [`fgcs::serve::sweep_json`] over
//!   [`SmpPredictor::predict_tr_curve`];
//! * a batch is eight predict lines, each checked as above;
//! * the first [`PAPER_ORACLE_CHECKS`] predicts are also within 1e-9 of the
//!   paper-order recursion ([`SolverPolicy::PaperOracle`]).

use std::collections::HashMap;

use fgcs::core::log::{DayLog, HistoryStore, StateLog};
use fgcs::core::model::AvailabilityModel;
use fgcs::core::predictor::{SmpPredictor, SolverPolicy};
use fgcs::runtime::json::Json;

use crate::client::Check;
use crate::synth;
use crate::workload::{Query, Req, SWEEP_POINTS};

/// Predicts per run also checked against the paper-order oracle.
pub const PAPER_ORACLE_CHECKS: usize = 32;

/// Decodes synthesized day digits (always valid) into states.
pub fn decode_states(digits: &[u8]) -> Vec<fgcs::core::state::State> {
    std::str::from_utf8(digits)
        .ok()
        .and_then(|d| fgcs::serve::decode_states(d).ok())
        .expect("synthesized digits are 1-5")
}

/// Appends host `host`'s days from `history.len()` up to `days`.
fn grow(history: &mut HistoryStore, seed: u64, host: u32, days: u32) {
    let step = AvailabilityModel::default().monitor_period_secs;
    let mut digits = Vec::new();
    for day in history.len() as u32..days {
        digits.clear();
        synth::write_day(seed, u64::from(host), u64::from(day), &mut digits);
        history.push_day(DayLog::new(
            day as usize,
            StateLog::new(step, decode_states(&digits)),
        ));
    }
}

/// Checks every sampled reply; returns how many are wrong, with a
/// description of the first.
pub fn verify(seed: u64, checks: &mut [Check]) -> (u64, Option<String>) {
    let fast = SmpPredictor::new(AvailabilityModel::default());
    let paper = fast.with_solver_policy(SolverPolicy::PaperOracle);
    // Grow one host's history at a time, oldest state first.
    checks.sort_by_key(|c| (c.req.host(), c.req.history_days()));
    let mut memo: HashMap<(u32, u32, Query), f64> = HashMap::new();
    let mut history = HistoryStore::new();
    let mut host = None;
    let mut paper_left = PAPER_ORACLE_CHECKS;
    let mut wrong = 0u64;
    let mut first = None;
    for check in checks.iter() {
        let h = check.req.host();
        if host != Some(h) {
            history = HistoryStore::new();
            host = Some(h);
        }
        let days = check.req.history_days();
        assert!(
            history.len() as u32 <= days,
            "checks sorted by history length"
        );
        grow(&mut history, seed, h, days);
        let mut predict = |q: Query| -> Result<f64, String> {
            if let Some(&tr) = memo.get(&(h, days, q)) {
                return Ok(tr);
            }
            let tr = fast
                .predict(&history, q.day_type(), q.window(), q.init())
                .map_err(|e| e.to_string())?;
            if paper_left > 0 {
                paper_left -= 1;
                let exact = paper
                    .predict(&history, q.day_type(), q.window(), q.init())
                    .map_err(|e| e.to_string())?;
                if (exact - tr).abs() > 1e-9 {
                    return Err(format!("fast TR {tr} vs paper-order {exact}"));
                }
            }
            memo.insert((h, days, q), tr);
            Ok(tr)
        };
        let verdict = match check.req {
            Req::Predict { q, .. } => check_predict(&check.reply, predict(q)),
            Req::Batch { .. } => {
                let lines: Vec<&str> = check.reply.split('\n').collect();
                if lines.len() == 8 {
                    lines.iter().enumerate().try_for_each(|(i, line)| {
                        check_predict(line, predict(Query::grid(i / 2, i % 2 == 1)))
                    })
                } else {
                    Err(format!("batch answered {} lines, want 8", lines.len()))
                }
            }
            Req::Sweep { q, .. } => fast
                .predict_tr_curve(&history, q.day_type(), q.window())
                .map_err(|e| e.to_string())
                .and_then(|curve| {
                    fgcs::serve::sweep_json(
                        &curve,
                        q.day_type(),
                        q.window(),
                        q.init(),
                        SWEEP_POINTS,
                    )
                })
                .and_then(|want| {
                    if want.to_string() == check.reply {
                        Ok(())
                    } else {
                        Err(format!("sweep reply differs from sweep_json: {want}"))
                    }
                }),
            // Acks are checked in full as they arrive.
            Req::Ingest { .. } => Ok(()),
        };
        if let Err(e) = verdict {
            wrong += 1;
            first.get_or_insert_with(|| format!("{:?} -> {}: {e}", check.req, check.reply));
        }
    }
    (wrong, first)
}

fn check_predict(line: &str, want: Result<f64, String>) -> Result<(), String> {
    let want = want?;
    let reply = Json::parse(line).map_err(|e| e.to_string())?;
    if reply.field("ok").ok() != Some(&Json::Bool(true)) {
        return Err("not ok".into());
    }
    let tr = reply
        .field("tr")
        .ok()
        .and_then(Json::as_f64)
        .ok_or("no tr field")?;
    if tr.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("tr {tr} differs from SmpPredictor::predict {want}"))
    }
}
