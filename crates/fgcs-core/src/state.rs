//! The five-state resource availability model (paper §3.3, Figure 1).

use fgcs_runtime::block;

/// One of the five availability states of a host machine.
///
/// * `S1` — light host CPU load (`L_H < Th1`): a guest process runs at
///   default priority. Also covers transient excursions above `Th2` shorter
///   than the tolerance, during which the guest is merely suspended.
/// * `S2` — heavy host CPU load (`Th1 ≤ L_H ≤ Th2`): the guest runs at the
///   lowest priority (reniced). Also covers transient excursions above `Th2`.
/// * `S3` — host CPU load steadily above `Th2`: the guest must be terminated
///   (UEC, unrecoverable for the guest).
/// * `S4` — not enough free memory for the guest's working set: memory
///   thrashing, the guest must be terminated (UEC, unrecoverable).
/// * `S5` — the machine was revoked by its owner or failed (URR,
///   unrecoverable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum State {
    /// Full resource availability for the guest process.
    S1,
    /// Availability only at the lowest guest priority.
    S2,
    /// CPU unavailability (UEC).
    S3,
    /// Memory thrashing (UEC).
    S4,
    /// Machine unavailability (URR).
    S5,
}

impl State {
    /// All five states in index order.
    pub const ALL: [State; 5] = [State::S1, State::S2, State::S3, State::S4, State::S5];

    /// The two operational states a guest can run in.
    pub const OPERATIONAL: [State; 2] = [State::S1, State::S2];

    /// The three unrecoverable failure states.
    pub const FAILURE: [State; 3] = [State::S3, State::S4, State::S5];

    /// Zero-based index (S1 → 0, …, S5 → 4).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            State::S1 => 0,
            State::S2 => 1,
            State::S3 => 2,
            State::S4 => 3,
            State::S5 => 4,
        }
    }

    /// Inverse of [`State::index`].
    ///
    /// # Panics
    /// Panics if `i >= 5`.
    #[must_use]
    pub fn from_index(i: usize) -> State {
        State::ALL[i]
    }

    /// `true` for S3, S4 and S5 — the states that kill a guest job.
    #[must_use]
    pub fn is_failure(self) -> bool {
        matches!(self, State::S3 | State::S4 | State::S5)
    }

    /// `true` for S1 and S2.
    #[must_use]
    pub fn is_operational(self) -> bool {
        !self.is_failure()
    }
}

impl std::fmt::Display for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.index() + 1)
    }
}

/// Appends one day of states as its digit text, one ASCII digit per sample
/// (`S1` → `b'1'`, …, `S5` → `b'5'`). This is the encoding of the wire's
/// `ingest` `states` field. The WAL and the snapshots store a day as run
/// text (`StateLog::write_run_text`), which writes a run shorter than 5
/// samples as these digits and a longer one as `<digit>(<count>)`.
// lint: no-alloc
pub fn encode_digits(states: &[State], out: &mut Vec<u8>) {
    out.extend(states.iter().map(|&s| digit(s)));
}

/// The digit of one state in [`encode_digits`]'s encoding.
pub(crate) fn digit(s: State) -> u8 {
    b'1' + s as u8
}

/// Decodes digit text written by [`encode_digits`]. `Err(at)` is the byte
/// offset of the first byte outside `b'1'..=b'5'`; every byte before it is
/// an ASCII digit, so `at` is a char boundary of UTF-8 input.
pub fn decode_digits(digits: &[u8]) -> Result<Vec<State>, usize> {
    validate_digits(digits)?;
    Ok(digits.iter().map(|&b| digit_state(b)).collect())
}

/// Checks that every byte is a state digit; `Err(at)` as in
/// [`decode_digits`].
pub(crate) fn validate_digits(digits: &[u8]) -> Result<(), usize> {
    match block::position(digits, |&b| !is_digit(b)) {
        Some(at) => Err(at),
        None => Ok(()),
    }
}

/// Whether `b` is a state digit, `b'1'..=b'5'`.
pub(crate) fn is_digit(b: u8) -> bool {
    b.wrapping_sub(b'1') < 5
}

/// The state of one validated digit. The match is exhaustive without a
/// panic arm, so the map compiles to a clamp rather than a bounds check.
pub(crate) fn digit_state(b: u8) -> State {
    match b.wrapping_sub(b'1') {
        0 => State::S1,
        1 => State::S2,
        2 => State::S3,
        3 => State::S4,
        _ => State::S5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_runtime::rng::{Rng, Xoshiro256};

    #[test]
    fn index_round_trips() {
        for s in State::ALL {
            assert_eq!(State::from_index(s.index()), s);
        }
    }

    #[test]
    fn failure_partition() {
        let failures: Vec<State> = State::ALL.into_iter().filter(|s| s.is_failure()).collect();
        assert_eq!(failures, State::FAILURE.to_vec());
        let oper: Vec<State> = State::ALL
            .into_iter()
            .filter(|s| s.is_operational())
            .collect();
        assert_eq!(oper, State::OPERATIONAL.to_vec());
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(State::S1.to_string(), "S1");
        assert_eq!(State::S5.to_string(), "S5");
    }

    /// The codec's contract spelled out one state at a time.
    fn reference_digits(states: &[State]) -> Vec<u8> {
        states.iter().map(|s| b"12345"[s.index()]).collect()
    }

    #[test]
    fn digit_codec_round_trips_random_days() {
        let mut rng = Xoshiro256::seed_from_u64(2006);
        let lengths = (0..=64).chain([191, 14_400]);
        for len in lengths {
            let day: Vec<State> = (0..len)
                .map(|_| State::from_index(rng.range_usize(0, 5)))
                .collect();
            let mut digits = b"prefix".to_vec();
            encode_digits(&day, &mut digits);
            assert_eq!(&digits[..6], b"prefix", "encode appends");
            assert_eq!(digits[6..], reference_digits(&day), "len {len}");
            assert_eq!(decode_digits(&digits[6..]), Ok(day), "len {len}");
        }
    }

    #[test]
    fn digit_codec_rejects_each_bad_byte_at_its_offset() {
        for len in [65usize, 200] {
            let good = vec![b'3'; len];
            for at in 0..=64 {
                for bad in ["0", "6", "a", "é", "😀"] {
                    let mut text = good.clone();
                    text.splice(at..at + 1, bad.bytes());
                    assert_eq!(decode_digits(&text), Err(at), "{bad:?} at {at} of {len}");
                }
            }
        }
        assert_eq!(decode_digits(b""), Ok(Vec::new()));
    }
}
