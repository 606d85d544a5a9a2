//! Block-wise search: the one byte-path scan behind the wire's passes over
//! an ingested day (line framing, the JSON string rule, the state-digit
//! check and the run scanner).

/// Elements [`position`] tests per step.
const BLOCK: usize = 32;

/// `items.iter().position(hit)`, a block at a time. Whole blocks without a
/// hit are skipped by a branch-free fold, which LLVM turns into vector
/// compares when `hit` is branch-free; only the block holding the first
/// hit, or the short tail after the last whole block, is walked element by
/// element.
// lint: no-alloc
pub fn position<T>(items: &[T], hit: impl Fn(&T) -> bool) -> Option<usize> {
    let mut at = 0;
    while let Some(block) = items.get(at..at + BLOCK) {
        // A max-fold, not an OR-fold: LLVM turns an OR over a predicate
        // that ORs compares (the JSON string rule's) into a mask reduction
        // that runs ~1.4x slower on a 14.4 KB string.
        if block.iter().fold(0u8, |any, x| any.max(u8::from(hit(x)))) != 0 {
            break;
        }
        at += BLOCK;
    }
    items[at..].iter().position(hit).map(|i| at + i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, ensure};

    #[test]
    fn position_matches_the_element_walk() {
        check("block_position_matches_iter", 400, |g| {
            let len = g.usize_in(0, 4 * BLOCK + 3);
            let hits = g.usize_in(0, 4);
            let mut items = vec![0u16; len];
            for _ in 0..hits.min(len) {
                let at = g.usize_in(0, len);
                items[at] = 1 + g.u32_in(0, 7) as u16;
            }
            let target = g.u32_in(1, 8) as u16;
            let want = items.iter().position(|&x| x == target);
            let got = position(&items, |&x| x == target);
            ensure(got == want, format!("len {len}: {got:?} != {want:?}"))
        });
    }

    #[test]
    fn position_finds_a_hit_at_every_block_edge() {
        for len in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5] {
            for at in 0..len {
                let mut bytes = vec![b'a'; len];
                bytes[at] = b'\n';
                assert_eq!(position(&bytes, |&b| b == b'\n'), Some(at), "{len}/{at}");
            }
            assert_eq!(position(&vec![b'a'; len], |&b| b == b'\n'), None, "{len}");
        }
    }
}
