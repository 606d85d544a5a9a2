//! Bounded line framing for untrusted byte streams.
//!
//! [`read_bounded_line`] is the one line reader behind the serve
//! transports: it cuts `\n`-terminated lines out of any [`BufRead`] while
//! never holding more than `max + 1` bytes of one line, and drains a
//! longer line without keeping it. A day's `ingest` request is one line
//! of about 14.4 KB, so the newline search is the first pass over every
//! byte the server reads. It runs a block of bytes per step
//! ([`block::position`]) and walks byte by byte only through the block
//! that holds the newline.

use std::io::{self, BufRead};

use crate::block;

/// Outcome of one [`read_bounded_line`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRead {
    /// The stream ended before any byte of a new line.
    Eof,
    /// The buffer holds one complete line (newline stripped), at most
    /// `max` bytes long. A final line without a newline counts too.
    Line,
    /// The line exceeded `max` bytes; it has been drained (in buffered
    /// chunks, never materialized) up to and including its newline.
    TooLarge,
}

/// Index of the first `\n` in `bytes`, searched a block at a time.
// lint: no-alloc
fn find_newline(bytes: &[u8]) -> Option<usize> {
    block::position(bytes, |&b| b == b'\n')
}

/// Reads one `\n`-terminated line into `buf`, never retaining more than
/// `max + 1` bytes: the bounded-memory replacement for
/// [`BufRead::read_line`] on untrusted transports. Oversized lines are
/// consumed to their end via [`BufRead::fill_buf`]/`consume` so the
/// stream can keep serving after the error reply. `buf` is cleared first
/// and keeps its capacity, so a warm reader allocates nothing.
///
/// # Errors
/// Any error of the underlying reader.
pub fn read_bounded_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> io::Result<LineRead> {
    buf.clear();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF: an unterminated final line still counts as a line.
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        // Accept at most one byte past `max`: enough to distinguish "fits
        // exactly" from "too long" without buffering the excess.
        let room = (max - buf.len()).saturating_add(1);
        let window = &chunk[..chunk.len().min(room)];
        if let Some(i) = find_newline(window) {
            // Content length `buf.len() + i` ≤ `max` by the room bound.
            buf.extend_from_slice(&window[..i]);
            reader.consume(i + 1);
            return Ok(LineRead::Line);
        }
        let take_n = window.len();
        buf.extend_from_slice(window);
        reader.consume(take_n);
        if buf.len() > max {
            break;
        }
    }
    // Oversized: drain to the newline (or EOF) without growing `buf`.
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        match find_newline(chunk) {
            Some(i) => {
                reader.consume(i + 1);
                break;
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
    Ok(LineRead::TooLarge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, ensure, Gen};
    use std::io::{BufReader, Read};

    /// An in-memory source whose reads return the next size of a script
    /// (cycled), or fewer bytes at the end of the data: the short reads a
    /// socket makes.
    struct ShortReads<'a> {
        data: &'a [u8],
        sizes: Vec<usize>,
        next: usize,
    }

    impl Read for ShortReads<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.next % self.sizes.len()];
            self.next += 1;
            let n = size.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// One framing decision: a line's bytes, or an oversized line.
    #[derive(Debug, PartialEq, Eq)]
    enum Framed {
        Line(Vec<u8>),
        TooLarge,
    }

    /// What a correct bounded reader returns for `data`: the pieces of
    /// `split(b'\n')`, each longer than `max` bytes as [`Framed::TooLarge`];
    /// the empty piece after a final newline (or of empty data) is EOF,
    /// not a line.
    fn reference(data: &[u8], max: usize) -> Vec<Framed> {
        let mut pieces: Vec<&[u8]> = data.split(|&b| b == b'\n').collect();
        if pieces.last().is_some_and(|p| p.is_empty()) {
            pieces.pop();
        }
        pieces
            .into_iter()
            .map(|p| {
                if p.len() > max {
                    Framed::TooLarge
                } else {
                    Framed::Line(p.to_vec())
                }
            })
            .collect()
    }

    /// Frames all of `data` with [`read_bounded_line`] through a
    /// `capacity`-byte [`BufReader`] over [`ShortReads`] of `sizes`,
    /// checking the read buffer never holds more than `max + 1` bytes.
    fn frame(data: &[u8], capacity: usize, sizes: &[usize], max: usize) -> Vec<Framed> {
        let source = ShortReads {
            data,
            sizes: sizes.to_vec(),
            next: 0,
        };
        let mut reader = BufReader::with_capacity(capacity, source);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            let read = read_bounded_line(&mut reader, &mut buf, max).expect("in-memory read");
            assert!(
                buf.len() <= max.saturating_add(1),
                "buffered {} > max + 1",
                buf.len()
            );
            match read {
                LineRead::Eof => break,
                LineRead::Line => out.push(Framed::Line(buf.clone())),
                LineRead::TooLarge => out.push(Framed::TooLarge),
            }
        }
        // EOF is sticky.
        let again = read_bounded_line(&mut reader, &mut buf, max).expect("in-memory read");
        assert_eq!(again, LineRead::Eof);
        out
    }

    /// Line lengths around the block edges, plus arbitrary ones.
    fn line_len(g: &mut Gen) -> usize {
        if g.bool_with(0.6) {
            *g.pick(&[0, 1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128])
        } else {
            g.usize_in(0, 300)
        }
    }

    /// A line of `len` bytes with no `\n`; sometimes ending in `\r`.
    fn line_bytes(g: &mut Gen, len: usize) -> Vec<u8> {
        const BYTES: &[u8] = b"ab{}\":,01259\r\t \x00\xff";
        let mut line: Vec<u8> = (0..len).map(|_| *g.pick(BYTES)).collect();
        if len > 0 && g.bool_with(0.2) {
            line[len - 1] = b'\r';
        }
        line
    }

    #[test]
    fn random_streams_and_short_reads_frame_like_split() {
        check("line_framing_matches_split", 600, |g| {
            let lines = g.usize_in(0, 8);
            let mut data = Vec::new();
            for _ in 0..lines {
                let len = line_len(g);
                data.extend(line_bytes(g, len));
                data.push(b'\n');
            }
            if g.bool_with(0.3) {
                // A last line without a newline.
                let len = line_len(g).max(1);
                data.extend(line_bytes(g, len));
            }
            let max = *g.pick(&[0, 1, 31, 32, 33, 64, 100, 1 << 20]);
            let capacity = g.usize_in(1, 100);
            let reads = g.usize_in(1, 6);
            let sizes = g.vec_of(reads, |g| {
                if g.bool_with(0.5) {
                    *g.pick(&[1, 31, 32, 33, 63, 64, 65])
                } else {
                    g.usize_in(1, 130)
                }
            });
            let got = frame(&data, capacity, &sizes, max);
            let want = reference(&data, max);
            ensure(
                got == want,
                format!(
                    "max {max}, capacity {capacity}, reads {sizes:?}, data {:?}:\n got {got:?}\nwant {want:?}",
                    String::from_utf8_lossy(&data)
                ),
            )
        });
    }

    #[test]
    fn newline_at_block_edges_of_a_line_and_of_a_refill() {
        for offset in [0usize, 1, 31, 32, 33, 63, 64, 65] {
            for prefix in [0usize, 5, 32, 64] {
                // The first read ends `prefix` bytes into the line, so the
                // refill's newline sits `offset` bytes into its chunk.
                let mut data = vec![b'x'; prefix + offset];
                data.push(b'\n');
                data.extend_from_slice(b"next\n");
                let sizes = [prefix.max(1), offset + 1 + 5];
                let sizes = if prefix == 0 { &sizes[1..] } else { &sizes[..] };
                let len = prefix + offset;
                for max in [len, len + 1, len.saturating_sub(1)] {
                    let got = frame(&data, 256, sizes, max);
                    assert_eq!(
                        got,
                        reference(&data, max),
                        "prefix {prefix}, offset {offset}, max {max}"
                    );
                }
            }
        }
    }

    #[test]
    fn lines_of_max_and_max_plus_one_bytes_across_refills() {
        let max = 100;
        for (len, fits) in [(max, true), (max + 1, false)] {
            let mut data = vec![b'y'; len];
            data.push(b'\n');
            data.extend_from_slice(b"ok\n");
            for capacity in [1, 7, 32, 33, 64, 99, 100, 101, 102, 256] {
                let got = frame(&data, capacity, &[13, 64, 1], max);
                let first = if fits {
                    Framed::Line(vec![b'y'; len])
                } else {
                    Framed::TooLarge
                };
                assert_eq!(
                    got,
                    vec![first, Framed::Line(b"ok".to_vec())],
                    "len {len}, capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn empty_lines_crlf_unterminated_tail_and_recovery_after_oversize() {
        let data = b"\n\r\nab\r\n\nxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\nvalid\ntail";
        let got = frame(data, 8, &[3, 40, 2], 16);
        assert_eq!(
            got,
            vec![
                Framed::Line(Vec::new()),
                Framed::Line(b"\r".to_vec()),
                Framed::Line(b"ab\r".to_vec()),
                Framed::Line(Vec::new()),
                Framed::TooLarge,
                Framed::Line(b"valid".to_vec()),
                Framed::Line(b"tail".to_vec()),
            ]
        );
        assert_eq!(frame(b"", 8, &[1], 16), Vec::new());
        // No bound at all: `max + 1` must not wrap to a zero-byte window.
        assert_eq!(
            frame(b"ab\nc", 8, &[1], usize::MAX),
            vec![Framed::Line(b"ab".to_vec()), Framed::Line(b"c".to_vec())]
        );
    }

    #[test]
    fn find_newline_matches_position_at_every_offset() {
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 200] {
            for at in 0..=len {
                let mut bytes = vec![b'a'; len];
                if at < len {
                    bytes[at] = b'\n';
                }
                let want = bytes.iter().position(|&b| b == b'\n');
                assert_eq!(find_newline(&bytes), want, "len {len}, newline at {at}");
            }
        }
    }
}
