//! Incremental framing of memcached text-protocol replies.
//!
//! The load generator appends whatever a `read` returned to a buffer and
//! polls the framer. The framer remembers how far it has already looked
//! for a line end and, once a `VALUE` header is parsed, how many data bytes
//! it is waiting for, so no byte of a reply is examined twice however the
//! kernel chops the stream up.

/// One framed reply, borrowing from the polled input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply<'a> {
    /// `VALUE <key> <flags> <bytes>\r\n<data>\r\n` (the `END` that closes
    /// the `get` arrives as its own reply).
    Value {
        /// The key echoed by the server.
        key: &'a [u8],
        /// Client flags.
        flags: u32,
        /// The data block.
        data: &'a [u8],
    },
    /// `END`.
    End,
    /// `STORED`.
    Stored,
    /// Any other complete line (`NOT_STORED`, `ERROR`, `SERVER_ERROR …`),
    /// without its CRLF.
    Other(&'a [u8]),
}

/// Result of [`Framer::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll<'a> {
    /// The input does not yet hold a whole reply.
    Need,
    /// One reply, and how many input bytes it occupied. The caller drops
    /// exactly that many bytes before polling again.
    Ready {
        /// The reply.
        reply: Reply<'a>,
        /// Bytes of input the reply occupied.
        consumed: usize,
    },
    /// The stream is not a memcached reply stream (bare LF, bad `VALUE`
    /// header, missing CRLF after data, or an over-long line).
    Malformed,
}

/// Longest reply line accepted: `VALUE` + a 250-byte key + two integers.
const MAX_LINE: usize = 320;

#[derive(Debug, Clone, Copy)]
struct ValueHeader {
    line_len: usize,
    key_start: usize,
    key_len: usize,
    flags: u32,
    data_len: usize,
}

/// The framer state between polls.
#[derive(Debug, Default)]
pub struct Framer {
    /// Bytes at the front of the input already searched for `\n`.
    scanned: usize,
    /// A parsed `VALUE` line whose data block has not fully arrived.
    header: Option<ValueHeader>,
}

fn parse_uint(field: &[u8]) -> Option<u64> {
    if field.is_empty() || field.len() > 19 {
        return None;
    }
    let mut v = 0u64;
    for &b in field {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v * 10 + u64::from(b - b'0');
    }
    Some(v)
}

fn parse_value_header(line: &[u8], line_len: usize) -> Option<ValueHeader> {
    // line = "VALUE <key> <flags> <bytes>"
    let rest = line.strip_prefix(b"VALUE ")?;
    let key_end = rest.iter().position(|&b| b == b' ')?;
    let after_key = &rest[key_end + 1..];
    let flags_end = after_key.iter().position(|&b| b == b' ')?;
    let flags = parse_uint(&after_key[..flags_end])?;
    let data_len = parse_uint(&after_key[flags_end + 1..])?;
    Some(ValueHeader {
        line_len,
        key_start: 6,
        key_len: key_end,
        flags: u32::try_from(flags).ok()?,
        data_len: usize::try_from(data_len).ok()?,
    })
}

impl Framer {
    /// A framer at a reply boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tries to frame one reply at the front of `input`. `input` must be
    /// the unconsumed bytes of the previous poll with any newly received
    /// bytes appended.
    pub fn poll<'a>(&mut self, input: &'a [u8]) -> Poll<'a> {
        let header = match self.header {
            Some(h) => h,
            None => {
                let Some(rel) = input[self.scanned..].iter().position(|&b| b == b'\n') else {
                    self.scanned = input.len();
                    return if self.scanned > MAX_LINE {
                        Poll::Malformed
                    } else {
                        Poll::Need
                    };
                };
                let lf = self.scanned + rel;
                if lf == 0 || input[lf - 1] != b'\r' || lf > MAX_LINE {
                    return Poll::Malformed;
                }
                let line = &input[..lf - 1];
                let line_len = lf + 1;
                if !line.starts_with(b"VALUE ") {
                    self.scanned = 0;
                    let reply = match line {
                        b"END" => Reply::End,
                        b"STORED" => Reply::Stored,
                        other => Reply::Other(other),
                    };
                    return Poll::Ready {
                        reply,
                        consumed: line_len,
                    };
                }
                let Some(h) = parse_value_header(line, line_len) else {
                    return Poll::Malformed;
                };
                self.header = Some(h);
                h
            }
        };
        let total = header.line_len + header.data_len + 2;
        if input.len() < total {
            return Poll::Need;
        }
        if &input[total - 2..total] != b"\r\n" {
            return Poll::Malformed;
        }
        self.header = None;
        self.scanned = 0;
        Poll::Ready {
            reply: Reply::Value {
                key: &input[header.key_start..header.key_start + header.key_len],
                flags: header.flags,
                data: &input[header.line_len..header.line_len + header.data_len],
            },
            consumed: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames `stream` delivered in `chunk`-byte pieces, returning owned
    /// copies of the replies and asserting the framer never re-reads.
    fn frame_all(stream: &[u8], chunk: usize) -> Vec<String> {
        let mut f = Framer::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            buf.extend_from_slice(piece);
            loop {
                match f.poll(&buf) {
                    Poll::Need => break,
                    Poll::Malformed => panic!("malformed at {:?}", String::from_utf8_lossy(&buf)),
                    Poll::Ready { reply, consumed } => {
                        out.push(match reply {
                            Reply::Value { key, flags, data } => format!(
                                "V {} {} {}",
                                String::from_utf8_lossy(key),
                                flags,
                                String::from_utf8_lossy(data)
                            ),
                            Reply::End => "E".into(),
                            Reply::Stored => "S".into(),
                            Reply::Other(l) => format!("O {}", String::from_utf8_lossy(l)),
                        });
                        buf.drain(..consumed);
                    }
                }
            }
        }
        assert!(buf.is_empty(), "leftover {:?}", buf);
        out
    }

    const STREAM: &[u8] =
        b"VALUE k0000001 7 5\r\nhello\r\nEND\r\nEND\r\nSTORED\r\nVALUE kx 0 4\r\n\r\n\r\n\r\nEND\r\nNOT_STORED\r\n";

    #[test]
    fn frames_whole_and_byte_by_byte_identically() {
        let whole = frame_all(STREAM, STREAM.len());
        assert_eq!(
            whole,
            vec![
                "V k0000001 7 hello",
                "E",
                "E",
                "S",
                "V kx 0 \r\n\r\n",
                "E",
                "O NOT_STORED"
            ]
        );
        for chunk in [1, 2, 3, 7, 19] {
            assert_eq!(frame_all(STREAM, chunk), whole, "chunk {chunk}");
        }
    }

    #[test]
    fn data_containing_reply_keywords_is_not_reframed() {
        let s = b"VALUE k 0 13\r\nEND\r\nSTORED\r\n\r\nEND\r\n";
        assert_eq!(frame_all(s, 4), vec!["V k 0 END\r\nSTORED\r\n", "E"]);
    }

    #[test]
    fn partial_line_is_scanned_once() {
        let mut f = Framer::new();
        assert_eq!(f.poll(b"STOR"), Poll::Need);
        assert_eq!(f.scanned, 4);
        assert_eq!(
            f.poll(b"STORED\r\nEN"),
            Poll::Ready {
                reply: Reply::Stored,
                consumed: 8
            }
        );
        assert_eq!(f.scanned, 0);
    }

    #[test]
    fn malformed_streams_are_rejected() {
        assert_eq!(Framer::new().poll(b"END\n"), Poll::Malformed);
        assert_eq!(Framer::new().poll(b"\n"), Poll::Malformed);
        assert_eq!(
            Framer::new().poll(b"VALUE k x 3\r\nabc\r\n"),
            Poll::Malformed
        );
        assert_eq!(Framer::new().poll(b"VALUE k 0 3\r\nabcde"), Poll::Malformed);
        let long = vec![b'a'; MAX_LINE + 8];
        assert_eq!(Framer::new().poll(&long), Poll::Malformed);
    }
}
