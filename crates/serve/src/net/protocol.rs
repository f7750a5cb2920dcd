//! Wire protocol: length-prefixed frames carrying a UTF-8 line grammar.
//!
//! A frame is a little-endian `u32` payload length followed by exactly
//! that many bytes of UTF-8 text. The prefix is bounded by
//! [`MAX_FRAME`] (1 MiB) and must be nonzero, which makes the framing
//! self-validating: a client that writes garbage almost always produces
//! an oversized prefix and is rejected with a structured error instead
//! of making the server buffer gigabytes. The bound also disambiguates
//! plain-HTTP probes — the first four bytes of `GET /metrics HTTP/1.1`
//! decode to the little-endian integer `0x2054_4547`, far above
//! [`MAX_FRAME`], so one listening port can serve both the frame
//! protocol and a `/metrics` scrape endpoint without a reserved byte.
//!
//! Payloads are single lines of space-separated tokens:
//!
//! ```text
//! PING
//! RECOGNIZE <metric> <start> <end> <mean0> [mean1 ...]
//! STREAM <metric> <nodes> <start> <end>
//! PUSH <node> <t> <value>
//! FINISH
//! LEARN <app> <input> <metric> <start> <end> <mean0> [mean1 ...]
//! SWAP [<path>]
//! STATS
//! STATUS
//! SHUTDOWN
//! ```
//!
//! and responses mirror the shape (`<gen>` is the snapshot generation
//! the answer was computed against — the hot-swap tests pivot on it):
//!
//! ```text
//! PONG
//! OK <gen> <matched> <total> recognized <app> | ambiguous <a,b,..> | unknown
//! OPENED <gen> <horizon_s>
//! ACK <collected>
//! VERDICT <gen> <matched> <total> <same tail as OK>
//! LEARNED <keys>
//! SWAPPED <gen> <keys> <version>
//! STATS gen=<g> keys=<k> backend=<name> version=<v> connections=<c> requests=<n>
//! STATUS gen=<g> version=<v> backend=<name> keys=<k> drift=<state> samples=<n>
//!        unknown_rate=<r> ambiguous_rate=<r> baseline_unknown=<r|-> baseline_ambiguous=<r|->
//! BYE
//! ERR <kind> <message>
//! ```
//!
//! (`STATUS` is one line; it is wrapped here. `<version>` is the served
//! catalog version, or `-` outside the catalog.)
//!
//! Token grammar restriction: metric, application, and input names must
//! not contain whitespace (true of every catalog metric and of the
//! synthetic workload labels). Ambiguous verdict apps are joined with
//! `,` and therefore must not contain commas either.
//!
//! There is one grammar and one renderer. [`RequestRef::parse`] reads a
//! line in place — names borrow the line, means go into a caller-owned
//! buffer — and [`Request::parse`] is that parse plus a copy into owned
//! fields. [`write_answer`] appends an `OK`/`VERDICT` line for an
//! [`Answer`] to a byte buffer, and [`render_answer`] is that renderer
//! over a [`Recognition`]. The daemon runs the borrowed forms with
//! per-connection buffers, so a warm `RECOGNIZE` allocates nothing.

use std::io::{self, Read, Write};
use std::time::Instant;

use efd_core::engine::Answer;
use efd_core::{Recognition, VerdictKind};

/// Hard ceiling on a frame payload (1 MiB). A `RECOGNIZE` for 4096
/// nodes is ~100 KB, so real traffic sits far below; anything above is
/// a protocol violation, not a big request.
pub const MAX_FRAME: u32 = 1 << 20;

/// Most bytes a [`FrameReader`] asks the source for in one `read`: a
/// 32-deep pipeline of paper-shaped requests (~60–300 bytes each) fits
/// in one read.
pub const READ_CHUNK: usize = 16 * 1024;

/// Everything that can go wrong while reading one frame.
#[derive(Debug)]
pub enum FrameError {
    /// The read timed out (`WouldBlock`/`TimedOut`), or a frame was still
    /// incomplete at its [`FrameReader::read_frame_before`] deadline.
    /// Buffered bytes are kept — call [`FrameReader::read_frame`] again
    /// to resume.
    /// [`FrameReader::mid_frame`] tells whether a partial frame is
    /// pending (a slow-loris indicator).
    Timeout,
    /// The peer closed the connection in the middle of a frame (after a
    /// partial length prefix or a partial payload).
    Torn,
    /// The length prefix exceeds [`MAX_FRAME`]; the value is carried
    /// for diagnostics.
    Oversized(u32),
    /// A zero-length frame; the grammar has no empty request.
    Empty,
    /// Any other I/O error (reset, broken pipe, ...).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Timeout => write!(f, "read timed out"),
            FrameError::Torn => write!(f, "connection closed mid-frame"),
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte limit")
            }
            FrameError::Empty => write!(f, "zero-length frame"),
            FrameError::Io(e) => write!(f, "{e}"),
        }
    }
}

/// A buffered, resumable frame decoder for one connection.
///
/// Bytes arrive in one `read` of up to [`READ_CHUNK`] and frames are
/// cut out of the buffer in place, so a pipelined burst costs one
/// `read`, not two per frame. The buffer holds at most the pending
/// bytes plus one chunk: a frame longer than a chunk is read a chunk at
/// a time as it arrives, and the buffer shrinks back once it is consumed.
///
/// Read timeouts and frame deadlines are how the server implements idle
/// accounting (each connection reads with a short timeout and checks
/// its deadline when a read times out or leaves a frame incomplete), so
/// the decoder must survive a timeout at *any* byte boundary —
/// including inside the 4-byte prefix — and continue exactly where it
/// stopped. Partial frames simply stay buffered between calls.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// End of the buffered bytes.
    end: usize,
}

impl FrameReader {
    /// A fresh decoder positioned at a frame boundary. The buffer is
    /// allocated on the first read.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if bytes of a frame not yet returned are buffered (a prefix
    /// or payload seen, the frame not handed out).
    pub fn mid_frame(&self) -> bool {
        self.end > self.start
    }

    /// True when a whole frame is already buffered, so the next
    /// [`FrameReader::read_frame`] returns it without touching the
    /// source. The daemon flushes its replies only when this is false:
    /// it never blocks in a read with replies unsent.
    pub fn frame_ready(&self) -> bool {
        matches!(self.frame_len(), Ok(Some(n)) if self.end - self.start >= n)
    }

    /// Bytes buffered but not yet returned as a frame (the daemon hands
    /// them to its HTTP handler when the first prefix reads as `GET `).
    pub(crate) fn buffered(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Length prefix plus payload of the frame at the head of the
    /// buffer, once its 4 prefix bytes are in; a bad prefix is refused
    /// here, before any of its payload is waited for.
    fn frame_len(&self) -> Result<Option<usize>, FrameError> {
        if self.end - self.start < 4 {
            return Ok(None);
        }
        let prefix = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4 bytes");
        match u32::from_le_bytes(prefix) {
            0 => Err(FrameError::Empty),
            n if n > MAX_FRAME => Err(FrameError::Oversized(n)),
            n => Ok(Some(4 + n as usize)),
        }
    }

    /// Read until one complete frame, EOF at a frame boundary, or an
    /// error. `Ok(Some(payload))` borrows this reader and is valid
    /// until the next call; `Ok(None)` is a clean close.
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Option<&[u8]>, FrameError> {
        self.read_frame_before(r, None)
    }

    /// [`FrameReader::read_frame`] with a deadline for the frame: once a
    /// read has returned bytes and the frame is still incomplete at
    /// `deadline`, give up with [`FrameError::Timeout`] (buffered bytes
    /// kept) instead of reading on. A peer that dribbles a frame faster
    /// than the source's read timeout never times a read out, so this is
    /// what bounds it. The clock is read only after such a partial read:
    /// a frame already buffered, or arriving in one read, costs none.
    pub fn read_frame_before(
        &mut self,
        r: &mut impl Read,
        deadline: Option<Instant>,
    ) -> Result<Option<&[u8]>, FrameError> {
        let mut partial = false;
        loop {
            let want = match self.frame_len()? {
                Some(n) if self.end - self.start >= n => {
                    let payload = self.start + 4..self.start + n;
                    self.start += n;
                    return Ok(Some(&self.buf[payload]));
                }
                Some(n) => n,
                None => 4,
            };
            if partial && deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(FrameError::Timeout);
            }
            if self.fill(r, want)? == 0 {
                return if self.mid_frame() {
                    Err(FrameError::Torn)
                } else {
                    Ok(None)
                };
            }
            partial = true;
        }
    }

    /// One `read` into the buffer, after moving the pending bytes to its
    /// front and sizing it to hold at most one [`READ_CHUNK`] more than
    /// is pending, and never past the `want` bytes of the current frame
    /// (so never past `MAX_FRAME + 4`). The buffer grows only as bytes
    /// arrive — a peer that declares a large frame and stalls holds no
    /// more than it sent plus one chunk — and drops back to one chunk
    /// once a large frame is consumed. Returns the bytes read; 0 means
    /// the peer closed.
    fn fill(&mut self, r: &mut impl Read, want: usize) -> Result<usize, FrameError> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let cap = want.min(self.end + READ_CHUNK).max(READ_CHUNK);
        if self.buf.len() < cap {
            self.buf.resize(cap, 0);
        } else if self.buf.len() > cap {
            self.buf.truncate(cap);
            self.buf.shrink_to_fit();
        }
        let n = r.read(&mut self.buf[self.end..]).map_err(map_io)?;
        self.end += n;
        Ok(n)
    }
}

fn map_io(e: io::Error) -> FrameError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::Timeout,
        io::ErrorKind::Interrupted => FrameError::Timeout,
        _ => FrameError::Io(e),
    }
}

/// Write one frame: length prefix + payload, no flush (callers batch
/// behind a `BufWriter` and decide when to flush; the daemon flushes
/// once no further request is buffered).
///
/// # Panics
///
/// Panics if `payload` is empty or exceeds [`MAX_FRAME`] — both are
/// caller bugs, not runtime conditions.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(!payload.is_empty(), "empty frame");
    assert!(payload.len() <= MAX_FRAME as usize, "oversized frame");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// The protocol command of a request, used for per-command metrics
/// labels. Declared separately from [`Request`] so counters can be
/// pre-registered for every command at daemon start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `PING`
    Ping,
    /// `RECOGNIZE`
    Recognize,
    /// `STREAM`
    Stream,
    /// `PUSH`
    Push,
    /// `FINISH`
    Finish,
    /// `LEARN`
    Learn,
    /// `SWAP`
    Swap,
    /// `STATS`
    Stats,
    /// `STATUS`
    Status,
    /// `SHUTDOWN`
    Shutdown,
}

/// Every command, in a fixed order (metric registration order).
pub const COMMANDS: [Command; 10] = [
    Command::Ping,
    Command::Recognize,
    Command::Stream,
    Command::Push,
    Command::Finish,
    Command::Learn,
    Command::Swap,
    Command::Stats,
    Command::Status,
    Command::Shutdown,
];

impl Command {
    /// Lowercase label value for `efd_requests_total{command=...}`.
    pub fn name(self) -> &'static str {
        match self {
            Command::Ping => "ping",
            Command::Recognize => "recognize",
            Command::Stream => "stream",
            Command::Push => "push",
            Command::Finish => "finish",
            Command::Learn => "learn",
            Command::Swap => "swap",
            Command::Stats => "stats",
            Command::Status => "status",
            Command::Shutdown => "shutdown",
        }
    }

    /// Index into [`COMMANDS`]-ordered metric arrays: the declaration
    /// order, which [`COMMANDS`] follows.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A parsed request. Metric names stay as strings here — resolution
/// against the catalog happens in the server, where an unknown name
/// becomes a structured `ERR unknown-metric`.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One-shot recognition of per-node window means.
    Recognize {
        /// Catalog metric name.
        metric: String,
        /// Window start (seconds).
        start: u32,
        /// Window end (seconds, exclusive).
        end: u32,
        /// One window mean per node.
        means: Vec<f64>,
    },
    /// Open this connection's streaming session.
    Stream {
        /// Catalog metric name.
        metric: String,
        /// Number of nodes streaming samples.
        nodes: u16,
        /// Fingerprint window start.
        start: u32,
        /// Fingerprint window end.
        end: u32,
    },
    /// Feed one raw 1 Hz sample into the open session.
    Push {
        /// Node index within the declared stream.
        node: u16,
        /// Sample timestamp (seconds since job start).
        t: u32,
        /// Sampled metric value.
        value: f64,
    },
    /// Force a verdict from the open session, flushing open windows.
    Finish,
    /// Write-ahead learn one labeled observation (durable mode only).
    Learn {
        /// Application name.
        app: String,
        /// Input-size label.
        input: String,
        /// Catalog metric name.
        metric: String,
        /// Window start.
        start: u32,
        /// Window end.
        end: u32,
        /// One window mean per node.
        means: Vec<f64>,
    },
    /// Republish the engine from a dictionary file (empty path = the
    /// daemon's `--load` path).
    Swap {
        /// Dictionary path, or empty for the configured reload path.
        path: String,
    },
    /// One-line daemon status.
    Stats,
    /// Catalog version + drift judgement status line.
    Status,
    /// Graceful daemon shutdown.
    Shutdown,
}

impl Request {
    /// The command this request carries (metrics label).
    pub fn command(&self) -> Command {
        match self {
            Request::Ping => Command::Ping,
            Request::Recognize { .. } => Command::Recognize,
            Request::Stream { .. } => Command::Stream,
            Request::Push { .. } => Command::Push,
            Request::Finish => Command::Finish,
            Request::Learn { .. } => Command::Learn,
            Request::Swap { .. } => Command::Swap,
            Request::Stats => Command::Stats,
            Request::Status => Command::Status,
            Request::Shutdown => Command::Shutdown,
        }
    }

    /// Parse one request line. Errors are human-readable fragments for
    /// an `ERR malformed <why>` response. This is [`RequestRef::parse`]
    /// with its fields copied out, so both accept and reject the same
    /// lines with the same messages.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut means = Vec::new();
        let req = RequestRef::parse(line, &mut means)?;
        Ok(req.into_owned(means))
    }
}

/// A request parsed in place: names borrow the request line, and the
/// per-node means of `RECOGNIZE`/`LEARN` go into the buffer the caller
/// passed to [`RequestRef::parse`]. Variants mirror [`Request`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestRef<'a> {
    /// Liveness probe.
    Ping,
    /// One-shot recognition; the means are in the caller's buffer.
    Recognize {
        /// Catalog metric name.
        metric: &'a str,
        /// Window start (seconds).
        start: u32,
        /// Window end (seconds, exclusive).
        end: u32,
    },
    /// Open this connection's streaming session.
    Stream {
        /// Catalog metric name.
        metric: &'a str,
        /// Number of nodes streaming samples.
        nodes: u16,
        /// Fingerprint window start.
        start: u32,
        /// Fingerprint window end.
        end: u32,
    },
    /// Feed one raw 1 Hz sample into the open session.
    Push {
        /// Node index within the declared stream.
        node: u16,
        /// Sample timestamp (seconds since job start).
        t: u32,
        /// Sampled metric value.
        value: f64,
    },
    /// Force a verdict from the open session.
    Finish,
    /// Write-ahead learn; the means are in the caller's buffer.
    Learn {
        /// Application name.
        app: &'a str,
        /// Input-size label.
        input: &'a str,
        /// Catalog metric name.
        metric: &'a str,
        /// Window start.
        start: u32,
        /// Window end.
        end: u32,
    },
    /// Republish the engine from a dictionary file (empty = reload path).
    Swap {
        /// Dictionary path, or empty for the configured reload path.
        path: &'a str,
    },
    /// One-line daemon status.
    Stats,
    /// Catalog version + drift judgement status line.
    Status,
    /// Graceful daemon shutdown.
    Shutdown,
}

impl<'a> RequestRef<'a> {
    /// Parse one request line without allocating on success. For
    /// `RECOGNIZE` and `LEARN`, `means` is cleared and then holds the
    /// per-node means; it never grows past `u16::MAX` values, however
    /// long the line. Errors are the same fragments [`Request::parse`]
    /// reports.
    pub fn parse(line: &'a str, means: &mut Vec<f64>) -> Result<RequestRef<'a>, String> {
        let mut it = line.split_ascii_whitespace();
        let verb = it.next().ok_or("blank request")?;
        match verb {
            "PING" => end(it, RequestRef::Ping),
            "RECOGNIZE" => {
                let metric = word(&mut it, "metric")?;
                let (start, end) = window(&mut it)?;
                parse_means(it, means)?;
                Ok(RequestRef::Recognize { metric, start, end })
            }
            "STREAM" => {
                let metric = word(&mut it, "metric")?;
                let nodes: u16 = num(&mut it, "nodes")?;
                if nodes == 0 {
                    return Err("STREAM needs at least one node".into());
                }
                let (start, e) = window(&mut it)?;
                end(
                    it,
                    RequestRef::Stream {
                        metric,
                        nodes,
                        start,
                        end: e,
                    },
                )
            }
            "PUSH" => {
                let node: u16 = num(&mut it, "node")?;
                let t: u32 = num(&mut it, "t")?;
                let value: f64 = num(&mut it, "value")?;
                if !value.is_finite() {
                    return Err("PUSH value must be finite".into());
                }
                end(it, RequestRef::Push { node, t, value })
            }
            "FINISH" => end(it, RequestRef::Finish),
            "LEARN" => {
                let app = word(&mut it, "app")?;
                let input = word(&mut it, "input")?;
                let metric = word(&mut it, "metric")?;
                let (start, end) = window(&mut it)?;
                parse_means(it, means)?;
                Ok(RequestRef::Learn {
                    app,
                    input,
                    metric,
                    start,
                    end,
                })
            }
            "SWAP" => {
                let path = it.next().unwrap_or("");
                end(it, RequestRef::Swap { path })
            }
            "STATS" => end(it, RequestRef::Stats),
            "STATUS" => end(it, RequestRef::Status),
            "SHUTDOWN" => end(it, RequestRef::Shutdown),
            other => Err(format!("unknown command {other:?}")),
        }
    }

    /// The command this request carries (metrics label).
    pub fn command(&self) -> Command {
        match self {
            RequestRef::Ping => Command::Ping,
            RequestRef::Recognize { .. } => Command::Recognize,
            RequestRef::Stream { .. } => Command::Stream,
            RequestRef::Push { .. } => Command::Push,
            RequestRef::Finish => Command::Finish,
            RequestRef::Learn { .. } => Command::Learn,
            RequestRef::Swap { .. } => Command::Swap,
            RequestRef::Stats => Command::Stats,
            RequestRef::Status => Command::Status,
            RequestRef::Shutdown => Command::Shutdown,
        }
    }

    /// The owned [`Request`], taking `means` (the buffer this request
    /// was parsed with) for `RECOGNIZE` and `LEARN`.
    pub fn into_owned(self, means: Vec<f64>) -> Request {
        match self {
            RequestRef::Ping => Request::Ping,
            RequestRef::Recognize { metric, start, end } => Request::Recognize {
                metric: metric.to_string(),
                start,
                end,
                means,
            },
            RequestRef::Stream {
                metric,
                nodes,
                start,
                end,
            } => Request::Stream {
                metric: metric.to_string(),
                nodes,
                start,
                end,
            },
            RequestRef::Push { node, t, value } => Request::Push { node, t, value },
            RequestRef::Finish => Request::Finish,
            RequestRef::Learn {
                app,
                input,
                metric,
                start,
                end,
            } => Request::Learn {
                app: app.to_string(),
                input: input.to_string(),
                metric: metric.to_string(),
                start,
                end,
                means,
            },
            RequestRef::Swap { path } => Request::Swap {
                path: path.to_string(),
            },
            RequestRef::Stats => Request::Stats,
            RequestRef::Status => Request::Status,
            RequestRef::Shutdown => Request::Shutdown,
        }
    }
}

fn end<'a, T>(mut it: impl Iterator<Item = &'a str>, req: T) -> Result<T, String> {
    match it.next() {
        None => Ok(req),
        Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
    }
}

fn word<'a>(it: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, String> {
    it.next().ok_or_else(|| format!("missing {what}"))
}

fn num<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String> {
    let tok = it.next().ok_or_else(|| format!("missing {what}"))?;
    tok.parse().map_err(|_| format!("bad {what} {tok:?}"))
}

fn window<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<(u32, u32), String> {
    let start: u32 = num(it, "window start")?;
    let end: u32 = num(it, "window end")?;
    if end <= start {
        return Err(format!(
            "bad window [{start}:{end}] (end must exceed start)"
        ));
    }
    Ok((start, end))
}

/// Parse the trailing means into `out`. Every token is checked, so the
/// first bad token is reported even past the count limit, but `out`
/// stops growing at the limit.
fn parse_means<'a>(it: impl Iterator<Item = &'a str>, out: &mut Vec<f64>) -> Result<(), String> {
    const LIMIT: usize = u16::MAX as usize;
    out.clear();
    let mut count = 0usize;
    for tok in it {
        let v: f64 = tok.parse().map_err(|_| format!("bad mean {tok:?}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite mean {tok:?}"));
        }
        count += 1;
        if count <= LIMIT {
            out.push(v);
        }
    }
    if count == 0 {
        return Err("need at least one mean".into());
    }
    if count > LIMIT {
        return Err("too many node means".into());
    }
    Ok(())
}

/// Stable label value for per-verdict counters: `recognized`,
/// `ambiguous`, or `unknown`.
pub fn verdict_label(rec: &Recognition) -> &'static str {
    rec.verdict.kind().label()
}

/// Append a full `OK`/`VERDICT` response line for `answer` to `out`:
/// `<head> <gen> <matched> <total>` and then `recognized <app>`,
/// `ambiguous <a,b,..>` (name order) or `unknown`. Writes straight into
/// the buffer without `core::fmt`, so a warm buffer makes this
/// allocation-free and the numbers cost a few divisions each.
pub fn write_answer(out: &mut Vec<u8>, head: &str, gen: u64, answer: &Answer) {
    out.extend_from_slice(head.as_bytes());
    for n in [
        gen,
        answer.matched_points as u64,
        answer.total_points as u64,
    ] {
        out.push(b' ');
        push_decimal(out, n);
    }
    out.push(b' ');
    out.extend_from_slice(VerdictKind::of(answer).label().as_bytes());
    for (i, app) in answer.apps().enumerate() {
        out.push(if i == 0 { b' ' } else { b',' });
        out.extend_from_slice(app.as_bytes());
    }
}

/// Append `n` in decimal, as `{n}` would format it.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Render a full `OK`/`VERDICT` response line: [`write_answer`] over the
/// [`Answer`] of `rec`, so an ambiguous tie array comes out in name
/// order whatever order `rec` holds it in.
pub fn render_answer(head: &str, gen: u64, rec: &Recognition) -> String {
    let answer = Answer::from(rec);
    // Room for the head, three numbers, the verdict word and the apps.
    let apps: usize = answer.apps().map(|a| a.len() + 1).sum();
    let mut out = Vec::with_capacity(head.len() + 3 * 21 + "recognized".len() + apps);
    write_answer(&mut out, head, gen, &answer);
    String::from_utf8(out).expect("rendered from UTF-8 parts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_core::Verdict;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"PING").unwrap();
        write_frame(&mut buf, b"STATS").unwrap();
        let mut r = FrameReader::new();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(r.read_frame(&mut cur).unwrap(), Some(&b"PING"[..]));
        assert_eq!(r.read_frame(&mut cur).unwrap(), Some(&b"STATS"[..]));
        assert_eq!(r.read_frame(&mut cur).unwrap(), None, "clean EOF");
    }

    #[test]
    fn torn_prefix_and_payload_are_distinguished_from_clean_eof() {
        // 2 of 4 prefix bytes, then EOF.
        let mut r = FrameReader::new();
        let mut cur = std::io::Cursor::new(vec![4u8, 0]);
        assert!(matches!(r.read_frame(&mut cur), Err(FrameError::Torn)));
        // Full prefix promising 4 bytes, only 2 delivered.
        let mut r = FrameReader::new();
        let mut cur = std::io::Cursor::new(vec![4u8, 0, 0, 0, b'P', b'I']);
        assert!(matches!(r.read_frame(&mut cur), Err(FrameError::Torn)));
    }

    #[test]
    fn oversized_and_empty_prefixes_are_rejected() {
        let mut r = FrameReader::new();
        let huge = (MAX_FRAME + 1).to_le_bytes().to_vec();
        let mut cur = std::io::Cursor::new(huge);
        assert!(matches!(
            r.read_frame(&mut cur),
            Err(FrameError::Oversized(n)) if n == MAX_FRAME + 1
        ));
        let mut r = FrameReader::new();
        let mut cur = std::io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(r.read_frame(&mut cur), Err(FrameError::Empty)));
    }

    #[test]
    fn buffer_grows_to_the_current_frame_and_no_further() {
        // A maximal frame grows the buffer to exactly MAX_FRAME + 4...
        let mut framed = Vec::new();
        write_frame(&mut framed, &vec![b'x'; MAX_FRAME as usize]).unwrap();
        write_frame(&mut framed, b"PING").unwrap();
        let mut r = FrameReader::new();
        let mut src: &[u8] = &framed;
        let first = r.read_frame(&mut src).unwrap().map(<[u8]>::len);
        assert_eq!(first, Some(MAX_FRAME as usize));
        assert_eq!(r.buf.len(), MAX_FRAME as usize + 4);
        assert!(!r.frame_ready(), "the PING is not buffered yet");
        assert_eq!(r.read_frame(&mut src).unwrap(), Some(&b"PING"[..]));
        assert_eq!(r.buf.len(), READ_CHUNK, "shrunk back once it was consumed");
        // ...while an oversized prefix is refused from the first chunk,
        // without growing the buffer towards its claimed length.
        let mut huge = (MAX_FRAME + 1).to_le_bytes().to_vec();
        huge.resize(3 * READ_CHUNK, 0);
        let mut r = FrameReader::new();
        let mut src: &[u8] = &huge;
        assert!(matches!(
            r.read_frame(&mut src),
            Err(FrameError::Oversized(_))
        ));
        assert_eq!(r.buf.len(), READ_CHUNK);
    }

    #[test]
    fn a_stalled_large_frame_holds_only_what_arrived() {
        // A peer declares a maximal frame, sends 100 bytes of it, and
        // goes quiet: the buffer holds those bytes plus one chunk, not
        // the declared 1 MiB.
        struct Stalled<'a>(&'a [u8]);
        impl Read for Stalled<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.read(buf)? {
                    0 => Err(io::ErrorKind::WouldBlock.into()),
                    n => Ok(n),
                }
            }
        }
        let mut sent = MAX_FRAME.to_le_bytes().to_vec();
        sent.resize(104, b'x');
        let mut r = FrameReader::new();
        let mut src = Stalled(&sent);
        for _ in 0..3 {
            assert!(matches!(r.read_frame(&mut src), Err(FrameError::Timeout)));
        }
        assert_eq!(r.end, 104);
        assert_eq!(r.buf.len(), 104 + READ_CHUNK);
        // Three chunks later it holds those bytes plus one chunk.
        let more = vec![b'x'; 3 * READ_CHUNK];
        let mut src = Stalled(&more);
        assert!(matches!(r.read_frame(&mut src), Err(FrameError::Timeout)));
        assert_eq!(r.end, 104 + 3 * READ_CHUNK);
        assert_eq!(r.buf.len(), r.end + READ_CHUNK);
    }

    #[test]
    fn a_burst_is_one_read_and_frame_ready_tracks_it() {
        let mut framed = Vec::new();
        for _ in 0..32 {
            write_frame(&mut framed, b"RECOGNIZE mem_free 60 120 6000.5 6010").unwrap();
        }
        framed.extend_from_slice(&[9, 0]); // first bytes of one more frame
        struct Counting<'a>(&'a [u8], usize);
        impl Read for Counting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 += 1;
                self.0.read(buf)
            }
        }
        let mut src = Counting(&framed, 0);
        let mut r = FrameReader::new();
        for i in 0..32 {
            assert!(r.read_frame(&mut src).unwrap().is_some());
            assert_eq!(r.frame_ready(), i < 31, "after frame {i}");
        }
        assert_eq!(src.1, 1, "the whole burst came in one read");
        assert!(r.mid_frame());
        assert!(matches!(r.read_frame(&mut src), Err(FrameError::Torn)));
    }

    #[test]
    fn http_get_prefix_reads_as_oversized() {
        // The sniffing invariant the dual-protocol port relies on.
        let n = u32::from_le_bytes(*b"GET ");
        assert!(n > MAX_FRAME);
    }

    #[test]
    fn reader_resumes_across_byte_dribble() {
        // One byte at a time through a reader that yields between reads —
        // the slow-loris read path.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "dry"));
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut framed = Vec::new();
        write_frame(&mut framed, b"PING").unwrap();
        let mut src = OneByte(&framed, 0);
        let mut r = FrameReader::new();
        let mut timeouts = 0;
        loop {
            match r.read_frame(&mut src) {
                Ok(Some(p)) => {
                    assert_eq!(p, b"PING");
                    break;
                }
                Err(FrameError::Timeout) => timeouts += 1,
                other => panic!("unexpected {other:?}"),
            }
            assert!(timeouts < 3, "must finish before going dry");
        }
        assert!(r.mid_frame() || timeouts == 0);
    }

    #[test]
    fn request_grammar_parses_and_rejects() {
        assert_eq!(Request::parse("PING").unwrap(), Request::Ping);
        assert_eq!(
            Request::parse("RECOGNIZE mem_free 60 120 6000.5 6010").unwrap(),
            Request::Recognize {
                metric: "mem_free".into(),
                start: 60,
                end: 120,
                means: vec![6000.5, 6010.0],
            }
        );
        assert_eq!(
            Request::parse("STREAM vmstat::nr_dirty 4 60 120").unwrap(),
            Request::Stream {
                metric: "vmstat::nr_dirty".into(),
                nodes: 4,
                start: 60,
                end: 120,
            }
        );
        assert_eq!(
            Request::parse("PUSH 3 61 8110.25").unwrap(),
            Request::Push {
                node: 3,
                t: 61,
                value: 8110.25,
            }
        );
        assert_eq!(
            Request::parse("SWAP").unwrap(),
            Request::Swap {
                path: String::new()
            }
        );
        for bad in [
            "",
            "NOPE",
            "PING extra",
            "RECOGNIZE m 120 60 1.0", // inverted window
            "RECOGNIZE m 60 120",     // no means
            "RECOGNIZE m 60 120 NaN",
            "STREAM m 0 60 120", // zero nodes
            "PUSH 1 2",
            "PUSH 1 2 inf",
            "LEARN app X m 60 120",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// The reply format before [`write_answer`]: `format!` over the
    /// recognition, the tie array sorted and joined.
    fn format_reply(head: &str, gen: u64, rec: &Recognition) -> String {
        let tail = match &rec.verdict {
            Verdict::Recognized(app) => format!("recognized {app}"),
            Verdict::Ambiguous(apps) => {
                let mut sorted = apps.clone();
                sorted.sort();
                format!("ambiguous {}", sorted.join(","))
            }
            _ => "unknown".to_string(),
        };
        let (matched, total) = (rec.matched_points, rec.total_points);
        format!("{head} {gen} {matched} {total} {tail}")
    }

    #[test]
    fn write_answer_bytes_equal_the_formatted_reply() {
        let rec = |verdict, matched_points, total_points| Recognition {
            verdict,
            app_votes: vec![],
            label_votes: vec![],
            matched_points,
            total_points,
        };
        let ambiguous =
            |apps: &[&str]| Verdict::Ambiguous(apps.iter().map(|a| a.to_string()).collect());
        let cases = [
            rec(Verdict::Recognized("ft".into()), 4, 4),
            rec(Verdict::Recognized("miniAMR".into()), 1, 32),
            rec(ambiguous(&["sp", "bt"]), 4, 6),
            rec(ambiguous(&["lu", "cg", "bt", "sp"]), 3, 3),
            rec(ambiguous(&["b", "a"]), 0, 0),
            rec(Verdict::Unknown, 0, 8),
            rec(Verdict::Unknown, 3, 8),
        ];
        // One buffer reused across replies, as the daemon reuses it.
        let mut out = Vec::new();
        for (i, rec) in cases.iter().enumerate() {
            for (head, gen) in [("OK", 1u64), ("VERDICT", u64::MAX), ("OK", i as u64)] {
                let want = format_reply(head, gen, rec);
                assert_eq!(render_answer(head, gen, rec), want);
                out.clear();
                write_answer(&mut out, head, gen, &Answer::from(rec));
                assert_eq!(out, want.as_bytes(), "{want}");
                let kind = VerdictKind::of(&Answer::from(rec));
                assert_eq!(kind.label(), verdict_label(rec));
                assert_eq!(VerdictKind::from_label(kind.label()), kind);
            }
        }
    }

    /// Point counts and generations at the edges of the integer writer
    /// (0, one digit, ten digits, the type's maximum) and anywhere.
    fn edgy_u64() -> impl proptest::strategy::Strategy<Value = u64> {
        use proptest::prelude::*;
        prop_oneof![
            Just(0u64),
            Just(u64::MAX),
            1u64..10,
            999_999_999u64..10_000_000_001,
            any::<u64>(),
        ]
    }

    proptest::proptest! {
        #[test]
        fn write_answer_bytes_equal_format_on_arbitrary_inputs(
            gen in edgy_u64(),
            matched in edgy_u64(),
            total in edgy_u64(),
            apps in proptest::collection::vec("[a-zA-Z0-9_]{1,12}", 0..6),
            head in proptest::sample::select(vec!["OK", "VERDICT"]),
        ) {
            let verdict = match apps.len() {
                0 => Verdict::Unknown,
                1 => Verdict::Recognized(apps[0].clone()),
                _ => Verdict::Ambiguous(apps.clone()),
            };
            let rec = Recognition {
                verdict,
                app_votes: vec![],
                label_votes: vec![],
                matched_points: matched as usize,
                total_points: total as usize,
            };
            let mut out = Vec::new();
            write_answer(&mut out, head, gen, &Answer::from(&rec));
            proptest::prop_assert_eq!(out, format_reply(head, gen, &rec).into_bytes());
        }
    }

    #[test]
    fn borrowed_parse_borrows_the_line_and_reuses_the_means_buffer() {
        let mut means = vec![9.0; 4];
        let line = "LEARN ft X mem_free 60 120 1 2.5";
        let req = RequestRef::parse(line, &mut means).unwrap();
        assert_eq!(
            req,
            RequestRef::Learn {
                app: "ft",
                input: "X",
                metric: "mem_free",
                start: 60,
                end: 120,
            }
        );
        assert_eq!(means, [1.0, 2.5]);
        assert_eq!(req.command(), Command::Learn);
        assert_eq!(req.into_owned(means.clone()), Request::parse(line).unwrap());
        assert_eq!(
            RequestRef::parse("SWAP", &mut means).unwrap(),
            RequestRef::Swap { path: "" }
        );
    }

    #[test]
    fn the_means_buffer_stops_at_the_node_limit() {
        let limit = u16::MAX as usize;
        let line = |n: usize, tail: &str| format!("RECOGNIZE m 0 60{}{tail}", " 1".repeat(n));
        let mut means = Vec::new();
        assert!(RequestRef::parse(&line(limit, ""), &mut means).is_ok());
        assert_eq!(means.len(), limit);
        let too_many = line(limit + 10, "");
        assert_eq!(
            RequestRef::parse(&too_many, &mut means),
            Err("too many node means".to_string())
        );
        assert!(means.len() <= limit);
        // A bad token past the limit is still the error reported.
        assert_eq!(
            Request::parse(&line(limit + 10, " NaN")),
            Err("non-finite mean \"NaN\"".to_string())
        );
    }

    #[test]
    fn verdict_rendering_is_deterministic() {
        let rec = Recognition {
            verdict: Verdict::Ambiguous(vec!["sp".into(), "bt".into()]),
            app_votes: vec![],
            label_votes: vec![],
            matched_points: 4,
            total_points: 6,
        };
        assert_eq!(render_answer("OK", 7, &rec), "OK 7 4 6 ambiguous bt,sp");
        assert_eq!(verdict_label(&rec), "ambiguous");
    }

    #[test]
    fn command_index_is_its_place_in_commands() {
        for (i, c) in COMMANDS.iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.name());
        }
    }
}
