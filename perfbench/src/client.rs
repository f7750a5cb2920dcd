//! The load client: a closed-loop capacity phase (one pipelined
//! connection per thread) and an open-loop latency phase (seeded Poisson
//! arrivals, each request timed from its due time). Both check every
//! reply against the oracle.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use efd_util::{derive_seed, SplitMix64};

use crate::daemon::Daemon;
use crate::inputs::{tail_class, Inputs, Payload, Req, Stream};

/// Requests in flight per connection in the closed loop.
pub const PIPELINE: usize = 32;

/// Reply bookkeeping shared by both phases.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests written.
    pub sent: u64,
    /// Replies read.
    pub answered: u64,
    /// `ERR` replies, oracle mismatches, and unanswered requests.
    pub failed: u64,
    /// `RECOGNIZE` replies answered.
    pub reads: u64,
    /// `LEARN` replies answered.
    pub learns: u64,
    /// Verdicts the daemon returned: recognized, ambiguous, unknown.
    pub verdicts: [u64; 3],
    /// The first disagreement, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Fold another tally into this one.
    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.answered += o.answered;
        self.failed += o.failed;
        self.reads += o.reads;
        self.learns += o.learns;
        for k in 0..3 {
            self.verdicts[k] += o.verdicts[k];
        }
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&o.first_failure);
        }
    }

    /// Count one failure, keeping the first reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    /// Check one reply against the oracle.
    fn check(
        &mut self,
        inputs: &Inputs,
        req: Req,
        reply: &[u8],
        captured: &mut Option<Vec<Option<Vec<u8>>>>,
    ) {
        self.answered += 1;
        let text = String::from_utf8_lossy(reply);
        match req {
            Req::Read(i) => {
                self.reads += 1;
                let i = i as usize;
                let tail = text
                    .strip_prefix("OK ")
                    .and_then(|r| r.split_once(' '))
                    .map(|(_gen, tail)| tail);
                match tail {
                    Some(tail) => {
                        self.verdicts[tail_class(tail) as usize] += 1;
                        if tail != inputs.expected[i] {
                            self.fail(format!(
                                "{:?} answered {text:?}, oracle {:?}",
                                inputs.reads[i].text, inputs.expected[i]
                            ));
                        }
                        if let Some(c) = captured {
                            c[i].get_or_insert_with(|| reply.to_vec());
                        }
                    }
                    None => self.fail(format!("{:?} answered {text:?}", inputs.reads[i].text)),
                }
            }
            Req::Learn(i) => {
                self.learns += 1;
                if !text.starts_with("LEARNED ") {
                    self.fail(format!(
                        "{:?} answered {text:?}",
                        inputs.learns[i as usize].text
                    ));
                }
            }
        }
    }
}

fn payload(inputs: &Inputs, r: Req) -> &Payload {
    match r {
        Req::Read(i) => &inputs.reads[i as usize],
        Req::Learn(i) => &inputs.learns[i as usize],
    }
}

/// Length-prefixed frames accumulated from a socket.
struct Frames {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Frames {
    fn new() -> Frames {
        Frames {
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
        }
    }

    /// One `read` call's worth of bytes; 0 means the peer closed.
    fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next complete frame's payload range, if buffered.
    fn next(&mut self) -> Option<std::ops::Range<usize>> {
        let avail = self.end - self.start;
        if avail < 4 {
            return None;
        }
        let len = u32::from_le_bytes(
            self.buf[self.start..self.start + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        if avail < 4 + len {
            return None;
        }
        let r = self.start + 4..self.start + 4 + len;
        self.start += 4 + len;
        Some(r)
    }
}

/// What the closed loop measured.
pub struct Closed {
    /// Reply bookkeeping.
    pub tally: Tally,
    /// Replies read in each bin.
    pub bins: Vec<u64>,
    /// Daemon CPU seconds spent in each bin.
    pub cpu_bins: Vec<f64>,
}

/// A shared learn cursor, so no learn is sent twice across connections
/// and phases.
pub type LearnCursor = Arc<AtomicUsize>;

/// Run the closed loop: `conns` pipelined connections for `duration`,
/// one per thread (this thread drives the first).
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    daemon: &Daemon,
    inputs: &Inputs,
    seed: u64,
    conns: usize,
    duration: Duration,
    bin_s: f64,
    learns: &LearnCursor,
    captured: &mut Option<Vec<Option<Vec<u8>>>>,
) -> Result<Closed, String> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    let deadline = t0 + duration;
    let nbins = (duration.as_secs_f64() / bin_s).floor() as usize;
    let capture_len = captured.as_ref().map(|c| c.len());
    let mut outs = std::thread::scope(|scope| {
        let mut it = streams.into_iter().enumerate();
        let (_, first) = it.next().expect("at least one connection");
        let handles: Vec<_> = it
            .map(|(c, s)| {
                let learns = Arc::clone(learns);
                scope.spawn(move || {
                    let stream = Stream::new(inputs, derive_seed(seed, &[c as u64]), learns);
                    drive_closed(
                        inputs,
                        stream,
                        s,
                        t0,
                        deadline,
                        bin_s,
                        nbins,
                        capture_len,
                        None,
                    )
                })
            })
            .collect();
        let stream = Stream::new(inputs, derive_seed(seed, &[0]), Arc::clone(learns));
        let mut outs = vec![drive_closed(
            inputs,
            stream,
            first,
            t0,
            deadline,
            bin_s,
            nbins,
            capture_len,
            Some(daemon),
        )];
        outs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop thread")),
        );
        outs
    });
    let mut tally = Tally::default();
    let mut bins = vec![0u64; nbins];
    let marks = outs[0]
        .as_ref()
        .map(|o| o.cpu_marks.clone())
        .unwrap_or_default();
    let cpu_bins = marks.windows(2).map(|w| w[1] - w[0]).collect();
    for out in outs.iter_mut() {
        let out = out.as_mut().map_err(|e| e.clone())?;
        tally.add(&out.tally);
        for (b, v) in bins.iter_mut().zip(&out.bins) {
            *b += v;
        }
        if let (Some(dst), Some(src)) = (captured.as_mut(), out.captured.take()) {
            for (d, s) in dst.iter_mut().zip(src) {
                if d.is_none() {
                    *d = s;
                }
            }
        }
    }
    Ok(Closed {
        tally,
        bins,
        cpu_bins,
    })
}

struct ConnOut {
    tally: Tally,
    bins: Vec<u64>,
    cpu_marks: Vec<f64>,
    captured: Option<Vec<Option<Vec<u8>>>>,
}

#[allow(clippy::too_many_arguments)]
fn drive_closed(
    inputs: &Inputs,
    mut stream: Stream,
    conn: TcpStream,
    t0: Instant,
    deadline: Instant,
    bin_s: f64,
    nbins: usize,
    capture_len: Option<usize>,
    cpu_of: Option<&Daemon>,
) -> Result<ConnOut, String> {
    // The first connection also reads the daemon's CPU time as each bin
    // starts (mark k at the start of bin k; the last at the deadline).
    let mut cpu_marks = Vec::with_capacity(nbins + 1);
    let mark = |bin: usize, marks: &mut Vec<f64>| {
        if let Some(d) = cpu_of {
            while marks.len() <= bin.min(nbins) {
                marks.push(d.cpu_s().unwrap_or(f64::NAN));
            }
        }
    };
    mark(0, &mut cpu_marks);
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let mut reader = conn;
    let mut frames = Frames::new();
    let mut inflight: VecDeque<Req> = VecDeque::with_capacity(PIPELINE);
    let mut wbuf = Vec::with_capacity(PIPELINE * 512);
    let mut tally = Tally::default();
    let mut bins = vec![0u64; nbins];
    let mut captured = capture_len.map(|n| vec![None; n]);
    loop {
        if Instant::now() < deadline {
            while inflight.len() < PIPELINE {
                let r = stream.next_req();
                wbuf.extend_from_slice(&payload(inputs, r).framed);
                inflight.push_back(r);
                tally.sent += 1;
            }
        }
        if !wbuf.is_empty() {
            writer.write_all(&wbuf).map_err(|e| format!("send: {e}"))?;
            wbuf.clear();
        }
        if inflight.is_empty() {
            break;
        }
        match frames.fill(&mut reader) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let bin = ((Instant::now() - t0).as_secs_f64() / bin_s) as usize;
        mark(bin, &mut cpu_marks);
        while let Some(range) = frames.next() {
            let r = inflight.pop_front().ok_or("reply without a request")?;
            tally.check(inputs, r, &frames.buf[range], &mut captured);
            if let Some(b) = bins.get_mut(bin) {
                *b += 1;
            }
        }
    }
    for r in inflight {
        tally.fail(format!("unanswered {:?}", payload(inputs, r).text));
    }
    Ok(ConnOut {
        tally,
        bins,
        cpu_marks,
        captured,
    })
}

/// What the open loop measured.
pub struct Open {
    /// Reply bookkeeping.
    pub tally: Tally,
    /// `RECOGNIZE` samples: (due time after the warm-up, latency from
    /// the due time), both in seconds.
    pub read_latency: Vec<(f64, f64)>,
    /// `LEARN` latencies (seconds from due time).
    pub learn_latency: Vec<f64>,
    /// How late each request was written, in seconds.
    pub send_lag: Vec<f64>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const POLLIN: i16 = 1;

const PR_SET_TIMERSLACK: i32 = 29;

/// Run the open loop: Poisson arrivals at `rate` per second for
/// `warmup + duration`, spread round-robin over `conns` connections. One
/// thread writes on schedule; this thread reads every reply. Latency is
/// counted from each request's due time, so a stall also delays the
/// requests queued behind it. Requests due in the warm-up are checked but
/// not timed.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    daemon: &Daemon,
    inputs: &Inputs,
    seed: u64,
    conns: usize,
    rate: f64,
    warmup: Duration,
    duration: Duration,
    learns: &LearnCursor,
) -> Result<Open, String> {
    let mut rng = SplitMix64::new(derive_seed(seed, &[0xA221]));
    let total = (warmup + duration).as_secs_f64();
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= total {
            break;
        }
        due.push(t);
    }
    let mut stream = Stream::new(inputs, derive_seed(seed, &[0x0BE4]), Arc::clone(learns));
    let reqs: Vec<Req> = due.iter().map(|_| stream.next_req()).collect();
    let n = reqs.len();
    if n == 0 {
        return Err(format!("no open-loop arrivals at {rate} req/s"));
    }
    let sockets: Vec<TcpStream> = (0..conns)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let writers: Vec<TcpStream> = sockets
        .iter()
        .map(|s| s.try_clone().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let start = Instant::now() + Duration::from_millis(5);
    let at = |k: usize| start + Duration::from_secs_f64(due[k]);
    let warm = warmup.as_secs_f64();

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Result<Vec<f64>, String> {
            let mut writers = writers;
            // SAFETY: prctl(PR_SET_TIMERSLACK) only changes this thread's
            // timer slack; the extra arguments are ignored.
            unsafe {
                prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
            }
            let mut lag = Vec::with_capacity(n);
            let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns];
            let mut k = 0;
            while k < n {
                let now = Instant::now();
                let next = at(k);
                if now < next {
                    std::thread::sleep(next - now);
                    continue;
                }
                let first = k;
                while k < n && at(k) <= now {
                    bufs[k % conns].extend_from_slice(&payload(inputs, reqs[k]).framed);
                    k += 1;
                }
                for (w, b) in writers.iter_mut().zip(bufs.iter_mut()) {
                    if !b.is_empty() {
                        w.write_all(b).map_err(|e| format!("send: {e}"))?;
                        b.clear();
                    }
                }
                let sent = Instant::now();
                lag.extend((first..k).map(|j| (sent - at(j)).as_secs_f64()));
            }
            Ok(lag)
        });

        let mut sockets = sockets;
        let mut frames: Vec<Frames> = (0..conns).map(|_| Frames::new()).collect();
        let mut replies = vec![0usize; conns];
        let mut got = 0usize;
        let mut tally = Tally {
            sent: n as u64,
            ..Tally::default()
        };
        let mut read_latency = Vec::with_capacity(n);
        let mut learn_latency = Vec::new();
        let mut none = None;
        let give_up = at(n - 1) + Duration::from_secs(5);
        let mut fds: Vec<PollFd> = sockets
            .iter()
            .map(|s| PollFd {
                fd: s.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        while got < n && Instant::now() < give_up {
            // SAFETY: `fds` is a live, correctly sized array of pollfd
            // structs for the duration of the call.
            let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, 50) };
            if ready <= 0 {
                continue;
            }
            for c in 0..conns {
                if fds[c].revents == 0 {
                    continue;
                }
                match frames[c].fill(&mut sockets[c]) {
                    Ok(0) | Err(_) => {
                        fds[c].fd = -1;
                        continue;
                    }
                    Ok(_) => {}
                }
                let now = Instant::now();
                while let Some(range) = frames[c].next() {
                    let k = replies[c] * conns + c;
                    replies[c] += 1;
                    got += 1;
                    if k >= n {
                        tally.fail("reply without a request".into());
                        continue;
                    }
                    tally.check(inputs, reqs[k], &frames[c].buf[range], &mut none);
                    if due[k] < warm {
                        continue;
                    }
                    let latency = (now - at(k)).as_secs_f64();
                    match reqs[k] {
                        Req::Read(_) => read_latency.push((due[k] - warm, latency)),
                        Req::Learn(_) => learn_latency.push(latency),
                    }
                }
            }
        }
        let lag = sender.join().expect("open-loop sender")?;
        for _ in got..n {
            tally.fail("unanswered open-loop request".into());
        }
        Ok(Open {
            tally,
            read_latency,
            learn_latency,
            send_lag: lag,
        })
    })
}

/// Send the fill learns pipelined on one connection and check every
/// reply is a `LEARNED` (learn-mix, before timing starts).
pub fn fill(daemon: &Daemon, inputs: &Inputs) -> Result<Tally, String> {
    let mut conn = daemon.connect()?;
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let mut frames = Frames::new();
    let mut tally = Tally::default();
    let mut next = 0;
    let mut inflight = 0;
    let n = inputs.fill.len();
    let mut answered = 0;
    let mut wbuf = Vec::new();
    while answered < n {
        while inflight < PIPELINE && next < n {
            wbuf.extend_from_slice(&inputs.fill[next].framed);
            next += 1;
            inflight += 1;
        }
        writer.write_all(&wbuf).map_err(|e| format!("fill: {e}"))?;
        wbuf.clear();
        if frames.fill(&mut conn).map_err(|e| format!("fill: {e}"))? == 0 {
            return Err("daemon closed during fill".into());
        }
        while let Some(range) = frames.next() {
            let reply = &frames.buf[range];
            tally.answered += 1;
            if !reply.starts_with(b"LEARNED ") {
                tally.fail(format!(
                    "fill answered {:?}",
                    String::from_utf8_lossy(reply)
                ));
            }
            inflight -= 1;
            answered += 1;
        }
    }
    tally.sent = n as u64;
    tally.learns = n as u64;
    Ok(tally)
}
