//! Open-loop load: seeded arrival schedules, the in-process generator and
//! the pipelined HTTP generator.
//!
//! Requests are sent when due whether or not earlier ones have answered,
//! and each latency runs from the time a request was due to the time its
//! answer arrived, so a stall is charged to every request it delays. How
//! late the generator itself sent each request is kept as `lag_ms`.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use alf_serve::{Prediction, ServeError, Server};
use alf_tensor::rng::Rng;
use alf_tensor::Tensor;

/// Longest the generator sleeps between polls for answers.
const POLL: Duration = Duration::from_micros(200);
/// Longest a phase waits for its last answers before counting them failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);
/// Spacing of queue-length samples.
const QUEUE_SAMPLE: Duration = Duration::from_millis(2);

/// One scheduled request: its offset from the phase start (seconds) and
/// the pool image it carries.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub at_s: f64,
    pub image: usize,
}

/// A Poisson arrival schedule of exactly `round(rate · seconds)`
/// requests: arrival times of a Poisson process conditioned on its count
/// are uniform order statistics, so the gaps stay exponential while the
/// offered load is the same on every seed.
pub fn schedule(rate: f64, seconds: f64, pool: usize, rng: &mut Rng) -> Vec<Arrival> {
    let n = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..n)
        .map(|_| f64::from(rng.next_f32()) * seconds)
        .collect();
    times.sort_by(f64::total_cmp);
    times
        .into_iter()
        .map(|at_s| Arrival {
            at_s,
            image: rng.below(pool),
        })
        .collect()
}

/// Everything one open-loop phase observed.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Latency (due → answer) of each correct answer, ms.
    pub lat_ms: Vec<f64>,
    /// Due offset (s) of each entry of `lat_ms`.
    pub due_s: Vec<f64>,
    /// Send time minus due time of each request, ms.
    pub lag_ms: Vec<f64>,
    pub sent: u64,
    pub failed: u64,
    pub rejected: u64,
    pub expired: u64,
    pub wrong_class: u64,
    /// Requests still unanswered when the last one was sent.
    pub backlog: usize,
    /// Sampled server queue lengths (traced phases only).
    pub queue_len: Vec<f64>,
    /// `(start_s, end_s)` of each checkpoint POST, and its status.
    pub swaps: Vec<(f64, f64, u16)>,
    /// Answers received (any status), for the `/metrics` cross-check.
    pub responses: u64,
    /// Seconds from the phase start to the last answer.
    pub span_s: f64,
}

impl PhaseOut {
    /// Folds another phase's observations into this one.
    pub fn merge(&mut self, other: PhaseOut) {
        self.lat_ms.extend(other.lat_ms);
        self.due_s.extend(other.due_s);
        self.lag_ms.extend(other.lag_ms);
        self.sent += other.sent;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.expired += other.expired;
        self.wrong_class += other.wrong_class;
        self.backlog += other.backlog;
        self.queue_len.extend(other.queue_len);
        self.swaps.extend(other.swaps);
        self.responses += other.responses;
        self.span_s = self.span_s.max(other.span_s);
    }

    /// Tallies one in-process answer that was due at `due`.
    fn served_answer(
        &mut self,
        start: Instant,
        due: Instant,
        due_s: f64,
        answer: alf_serve::Result<Prediction>,
        expected: usize,
    ) {
        let status = match &answer {
            Ok(_) => 200,
            Err(ServeError::Expired) => 504,
            Err(ServeError::Overloaded { .. } | ServeError::ShuttingDown) => 503,
            Err(_) => 500,
        };
        let right = answer.is_ok_and(|p| p.class == expected);
        self.predict_answer(start, due, due_s, status, right);
    }

    /// Tallies one HTTP predict answer that was due at `due`.
    fn predict_answer(
        &mut self,
        start: Instant,
        due: Instant,
        due_s: f64,
        status: u16,
        right_class: bool,
    ) {
        let now = Instant::now();
        self.responses += 1;
        self.span_s = self.span_s.max(secs(start, now));
        match status {
            200 if right_class => {
                self.lat_ms.push(crate::common::ms(now - due));
                self.due_s.push(due_s);
            }
            200 => {
                self.wrong_class += 1;
                self.failed += 1;
            }
            429 | 503 => {
                self.rejected += 1;
                self.failed += 1;
            }
            504 => {
                self.expired += 1;
                self.failed += 1;
            }
            _ => self.failed += 1,
        }
    }

    /// Correct answers per second of the phase (last answer included).
    pub fn goodput(&self) -> f64 {
        self.lat_ms.len() as f64 / self.span_s.max(1e-9)
    }
}

fn secs(since: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(since).as_secs_f64()
}

/// Waits until `due`, calling `poll` at least every [`POLL`].
fn wait_until(due: Instant, mut poll: impl FnMut()) {
    loop {
        poll();
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep((due - now).min(POLL));
    }
}

/// One open-loop phase against an in-process server, from the calling
/// thread.
pub fn in_process(
    server: &Server,
    pool: &[Tensor],
    reference: &[usize],
    arrivals: &[Arrival],
    sample_queue: bool,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut outstanding = VecDeque::new();
    let start = Instant::now() + Duration::from_millis(2);
    let mut last_sample = start;
    let poll = |outstanding: &mut VecDeque<(Instant, f64, usize, alf_serve::Pending)>,
                out: &mut PhaseOut| {
        outstanding.retain(|(due, due_s, image, pending)| match pending.try_wait() {
            None => true,
            Some(answer) => {
                out.served_answer(start, *due, *due_s, answer, reference[*image]);
                false
            }
        });
    };
    for a in arrivals {
        let due = start + Duration::from_secs_f64(a.at_s);
        wait_until(due, || {
            poll(&mut outstanding, &mut out);
            if sample_queue && last_sample.elapsed() >= QUEUE_SAMPLE {
                last_sample = Instant::now();
                out.queue_len.push(server.queue_len() as f64);
            }
        });
        out.lag_ms.push(crate::common::ms(Instant::now() - due));
        out.sent += 1;
        match server.submit(pool[a.image].clone()) {
            Ok(pending) => outstanding.push_back((due, a.at_s, a.image, pending)),
            Err(_) => {
                out.rejected += 1;
                out.failed += 1;
            }
        }
    }
    out.backlog = outstanding.len();
    let drain = Instant::now();
    while !outstanding.is_empty() && drain.elapsed() < DRAIN_LIMIT {
        poll(&mut outstanding, &mut out);
        std::thread::sleep(POLL / 2);
    }
    out.failed += outstanding.len() as u64;
    out
}

/// What a pipelined request was for.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Predict { image: usize },
    Swap,
}

/// A nonblocking keep-alive client connection with pipelined requests:
/// requests are written when due, answers parsed in order as they arrive.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    fifo: VecDeque<(Instant, f64, Kind)>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            fifo: VecDeque::new(),
        })
    }

    fn send(&mut self, wire: &[u8], due: Instant, due_s: f64, kind: Kind) {
        self.out.extend_from_slice(wire);
        self.fifo.push_back((due, due_s, kind));
    }

    /// Writes what the socket takes, reads what has arrived, and hands
    /// each complete answer to `done` as `(due, due_s, kind, status, body)`.
    fn pump(
        &mut self,
        mut done: impl FnMut(Instant, f64, Kind, u16, &[u8]),
    ) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        while let Some((status, body_start, len)) = parse_head(&self.inbuf)? {
            if self.inbuf.len() < body_start + len {
                break;
            }
            let (due, due_s, kind) = self
                .fifo
                .pop_front()
                .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "unsolicited answer"))?;
            done(
                due,
                due_s,
                kind,
                status,
                &self.inbuf[body_start..body_start + len],
            );
            self.inbuf.drain(..body_start + len);
        }
        Ok(())
    }
}

/// Parses a response head at the start of `buf`: `(status, body offset,
/// content length)`, or `None` while the head is incomplete.
fn parse_head(buf: &[u8]) -> std::io::Result<Option<(u16, usize, usize)>> {
    let bad = |what: &str| std::io::Error::new(ErrorKind::InvalidData, what.to_string());
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| bad("no content-length"))?;
    Ok(Some((status, end + 4, len)))
}

/// The `class` field of a prediction body.
pub fn class_of(body: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"class\":")? + 8..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The wire form of a POST.
pub fn post_wire(target: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "POST {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Inputs of one HTTP generator thread.
pub struct HttpLoad<'a> {
    pub addr: SocketAddr,
    /// Prebuilt predict requests, one per pool image.
    pub predicts: &'a [Vec<u8>],
    pub reference: &'a [usize],
    /// Prebuilt checkpoint POST and its period, for the thread that swaps.
    pub swap: Option<(&'a [u8], Duration)>,
    /// Queue-length source, sampled by the thread that swaps when set.
    pub queue: Option<&'a Server>,
}

/// Mutable state of one HTTP generator thread between polls.
struct GenState {
    next_swap: f64,
    swap_open: bool,
    last_sample: Instant,
    io_failed: bool,
}

/// One open-loop phase over one pipelined predict connection (plus, with
/// `swap`, a second connection posting the checkpoint every period).
pub fn http(load: &HttpLoad<'_>, arrivals: &[Arrival], start: Instant, seconds: f64) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut conn = Conn::connect(load.addr).expect("connect predict client");
    let mut swap_conn = load
        .swap
        .map(|_| Conn::connect(load.addr).expect("connect swap client"));
    let mut st = GenState {
        next_swap: 0.5,
        swap_open: false,
        last_sample: start,
        io_failed: false,
    };
    let step =
        |conn: &mut Conn, swap_conn: &mut Option<Conn>, out: &mut PhaseOut, st: &mut GenState| {
            let now_s = secs(start, Instant::now());
            if let (Some(sc), Some((wire, period))) = (swap_conn.as_mut(), load.swap) {
                if !st.swap_open && now_s >= st.next_swap && now_s < seconds {
                    sc.send(wire, Instant::now(), now_s, Kind::Swap);
                    st.swap_open = true;
                    st.next_swap += period.as_secs_f64();
                }
                let mut closed = false;
                let res = sc.pump(|_, due_s, _, status, _| {
                    out.responses += 1;
                    out.swaps.push((due_s, secs(start, Instant::now()), status));
                    closed = true;
                });
                st.swap_open &= !closed;
                st.io_failed |= res.is_err();
            }
            if let Some(server) = load.queue {
                if st.last_sample.elapsed() >= QUEUE_SAMPLE {
                    st.last_sample = Instant::now();
                    out.queue_len.push(server.queue_len() as f64);
                }
            }
            let res = conn.pump(|due, due_s, kind, status, body| {
                if let Kind::Predict { image } = kind {
                    out.predict_answer(
                        start,
                        due,
                        due_s,
                        status,
                        class_of(body) == Some(load.reference[image]),
                    );
                }
            });
            st.io_failed |= res.is_err();
        };
    for a in arrivals {
        let due = start + Duration::from_secs_f64(a.at_s);
        wait_until(due, || step(&mut conn, &mut swap_conn, &mut out, &mut st));
        out.lag_ms.push(crate::common::ms(Instant::now() - due));
        out.sent += 1;
        conn.send(
            &load.predicts[a.image],
            due,
            a.at_s,
            Kind::Predict { image: a.image },
        );
    }
    out.backlog = conn.fifo.len();
    let drain = Instant::now();
    let pending =
        |conn: &Conn, sc: &Option<Conn>| conn.fifo.len() + sc.as_ref().map_or(0, |c| c.fifo.len());
    while pending(&conn, &swap_conn) > 0 && drain.elapsed() < DRAIN_LIMIT && !st.io_failed {
        step(&mut conn, &mut swap_conn, &mut out, &mut st);
        std::thread::sleep(POLL / 2);
    }
    out.failed += conn.fifo.len() as u64;
    if st.io_failed {
        eprintln!("load connection failed");
        out.failed += 1;
    }
    out
}

/// Closed-loop capacity: keeps `inflight` requests queued at an
/// in-process server for `seconds`, always replacing the oldest once it
/// answers.
pub fn closed_in_process(
    server: &Server,
    pool: &[Tensor],
    reference: &[usize],
    inflight: usize,
    seconds: f64,
    rng: &mut Rng,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut queue = VecDeque::new();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    while Instant::now() < end || !queue.is_empty() {
        while Instant::now() < end && queue.len() < inflight {
            let image = rng.below(pool.len());
            out.sent += 1;
            match server.submit(pool[image].clone()) {
                Ok(pending) => queue.push_back((Instant::now(), image, pending)),
                Err(_) => {
                    out.rejected += 1;
                    out.failed += 1;
                }
            }
        }
        let Some((sent, image, pending)) = queue.pop_front() else {
            break;
        };
        let answer = pending.wait();
        out.served_answer(start, sent, secs(start, sent), answer, reference[image]);
    }
    out
}

/// Closed-loop capacity over HTTP: each of `loads` keeps `depth`
/// pipelined predicts outstanding on its own connection for `seconds`.
pub fn closed_http(loads: &[HttpLoad<'_>], depth: usize, seconds: f64, seed: u64) -> PhaseOut {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let outs: Vec<PhaseOut> = std::thread::scope(|s| {
        let handles: Vec<_> = loads
            .iter()
            .enumerate()
            .map(|(i, load)| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_add(i as u64));
                    let mut out = PhaseOut::default();
                    let mut conn = Conn::connect(load.addr).expect("connect capacity client");
                    let mut failed_io = false;
                    loop {
                        let now = Instant::now();
                        if now >= end && conn.fifo.is_empty() {
                            break;
                        }
                        while now < end && conn.fifo.len() < depth {
                            let image = rng.below(load.predicts.len());
                            out.sent += 1;
                            conn.send(
                                &load.predicts[image],
                                now,
                                secs(start, now),
                                Kind::Predict { image },
                            );
                        }
                        let res = conn.pump(|due, due_s, kind, status, body| {
                            if let Kind::Predict { image } = kind {
                                let right = class_of(body) == Some(load.reference[image]);
                                out.predict_answer(start, due, due_s, status, right);
                            }
                        });
                        if res.is_err() || now > end + DRAIN_LIMIT {
                            failed_io = true;
                            break;
                        }
                        std::thread::sleep(POLL / 4);
                    }
                    out.failed += conn.fifo.len() as u64 + u64::from(failed_io);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("capacity client thread"))
            .collect()
    });
    let mut merged = PhaseOut::default();
    for o in outs {
        merged.merge(o);
    }
    merged
}

/// Runs [`http`] on one thread per entry of `loads`, each with its own
/// schedule, and merges what they observed.
pub fn http_phase(loads: &[HttpLoad<'_>], schedules: &[Vec<Arrival>], seconds: f64) -> PhaseOut {
    let start = Instant::now() + Duration::from_millis(5);
    let outs: Vec<PhaseOut> = std::thread::scope(|s| {
        let handles: Vec<_> = loads
            .iter()
            .zip(schedules)
            .map(|(load, arrivals)| s.spawn(move || http(load, arrivals, start, seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    let mut merged = PhaseOut::default();
    for o in outs {
        merged.merge(o);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_the_offered_count_in_order_and_in_range() {
        let mut rng = Rng::new(3);
        let s = schedule(120.0, 2.5, 64, &mut rng);
        assert_eq!(s.len(), 300);
        assert!(s.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert!(s
            .iter()
            .all(|a| (0.0..2.5).contains(&a.at_s) && a.image < 64));
        let again = schedule(120.0, 2.5, 64, &mut Rng::new(3));
        assert!(s
            .iter()
            .zip(&again)
            .all(|(a, b)| a.at_s == b.at_s && a.image == b.image));
    }

    #[test]
    fn response_heads_parse_incrementally() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n{\"class\":7,}";
        assert_eq!(parse_head(&wire[..20]).unwrap(), None);
        let (status, body, len) = parse_head(wire).unwrap().unwrap();
        assert_eq!((status, len), (200, 12));
        assert_eq!(class_of(&wire[body..]), Some(7));
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
