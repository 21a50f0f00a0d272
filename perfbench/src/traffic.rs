//! The load generator: two connections driven by two threads. The
//! calling thread waits on both sockets with epoll, timestamps every
//! answer as it arrives and keeps closed-loop windows full; a sender
//! thread writes the open-loop schedule, sleeping with 1 ns timer slack
//! between sends.
//!
//! Every request gets a log record holding when it was due, when it was
//! written, and the answer with its arrival time. Open-loop requests are
//! due on a fixed schedule whether or not earlier ones were answered, and
//! their latency is taken from that due time, so a stall that delays the
//! generator is charged to every request scheduled behind it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lookhd_serve::wire::{self, ErrorCode, FrameDecoder, Request, Response};
use netpoll::{Interest, Poller};

/// What one request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Classify test query `qi` (version-stamped on online servers).
    Predict(usize),
    /// Fold held-out feedback row `fi`.
    Feedback(usize),
    /// Materialize and hot-swap a new model version.
    Refresh,
    /// Liveness round trip.
    Ping,
}

/// The part of a response the benchmark checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// A predict (unstamped, or stamped with the answering version).
    Class { class: u32, version: Option<u64> },
    /// A feedback fold was acknowledged.
    FeedbackAck { version: u64, observed: u64 },
    /// A refresh swapped in `version`.
    RefreshAck { version: u64 },
    /// A pong.
    Pong,
    /// The server refused or failed the request.
    Error(ErrorCode),
}

impl Answer {
    fn from_response(response: &Response) -> Answer {
        match *response {
            Response::Predict { class, .. } => Answer::Class {
                class,
                version: None,
            },
            Response::PredictStamped { class, version, .. } => Answer::Class {
                class,
                version: Some(version),
            },
            Response::FeedbackAck {
                version, observed, ..
            } => Answer::FeedbackAck { version, observed },
            Response::RefreshAck { version, .. } => Answer::RefreshAck { version },
            Response::Pong { .. } => Answer::Pong,
            Response::Error { code, .. } => Answer::Error(code),
        }
    }
}

/// One request as the generator saw it. Times are nanoseconds since the
/// run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// What was asked.
    pub op: Op,
    /// Index of the phase that sent it.
    pub phase: usize,
    /// When the schedule wanted it sent (the send time in closed loop).
    pub due_ns: u64,
    /// When the frame was written.
    pub sent_ns: u64,
    /// The answer and its arrival time; `None` if it never came.
    pub answer: Option<(Answer, u64)>,
}

impl Record {
    /// Latency from the due time (open loop) or send time (closed loop).
    pub fn latency_ns(&self) -> Option<u64> {
        self.answer.map(|(_, at)| at.saturating_sub(self.due_ns))
    }
}

/// Pre-encoded request frames (length prefix included) whose request id
/// is patched in at send time, so the generator does no per-request
/// feature encoding.
pub struct Frames {
    predict: Vec<Vec<u8>>,
    feedback: Vec<Vec<u8>>,
    refresh: Vec<u8>,
    ping: Vec<u8>,
}

/// Byte offset of the request id in a framed request: 4-byte length
/// prefix, 4-byte magic, version byte, kind byte.
const ID_OFFSET: usize = 10;

fn framed(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::write_request(&mut frame, request).expect("writing to a Vec cannot fail");
    frame
}

impl Frames {
    /// Encodes every test query (stamped when `stamped`) and every
    /// labelled feedback row once.
    pub fn new(
        queries: &[Vec<f64>],
        stamped: bool,
        feedback: &[Vec<f64>],
        labels: &[usize],
    ) -> Frames {
        let predict = queries
            .iter()
            .map(|q| {
                let features = q.clone();
                framed(&if stamped {
                    Request::PredictStamped {
                        id: 0,
                        trace_id: 0,
                        features,
                    }
                } else {
                    Request::Predict {
                        id: 0,
                        trace_id: 0,
                        features,
                    }
                })
            })
            .collect();
        let feedback = feedback
            .iter()
            .zip(labels)
            .map(|(row, &label)| {
                framed(&Request::Feedback {
                    id: 0,
                    trace_id: 0,
                    label: u32::try_from(label).expect("SPEECH labels fit in u32"),
                    features: row.clone(),
                })
            })
            .collect();
        Frames {
            predict,
            feedback,
            refresh: framed(&Request::Refresh { id: 0, trace_id: 0 }),
            ping: framed(&Request::Ping { id: 0 }),
        }
    }

    fn frame(&self, op: Op) -> &[u8] {
        match op {
            Op::Predict(qi) => &self.predict[qi],
            Op::Feedback(fi) => &self.feedback[fi],
            Op::Refresh => &self.refresh,
            Op::Ping => &self.ping,
        }
    }
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Keep `window` requests in flight until the phase ends.
    Closed { window: usize },
    /// Send one request every `interval_ns`, the first `offset_ns` after
    /// the phase starts.
    Open { interval_ns: f64, offset_ns: f64 },
}

/// Which requests a phase sends.
#[derive(Debug, Clone, Copy)]
pub enum Stream<'a> {
    /// Predicts over the test queries, in this order, cycling.
    Predicts(&'a [usize]),
    /// Feedback over the held-out rows, in this order, cycling, with a
    /// refresh frame after every `refresh_every`-th fold.
    Feedback {
        order: &'a [usize],
        refresh_every: u64,
    },
}

/// One phase of one connection, on the run's shared clock.
#[derive(Debug, Clone, Copy)]
pub struct Phase<'a> {
    /// Index stored in every record the phase sends.
    pub index: usize,
    pub pace: Pace,
    pub stream: Stream<'a>,
    /// Phase start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// Phase end, nanoseconds since the epoch.
    pub end_ns: u64,
}

/// How long a phase waits for its last answers before counting the
/// rest as dropped.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// What one connection has sent and received so far.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Indexed by request id.
    pub records: Vec<Record>,
    /// Answers that matched no outstanding request.
    pub unexpected: u64,
    outstanding: usize,
    /// Running position in each stream, kept across phases.
    predicts_sent: usize,
    folds_sent: u64,
}

impl ConnLog {
    fn next_op(&mut self, stream: Stream<'_>) -> Op {
        match stream {
            Stream::Predicts(order) => {
                let qi = order[self.predicts_sent % order.len()];
                self.predicts_sent += 1;
                Op::Predict(qi)
            }
            Stream::Feedback { order, .. } => {
                let fi = order[(self.folds_sent % order.len() as u64) as usize];
                self.folds_sent += 1;
                Op::Feedback(fi)
            }
        }
    }

    fn log(&mut self, op: Op, phase: usize, due_ns: u64, sent_ns: u64) -> u64 {
        let id = self.records.len() as u64;
        self.records.push(Record {
            op,
            phase,
            due_ns: due_ns.min(sent_ns),
            sent_ns,
            answer: None,
        });
        self.outstanding += 1;
        id
    }
}

struct Conn {
    stream: TcpStream,
    log: Mutex<ConnLog>,
}

fn lock(log: &Mutex<ConnLog>) -> std::sync::MutexGuard<'_, ConnLog> {
    log.lock().expect("a client thread panicked while logging")
}

/// Writes all of `buf` to the nonblocking `stream`, waiting out a full
/// send buffer.
fn write_fully(mut stream: &TcpStream, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl Conn {
    /// Logs and writes `op`, stamping the request id into the frame.
    fn send(
        &self,
        frames: &Frames,
        op: Op,
        phase: usize,
        due_ns: u64,
        clock: &Clock,
        scratch: &mut Vec<u8>,
    ) -> io::Result<()> {
        let id = lock(&self.log).log(op, phase, due_ns, clock.now_ns());
        scratch.clear();
        scratch.extend_from_slice(frames.frame(op));
        scratch[ID_OFFSET..ID_OFFSET + 8].copy_from_slice(&id.to_le_bytes());
        write_fully(&self.stream, scratch)
    }

    /// Sends the next op of `phase`, plus a refresh frame when this fold
    /// completes a refresh period.
    fn send_next(
        &self,
        frames: &Frames,
        phase: &Phase<'_>,
        due_ns: u64,
        clock: &Clock,
        scratch: &mut Vec<u8>,
    ) -> io::Result<()> {
        let (op, refresh) = {
            let mut log = lock(&self.log);
            let op = log.next_op(phase.stream);
            let refresh = matches!(phase.stream,
                Stream::Feedback { refresh_every, .. } if log.folds_sent.is_multiple_of(refresh_every));
            (op, refresh)
        };
        self.send(frames, op, phase.index, due_ns, clock, scratch)?;
        if refresh {
            self.send(frames, Op::Refresh, phase.index, due_ns, clock, scratch)?;
        }
        Ok(())
    }
}

/// Nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn sleep_until(&self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

/// Asks the kernel to wake this thread's sleeps on time: with the
/// default 50 µs timer slack every open-loop send would run late.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument (the
    // slack in nanoseconds) and touches no memory of this process. A
    // failure only leaves the default slack in place.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// The load generator's connections. A phase runs on two threads: the
/// calling thread receives every answer (and keeps closed-loop windows
/// full), a second thread sends the open-loop schedule.
pub struct Client {
    conns: Vec<Conn>,
    decoders: Vec<FrameDecoder>,
    poller: Poller,
    clock: Clock,
}

impl Client {
    /// Opens `n` connections to `addr`; all times are measured from
    /// `epoch`.
    pub fn connect(addr: SocketAddr, n: usize, epoch: Instant) -> io::Result<Client> {
        let poller = Poller::new()?;
        let mut conns = Vec::with_capacity(n);
        for token in 0..n {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.register(netpoll::raw_fd(&stream), token as u64, Interest::READABLE)?;
            conns.push(Conn {
                stream,
                log: Mutex::new(ConnLog::default()),
            });
        }
        Ok(Client {
            conns,
            decoders: (0..n).map(|_| FrameDecoder::new()).collect(),
            poller,
            clock: Clock(epoch),
        })
    }

    /// Reads every answer connection `i` has buffered; returns whether
    /// any arrived.
    fn read_answers(conn: &Conn, decoder: &mut FrameDecoder, clock: &Clock) -> io::Result<bool> {
        let mut any = false;
        loop {
            let n = match (&conn.stream).read(decoder.space(64 * 1024)) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let at = clock.now_ns();
            decoder.commit(n);
            let mut log = lock(&conn.log);
            while let Some(body) = decoder.next_frame().map_err(io::Error::other)? {
                let response = wire::decode_response(body).map_err(io::Error::other)?;
                let slot = usize::try_from(response.id())
                    .ok()
                    .and_then(|id| log.records.get_mut(id))
                    .filter(|record| record.answer.is_none());
                match slot {
                    Some(record) => {
                        record.answer = Some((Answer::from_response(&response), at));
                        log.outstanding -= 1;
                        any = true;
                    }
                    None => log.unexpected += 1,
                }
            }
        }
    }

    /// Runs one phase per connection (`phases[i]` on connection `i`) to
    /// its end, then waits for the remaining answers.
    pub fn run_phase(&mut self, frames: &Frames, phases: &[Phase<'_>]) -> io::Result<()> {
        assert_eq!(phases.len(), self.conns.len(), "one phase per connection");
        let Client {
            conns,
            decoders,
            poller,
            clock,
        } = self;
        let (conns, clock) = (&*conns, *clock);
        let end_ns = phases.iter().map(|p| p.end_ns).max().unwrap_or(0);
        let sender_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                let sent = send_open_loop(conns, frames, phases, &clock);
                sender_done.store(true, Ordering::SeqCst);
                sent
            });
            let received = (|| {
                let mut scratch = Vec::new();
                let mut events = Vec::new();
                let mut drain_limit = None;
                clock.sleep_until(phases.iter().map(|p| p.start_ns).min().unwrap_or(0));
                loop {
                    let now = clock.now_ns();
                    for (conn, phase) in conns.iter().zip(phases) {
                        if let Pace::Closed { window } = phase.pace {
                            while now < phase.end_ns && lock(&conn.log).outstanding < window {
                                conn.send_next(
                                    frames,
                                    phase,
                                    clock.now_ns(),
                                    &clock,
                                    &mut scratch,
                                )?;
                            }
                        }
                    }
                    if sender_done.load(Ordering::SeqCst) && now >= end_ns {
                        if conns.iter().all(|c| lock(&c.log).outstanding == 0) {
                            return Ok(());
                        }
                        let limit = *drain_limit.get_or_insert(now + DRAIN_LIMIT.as_nanos() as u64);
                        if now >= limit {
                            return Ok(());
                        }
                    }
                    poller.wait(&mut events, Some(Duration::from_millis(2)))?;
                    for (conn, decoder) in conns.iter().zip(decoders.iter_mut()) {
                        Self::read_answers(conn, decoder, &clock)?;
                    }
                }
            })();
            let sent = sender.join().expect("the sender thread panicked");
            received.and(sent)
        })
    }

    /// Round-trips `count` pings on connection 0 of an otherwise idle
    /// server and returns each round-trip time in nanoseconds.
    pub fn ping_rtts(
        &mut self,
        frames: &Frames,
        phase: usize,
        count: usize,
    ) -> io::Result<Vec<u64>> {
        let clock = self.clock;
        let mut scratch = Vec::new();
        let mut events = Vec::new();
        let mut rtts = Vec::with_capacity(count);
        for _ in 0..count {
            let now = clock.now_ns();
            self.conns[0].send(frames, Op::Ping, phase, now, &clock, &mut scratch)?;
            let limit = now + DRAIN_LIMIT.as_nanos() as u64;
            while lock(&self.conns[0].log).outstanding > 0 && clock.now_ns() < limit {
                self.poller
                    .wait(&mut events, Some(Duration::from_millis(2)))?;
                Self::read_answers(&self.conns[0], &mut self.decoders[0], &clock)?;
            }
            if let Some(latency) = lock(&self.conns[0].log)
                .records
                .last()
                .and_then(Record::latency_ns)
            {
                rtts.push(latency);
            }
        }
        Ok(rtts)
    }

    /// Every connection's log, in connection order.
    pub fn into_logs(self) -> Vec<ConnLog> {
        self.conns
            .into_iter()
            .map(|c| {
                c.log
                    .into_inner()
                    .expect("a client thread panicked while logging")
            })
            .collect()
    }
}

/// Sends every open-loop phase's schedule, earliest due first.
fn send_open_loop(
    conns: &[Conn],
    frames: &Frames,
    phases: &[Phase<'_>],
    clock: &Clock,
) -> io::Result<()> {
    tighten_timer_slack();
    let mut scratch = Vec::new();
    // (next k, count, interval, first due) per connection.
    let mut plan: Vec<Option<(u64, u64, f64, f64)>> = phases
        .iter()
        .map(|phase| match phase.pace {
            Pace::Open {
                interval_ns,
                offset_ns,
            } => {
                let span = (phase.end_ns - phase.start_ns) as f64;
                let count = ((span - offset_ns) / interval_ns).ceil().max(0.0) as u64;
                Some((0, count, interval_ns, phase.start_ns as f64 + offset_ns))
            }
            Pace::Closed { .. } => None,
        })
        .collect();
    loop {
        let next = plan
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                p.filter(|(k, count, _, _)| k < count)
                    .map(|(k, _, iv, first)| (i, (first + k as f64 * iv) as u64))
            })
            .min_by_key(|&(_, due)| due);
        let Some((i, due)) = next else {
            return Ok(());
        };
        clock.sleep_until(due);
        conns[i].send_next(frames, &phases[i], due, clock, &mut scratch)?;
        if let Some((k, ..)) = plan[i].as_mut() {
            *k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection predict server that answers class 0 at once,
    /// except that it sleeps `stall` before answering request `stall_at`.
    fn stalling_server(
        stall_at: u64,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            conn.set_nodelay(true).expect("nodelay");
            while let Ok(request) = wire::read_request(&mut conn) {
                let id = request.id();
                if id == stall_at {
                    std::thread::sleep(stall);
                }
                let response = Response::Predict {
                    id,
                    trace_id: 0,
                    class: 0,
                };
                if wire::write_response(&mut conn, &response).is_err() {
                    break;
                }
            }
        });
        (addr, server)
    }

    fn finish(client: Client, server: std::thread::JoinHandle<()>) -> ConnLog {
        for conn in &client.conns {
            drop(conn.stream.shutdown(std::net::Shutdown::Both));
        }
        let mut logs = client.into_logs();
        server.join().expect("server thread");
        logs.remove(0)
    }

    #[test]
    fn patched_frames_decode_to_the_sent_id() {
        let frames = Frames::new(&[vec![0.5; 3]], true, &[vec![0.25; 3]], &[2]);
        for op in [Op::Predict(0), Op::Feedback(0), Op::Refresh, Op::Ping] {
            let mut frame = frames.frame(op).to_vec();
            frame[ID_OFFSET..ID_OFFSET + 8].copy_from_slice(&77u64.to_le_bytes());
            let request = wire::read_request(&mut frame.as_slice()).expect("decodes");
            assert_eq!(request.id(), 77, "{op:?}");
        }
    }

    #[test]
    fn a_stall_inflates_the_open_loop_latency_of_later_requests() {
        let stall = Duration::from_millis(60);
        let (addr, server) = stalling_server(10, stall);
        let mut client = Client::connect(addr, 1, Instant::now()).expect("connect");
        let frames = Frames::new(&[vec![0.5; 3]], false, &[], &[]);
        let order = [0usize];
        let start_ns = 5_000_000;
        let phase = Phase {
            index: 0,
            // One request per millisecond for 100 ms.
            pace: Pace::Open {
                interval_ns: 1e6,
                offset_ns: 0.0,
            },
            stream: Stream::Predicts(&order),
            start_ns,
            end_ns: start_ns + 100_000_000,
        };
        client.run_phase(&frames, &[phase]).expect("phase runs");
        let log = finish(client, server);

        let latencies: Vec<u64> = log
            .records
            .iter()
            .map(|r| r.latency_ns().expect("every request answered"))
            .collect();
        assert_eq!(latencies.len(), 100);
        // Requests due during the stall wait for it: the one due 10 ms
        // into it still carries ~50 ms, although the server answered it
        // at once after the stall.
        assert!(latencies[10] >= stall.as_nanos() as u64);
        assert!(latencies[20] >= 40_000_000, "{}", latencies[20]);
        // Well before the stall nothing waits that long.
        assert!(latencies[..10].iter().all(|&l| l < 30_000_000));
        // The schedule kept going: sends stayed on time through the stall.
        assert!(log.records[30].sent_ns - log.records[30].due_ns < 20_000_000);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_loses_nothing() {
        let (addr, server) = stalling_server(u64::MAX, Duration::ZERO);
        let mut client = Client::connect(addr, 1, Instant::now()).expect("connect");
        let frames = Frames::new(&[vec![0.5; 3], vec![0.7; 3]], false, &[], &[]);
        let order = [1usize, 0];
        let phase = Phase {
            index: 3,
            pace: Pace::Closed { window: 8 },
            stream: Stream::Predicts(&order),
            start_ns: 0,
            end_ns: 30_000_000,
        };
        client.run_phase(&frames, &[phase]).expect("phase runs");
        let log = finish(client, server);
        assert!(log.records.len() > 8);
        assert_eq!(log.unexpected, 0);
        assert!(log
            .records
            .iter()
            .all(|r| r.answer.is_some() && r.phase == 3));
        assert_eq!(log.records[0].op, Op::Predict(1));
        assert_eq!(log.records[1].op, Op::Predict(0));
    }

    #[test]
    fn feedback_streams_send_a_refresh_after_every_period() {
        let (addr, server) = stalling_server(u64::MAX, Duration::ZERO);
        let mut client = Client::connect(addr, 1, Instant::now()).expect("connect");
        let frames = Frames::new(&[], false, &[vec![0.1; 3], vec![0.2; 3]], &[0, 1]);
        let order = [0usize, 1];
        let phase = Phase {
            index: 0,
            pace: Pace::Open {
                interval_ns: 1e6,
                offset_ns: 0.0,
            },
            stream: Stream::Feedback {
                order: &order,
                refresh_every: 3,
            },
            start_ns: 1_000_000,
            end_ns: 8_000_000,
        };
        client.run_phase(&frames, &[phase]).expect("phase runs");
        let ops: Vec<Op> = finish(client, server)
            .records
            .iter()
            .map(|r| r.op)
            .collect();
        use Op::{Feedback as F, Refresh as R};
        assert_eq!(ops, [F(0), F(1), F(0), R, F(1), F(0), F(1), R, F(0)]);
    }
}
