//! perfbench — the repository benchmark: LookHD serving on the Table-I
//! SPEECH shape (n=617, k=26, q=4, r=5, D=2000).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload speech_paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process generates the inputs from `--seed` and runs three cycles.
//! Each cycle sets up from scratch (fit, then an in-process server
//! through `lookhd_serve::server`) and drives the server over two
//! connections with rounds of closed-loop (capacity) and open-loop
//! (latency) segments. Every served answer passes the correctness gate.
//! The last stdout line is the result object; the line before it is the
//! full record with provenance. See `perfbench/README.md` for the
//! workloads and metrics.

mod gate;
mod layers;
mod report;
mod stats;
mod traffic;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdc::FitClassifier;
use lookhd::LookHdClassifier;

use crate::report::{json_num, json_str, END_TO_END, PER_LAYER};
use crate::traffic::{Answer, Client, Frames, Op, Pace, Phase, Record, Stream};
use crate::workload::Workload;

/// Cycles per run: each sets up from scratch (`setup_s` is the median
/// of their set-up times) and serves its own rounds of traffic, so set-up
/// and traffic samples spread over the whole run.
const CYCLES: usize = 3;
/// Requests in flight per connection in the closed-loop phase.
const CLOSED_WINDOW: usize = 8;
/// Untimed closed-loop warm-up before the measured phases, seconds.
const WARMUP_S: f64 = 0.3;
/// Open-loop predict rate of every workload, requests per second over
/// all its predict connections: about a sixth of the closed-loop
/// capacity. Near half of it, each host stall leaves a backlog that
/// later requests queue behind, and the median follows the host's
/// stalls more than the program.
const OPEN_RATE_RPS: f64 = 60.0;
/// Open-loop feedback rate of `speech_online`, folds per second.
const FEEDBACK_RPS: f64 = 250.0;
/// Folds between two refresh frames on `speech_online` (one refresh
/// every 2 s), and folds per local refresh on `speech_paper`.
const REFRESH_EVERY: u64 = 500;
/// Rounds of closed- and open-loop segments per cycle. On workloads
/// served without online training each round ends with one local
/// refresh (`refresh_p50_ms` is their median materialize time).
const ROUNDS: usize = 2;
/// Pings timed on the idle server in the traced run.
const PINGS: usize = 1000;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A permutation of `0..n` drawn from `seed` (SplitMix64 + Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// What one phase does on both connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Closed,
    Open,
}

/// The traffic orders and pacing of one workload.
struct Plan<'a> {
    workload: Workload,
    orders: [&'a [usize]; 2],
    feedback: &'a [usize],
}

impl Plan<'_> {
    /// Both connections' specs for phase `index` of `kind` over
    /// `[start_ns, end_ns)`.
    fn phases(&self, index: usize, kind: Kind, start_ns: u64, end_ns: u64) -> [Phase<'_>; 2] {
        let phase = |pace, stream| Phase {
            index,
            pace,
            stream,
            start_ns,
            end_ns,
        };
        let closed = Pace::Closed {
            window: CLOSED_WINDOW,
        };
        if self.workload.online() {
            let predict_pace = match kind {
                Kind::Closed => closed,
                Kind::Open => Pace::Open {
                    interval_ns: 1e9 / OPEN_RATE_RPS,
                    offset_ns: 0.0,
                },
            };
            let feedback_pace = Pace::Open {
                interval_ns: 1e9 / FEEDBACK_RPS,
                offset_ns: 0.0,
            };
            [
                phase(predict_pace, Stream::Predicts(self.orders[0])),
                phase(
                    feedback_pace,
                    Stream::Feedback {
                        order: self.feedback,
                        refresh_every: REFRESH_EVERY,
                    },
                ),
            ]
        } else {
            // The rate is split over the two connections, interleaved.
            let interval_ns = 2e9 / OPEN_RATE_RPS;
            let pace = |offset_ns| match kind {
                Kind::Closed => closed,
                Kind::Open => Pace::Open {
                    interval_ns,
                    offset_ns,
                },
            };
            [
                phase(pace(0.0), Stream::Predicts(self.orders[0])),
                phase(pace(interval_ns / 2.0), Stream::Predicts(self.orders[1])),
            ]
        }
    }
}

/// The clock window of one measured phase.
#[derive(Debug, Clone, Copy)]
struct Window {
    index: usize,
    start_ns: u64,
    end_ns: u64,
}

impl Window {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Schedules and runs one phase starting now; returns its window.
fn phase(
    client: &mut Client,
    frames: &Frames,
    plan: &Plan<'_>,
    epoch: Instant,
    index: usize,
    kind: Kind,
    seconds: f64,
) -> Result<Window, String> {
    // A short lead so both threads are ready before the first send.
    let start_ns = epoch.elapsed().as_nanos() as u64 + 2_000_000;
    let end_ns = start_ns + (seconds * 1e9) as u64;
    client
        .run_phase(frames, &plan.phases(index, kind, start_ns, end_ns))
        .map_err(|e| format!("client connection failed: {e}"))?;
    Ok(Window {
        index,
        start_ns,
        end_ns,
    })
}

/// Fit-stage span totals summed over every set-up of a traced run.
#[derive(Debug, Default)]
struct FitSpans {
    fit: Duration,
    counter_train: Duration,
    retrain: Duration,
    compress: Duration,
    kernel_build: Duration,
}

impl FitSpans {
    /// Adds the fit spans recorded between two snapshots taken around one
    /// set-up.
    fn add(&mut self, before: &obs::Snapshot, after: &obs::Snapshot) {
        let d = |name: &str| after.total_for(name).saturating_sub(before.total_for(name));
        self.fit += d("fit");
        self.counter_train += d("counter_train");
        self.retrain += d("retrain");
        self.compress += d("compress");
        self.kernel_build += d("score_lut_build") + d("binary_kernel_build");
    }
}

/// One measured segment of the run.
#[derive(Debug, Clone, Copy)]
struct Segment {
    kind: Kind,
    traced: bool,
    window: Window,
}

fn predicts_in<'a>(
    logs: &'a [&'a [Record]],
    windows: &'a [Window],
) -> impl Iterator<Item = &'a Record> {
    logs.iter().flat_map(|log| log.iter()).filter(move |r| {
        matches!(r.op, Op::Predict(_)) && windows.iter().any(|w| w.index == r.phase)
    })
}

/// Predicts answered inside their segment's window, per second of the
/// windows' total length.
fn throughput(logs: &[&[Record]], windows: &[Window]) -> f64 {
    let done = predicts_in(logs, windows)
        .filter(|r| {
            let w = windows.iter().find(|w| w.index == r.phase).expect("filtered by phase");
            matches!(r.answer, Some((Answer::Class { .. }, at)) if at >= w.start_ns && at < w.end_ns)
        })
        .count();
    done as f64 / windows.iter().map(Window::seconds).sum::<f64>()
}

/// Latencies from due time of every predict sent in `windows`; a refused
/// or unanswered request counts as missing every limit.
fn latencies(logs: &[&[Record]], windows: &[Window]) -> Vec<u64> {
    predicts_in(logs, windows)
        .map(|r| match r.answer {
            Some((Answer::Class { .. }, _)) => r.latency_ns().unwrap_or(u64::MAX),
            _ => u64::MAX,
        })
        .collect()
}

/// Per-segment view of the open-loop segments: requests sent, with
/// their ceil-rank p50 and p99 latency in ms.
fn open_summaries(logs: &[&[Record]], windows: &[Window]) -> Vec<(usize, f64, f64)> {
    windows
        .iter()
        .map(|w| {
            let mut lat = latencies(logs, std::slice::from_ref(w));
            let n = lat.len();
            let p50 = layers::quantile(&mut lat, 0.5, 1e6);
            (n, p50, layers::quantile(&mut lat, 0.99, 1e6))
        })
        .collect()
}

/// Refresh frame → `RefreshAck` times of refreshes sent after phase
/// `warmup`, ns.
fn refresh_rtts(log: &[Record], warmup: usize) -> Vec<u64> {
    log.iter()
        .filter(|r| r.op == Op::Refresh && r.phase > warmup)
        .filter_map(|r| match r.answer {
            Some((Answer::RefreshAck { .. }, at)) => Some(at.saturating_sub(r.sent_ns)),
            _ => None,
        })
        .collect()
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    record: String,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut setup_s = Vec::with_capacity(CYCLES);
    let mut verdict = gate::Verdict::default();
    let mut segments: Vec<Segment> = Vec::new();
    let mut records: [Vec<Record>; 2] = [Vec::new(), Vec::new()];
    let mut refresh_ns = Vec::new();
    let mut ping_ns = Vec::new();
    let mut fit_spans = FitSpans::default();
    let mut first: Option<(Arc<LookHdClassifier>, Vec<u8>)> = None;
    let mut refresher: Option<gate::Refresher> = None;
    let mut cycles = Vec::with_capacity(CYCLES);
    let mut gate_inputs = None;
    let mut next_index = 0;
    let run_before = obs::snapshot();
    let epoch = Instant::now();
    // Rounds of closed- and open-loop segments spread each metric over
    // the whole run; the traced run adds an untraced closed segment per
    // round to compare throughput against.
    let round_s = args.seconds / (CYCLES * ROUNDS) as f64;
    let shape: &[(Kind, bool, f64)] = if args.trace {
        &[
            (Kind::Closed, false, 0.2),
            (Kind::Closed, true, 0.2),
            (Kind::Open, true, 0.6),
        ]
    } else {
        &[(Kind::Closed, false, 0.4), (Kind::Open, false, 0.6)]
    };

    for cycle in 0..CYCLES {
        // Set-up; the traced run records the fit spans.
        obs::set_enabled(args.trace);
        let before = obs::snapshot();
        let served = workload::setup(w, args.seed).map_err(|e| format!("set-up failed: {e}"))?;
        obs::set_enabled(false);
        fit_spans.add(&before, &obs::snapshot());
        setup_s.push(served.seconds);
        let bytes = served
            .model
            .to_bytes()
            .map_err(|e| format!("model does not serialize: {e}"))?;
        let (model, first_bytes) =
            first.get_or_insert_with(|| (served.model.clone(), bytes.clone()));
        if *first_bytes != bytes {
            // Equal seeds must fit bit-identical models.
            verdict.mismatched += 1;
            verdict.failed += 1;
        }
        let refresher = refresher.get_or_insert_with(|| gate::Refresher::new(model.clone()));

        let inputs = &served.inputs;
        let frames = Frames::new(
            &inputs.test.features,
            w.online(),
            &inputs.feedback.features,
            &inputs.feedback.labels,
        );
        let n_test = inputs.test.len();
        let orders = [
            permutation(n_test, args.seed ^ 0x5eed_0001),
            permutation(n_test, args.seed ^ 0x5eed_0002),
        ];
        let feedback_order = permutation(inputs.feedback.len(), args.seed ^ 0x5eed_0003);
        let plan = Plan {
            workload: w,
            orders: [&orders[0], &orders[1]],
            feedback: &feedback_order,
        };
        let mut client = Client::connect(served.handle.addr(), 2, epoch)
            .map_err(|e| format!("connect failed: {e}"))?;
        if args.trace && cycle == 0 {
            ping_ns = client
                .ping_rtts(&frames, next_index, PINGS)
                .map_err(|e| format!("ping failed: {e}"))?;
            next_index += 1;
        }
        let warmup = phase(
            &mut client,
            &frames,
            &plan,
            epoch,
            next_index,
            Kind::Closed,
            WARMUP_S,
        )?;
        next_index += 1;
        for _ in 0..ROUNDS {
            for &(kind, traced, share) in shape {
                obs::set_enabled(traced);
                let window = phase(
                    &mut client,
                    &frames,
                    &plan,
                    epoch,
                    next_index,
                    kind,
                    share * round_s,
                );
                obs::set_enabled(false);
                next_index += 1;
                segments.push(Segment {
                    kind,
                    traced,
                    window: window?,
                });
            }
            if !w.online() {
                refresher.round(inputs, REFRESH_EVERY as usize);
            }
        }
        served.handle.shutdown();
        served.handle.join();
        cycles.push((served.model, client.into_logs(), warmup.index));
        gate_inputs.get_or_insert(served.inputs);
    }
    let run_after = obs::snapshot();
    // Read before the gate, whose replay replicas are the benchmark's own
    // memory, not the workload's.
    let peak_rss_mb = layers::peak_rss_mb();

    // The correctness gate, cycle by cycle: every set-up fits the same
    // model from the same inputs (checked above), so one copy of the
    // inputs serves every cycle.
    let inputs = gate_inputs.expect("at least one cycle");
    for (served_model, logs, warmup) in cycles {
        let cycle_logs: [&[Record]; 2] = [&logs[0].records, &logs[1].records];
        let mut v = if w.online() {
            refresh_ns.extend(refresh_rtts(cycle_logs[1], warmup));
            gate::check_online(&served_model, &inputs, cycle_logs[0], cycle_logs[1])
        } else {
            gate::check_static(&served_model, &inputs, &cycle_logs)
        };
        let unexpected: u64 = logs.iter().map(|l| l.unexpected).sum();
        v.failed += unexpected;
        v.mismatched += unexpected;
        verdict.absorb(v);
        for (all, log) in records.iter_mut().zip(logs) {
            all.extend(log.records);
        }
    }
    let (model, _) = first.expect("at least one cycle");
    if let Some(refresher) = refresher.filter(|_| !w.online()) {
        verdict.observe_ns.extend(refresher.observe_ns);
        verdict.materialize_ns.extend(refresher.materialize_ns);
        refresh_ns.clone_from(&verdict.materialize_ns);
    }
    let logs: [&[Record]; 2] = [&records[0], &records[1]];
    let select = |kind: Kind, traced: bool| -> Vec<Window> {
        segments
            .iter()
            .filter(|seg| seg.kind == kind && seg.traced == traced)
            .map(|seg| seg.window)
            .collect()
    };
    let closed = select(Kind::Closed, args.trace);
    let open = select(Kind::Open, args.trace);
    let closed_tput = throughput(&logs, &closed);
    let q = layers::quantile;
    let mut unbounded: Vec<(&str, f64)> = Vec::new();

    if args.trace {
        let untraced_tput = throughput(&logs, &select(Kind::Closed, false));
        let twin = LookHdClassifier::fit(
            &workload::lut_twin_config(),
            &inputs.train.features,
            &inputs.train.labels,
        )
        .map_err(|e| format!("score-LUT twin fit failed: {e}"))?;
        let mut times = layers::time_model(&model, &twin, &inputs.test.features, 2);
        metrics.insert("encoder.addresses_us", q(&mut times.addresses, 0.5, 1e3));
        metrics.insert("encoder.aggregate_us", q(&mut times.aggregate, 0.5, 1e3));
        metrics.insert(
            "kernel.dense_scores_us",
            q(&mut times.dense_scores, 0.5, 1e3),
        );
        metrics.insert("kernel.lut_scores_us", q(&mut times.lut_scores, 0.5, 1e3));
        metrics.insert(
            "kernel.size_mb",
            (model.compressed().size_bytes() + model.kernel().size_bytes()) as f64 / 1e6,
        );
        metrics.insert("classifier.predict_us", q(&mut times.predict, 0.5, 1e3));
        metrics.insert(
            "classifier.predict_p99_us",
            q(&mut times.predict, 0.99, 1e3),
        );
        metrics.insert(
            "classifier.predict_batch16_us",
            q(&mut times.predict_batch16, 0.5, 1e3),
        );

        let fits = CYCLES as f64;
        let f = &fit_spans;
        metrics.insert("fit.total_s", f.fit.as_secs_f64() / fits);
        metrics.insert("fit.counter_train_s", f.counter_train.as_secs_f64() / fits);
        metrics.insert("fit.retrain_s", f.retrain.as_secs_f64() / fits);
        metrics.insert("fit.compress_ms", f.compress.as_secs_f64() * 1e3 / fits);
        metrics.insert(
            "fit.kernel_build_ms",
            f.kernel_build.as_secs_f64() * 1e3 / fits,
        );

        // obs records serve spans only while a traced segment runs, so
        // their difference over the run is exactly the traced traffic.
        let (b, a) = (&run_before, &run_after);
        let mean = |path| layers::span_mean(b, a, path, 1e3);
        let decode = mean("serve/decode");
        let queue_wait = mean("serve/queue_wait");
        let batch = mean("serve/batch");
        let encode = mean("serve/encode");
        metrics.insert("serve.decode_us", decode);
        metrics.insert("serve.queue_wait_us", queue_wait);
        metrics.insert("serve.batch_us", batch);
        metrics.insert("serve.encode_us", encode);
        // Batch sizes are recorded as n "nanoseconds" per batch.
        metrics.insert(
            "serve.batch_size",
            layers::span_mean(b, a, "serve/batch_size", 1.0),
        );
        metrics.insert("serve.ping_rtt_us", q(&mut ping_ns, 0.5, 1e3));
        let rejected: u64 = [
            "serve.overload_rejections",
            "serve.deadline_misses",
            "serve.accept_sheds",
            "serve.conn_rejections",
            "serve.slow_client_drops",
        ]
        .iter()
        .map(|name| layers::counter_delta(b, a, name))
        .sum();
        metrics.insert("serve.rejected", rejected as f64);
        // Client-side mean round trip of the traced predicts against the
        // sum of the server's mean stage times.
        let traced: Vec<usize> = segments
            .iter()
            .filter(|seg| seg.traced)
            .map(|seg| seg.window.index)
            .collect();
        let rtts: Vec<u64> = logs
            .iter()
            .flat_map(|log| log.iter())
            .filter(|r| traced.contains(&r.phase) && matches!(r.op, Op::Predict(_)))
            .filter_map(|r| r.answer.map(|(_, at)| at.saturating_sub(r.sent_ns)))
            .collect();
        let e2e_us = rtts.iter().sum::<u64>() as f64 / rtts.len().max(1) as f64 / 1e3;
        let stages_us = decode + queue_wait + batch + encode;
        metrics.insert("serve.stage_gap_pct", (e2e_us - stages_us) / e2e_us * 100.0);
        metrics.insert("online.observe_us", q(&mut verdict.observe_ns, 0.5, 1e3));
        metrics.insert(
            "online.materialize_ms",
            q(&mut verdict.materialize_ns, 0.5, 1e6),
        );
        metrics.insert(
            "serve.model_swaps",
            layers::counter_delta(b, a, "serve.model_swaps") as f64,
        );
        let open_index: Vec<usize> = open.iter().map(|w| w.index).collect();
        let mut lags: Vec<u64> = logs
            .iter()
            .flat_map(|log| log.iter())
            .filter(|r| open_index.contains(&r.phase))
            .map(|r| r.sent_ns - r.due_ns)
            .collect();
        metrics.insert("client.send_lag_p99_ms", q(&mut lags, 0.99, 1e6));
        metrics.insert(
            "obs.trace_overhead_pct",
            (untraced_tput - closed_tput) / untraced_tput * 100.0,
        );
    } else {
        let mut lat = latencies(&logs, &open);
        metrics.insert("setup_s", stats::median(&setup_s).expect("set-up ran"));
        metrics.insert("throughput_rps", closed_tput);
        metrics.insert("latency_p50_ms", q(&mut lat, 0.5, 1e6));
        // Reported, not bounded (see README): on a shared 2-vCPU host the
        // latency tail follows host stalls, refresh times follow the
        // host's memory speed, and the online server's peak memory follows
        // allocator arena reuse, more than the program.
        unbounded.push(("latency_p90_ms", q(&mut lat, 0.9, 1e6)));
        unbounded.push(("latency_p95_ms", q(&mut lat, 0.95, 1e6)));
        unbounded.push(("latency_p99_ms", q(&mut lat, 0.99, 1e6)));
        metrics.insert("accuracy", verdict.accuracy());
        unbounded.push(("refresh_p50_ms", q(&mut refresh_ns, 0.5, 1e6)));
        unbounded.push((
            "peak_rss_mb",
            peak_rss_mb.ok_or("VmHWM is not readable from /proc/self/status")?,
        ));
    }
    let error_rate = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    if args.trace {
        metrics.insert("error_rate", error_rate);
    } else {
        metrics.insert("ok_rate", 1.0 - error_rate);
    }

    let windows: Vec<String> = open_summaries(&logs, &open)
        .iter()
        .map(|(n, p50, p99)| format!("[{n}, {}, {}]", json_num(*p50), json_num(*p99)))
        .collect();
    let record = record_line(
        args,
        &verdict,
        &setup_s,
        model.kernel().name(),
        &metrics,
        &unbounded,
        &windows,
    );
    Ok(Outcome {
        correct: verdict.mismatched == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        record,
    })
}

/// The full record: provenance, counts and every metric with its source.
fn record_line(
    args: &Args,
    v: &gate::Verdict,
    setup_s: &[f64],
    kernel: &str,
    metrics: &BTreeMap<&'static str, f64>,
    unbounded: &[(&str, f64)],
    windows: &[String],
) -> String {
    let root = Path::new(".");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sources: Vec<String> = PER_LAYER
        .iter()
        .filter(|(name, _, _)| metrics.contains_key(name))
        .map(|(name, _, source)| format!("{}: {}", json_str(name), json_str(source.as_str())))
        .collect();
    let all: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("{}: {}", json_str(name), json_num(*value)))
        .collect();
    let setups: Vec<String> = setup_s.iter().map(|x| json_num(*x)).collect();
    let extra: Vec<String> = unbounded
        .iter()
        .map(|(name, value)| format!("{}: {}", json_str(name), json_num(*value)))
        .collect();
    format!(
        "{{\"record\": \"perfbench\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
\"provenance\": {{\"host_cores\": {cores}, \"loadgen_shares_host\": true, \"git_commit\": {}, \"source\": {}}}, \
\"model\": {{\"kernel\": {}, \"n\": 617, \"k\": 26, \"q\": 4, \"r\": 5, \"dim\": 2000}}, \
\"counts\": {{\"attempted\": {}, \"failed\": {}, \"refused\": {}, \"dropped\": {}, \"mismatched\": {}, \"served_predicts\": {}}}, \
\"setup_s\": [{}], \"open_loop_segments\": [{}], \"metrics\": {{{}}}, \"unbounded\": {{{}}}, \"sources\": {{{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(&report::git_commit(root)),
        json_str(&report::source_fingerprint(root)),
        json_str(kernel),
        v.attempted,
        v.failed,
        v.refused,
        v.dropped,
        v.mismatched,
        v.served_predicts,
        setups.join(", "),
        windows.join(", "),
        all.join(", "),
        extra.join(", "),
        sources.join(", "),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <speech_paper|speech_online> \
--seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            let names: Vec<(&str, &str)> = if args.trace {
                PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
            } else {
                END_TO_END.to_vec()
            };
            println!("{}", outcome.record);
            println!(
                "{}",
                report::result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &names,
                    &outcome.metrics
                )
            );
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: served answers failed the correctness gate");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded() {
        let a = permutation(520, 3);
        assert_eq!(a, permutation(520, 3));
        assert_ne!(a, permutation(520, 4));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..520).collect::<Vec<_>>());
    }

    #[test]
    fn args_parse_the_documented_form() {
        let argv = [
            "--workload",
            "speech_online",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let args = parse_args(argv.iter().map(|s| s.to_string())).expect("parses");
        assert_eq!(args.workload, Workload::Online);
        assert_eq!((args.seed, args.seconds, args.trace), (9, 10.0, true));
        let bad = ["--workload", "nope", "--seed", "1"];
        assert!(parse_args(bad.iter().map(|s| s.to_string())).is_err());
    }
}
