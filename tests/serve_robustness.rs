//! Robustness tests for the batched inference server's flow-control
//! machinery: per-request deadlines expire queued work (and free the
//! slot), a full bounded queue rejects with a backpressure error instead
//! of buffering unboundedly, graceful shutdown drains every accepted
//! request before the workers exit, and a port another socket holds is
//! reported as a bind error.

use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use lookhd_paper::hdc::{Classifier, HdcError, Result as HdcResult};
use lookhd_paper::serve::{self, Client, ErrorCode, Request, Response, ServeConfig};

/// Sign-of-first-feature classifier that sleeps in `predict`, simulating
/// an expensive model so requests pile up behind the workers.
struct SlowStub {
    delay: Duration,
}

impl Classifier for SlowStub {
    fn num_classes(&self) -> usize {
        2
    }

    fn predict(&self, features: &[f64]) -> HdcResult<usize> {
        std::thread::sleep(self.delay);
        match features.first() {
            Some(&v) => Ok(usize::from(v >= 0.0)),
            None => Err(HdcError::invalid_dataset("empty feature vector")),
        }
    }
}

fn start_slow(delay: Duration, config: ServeConfig) -> serve::ServerHandle {
    serve::start("127.0.0.1:0", Arc::new(SlowStub { delay }), config).expect("bind failed")
}

/// Requests that sit in the queue past their deadline get a
/// `DeadlineExceeded` error instead of a stale (but expensive) answer,
/// and the freed server keeps serving fresh requests afterwards.
#[test]
fn queued_requests_past_their_deadline_time_out() {
    let handle = start_slow(
        Duration::from_millis(80),
        ServeConfig::new()
            .with_workers(1)
            .with_max_batch(1)
            .with_timeout(Duration::from_millis(30)),
    );
    let mut client = Client::connect(handle.addr()).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Pipeline three requests: the first is picked up fresh; the other
    // two wait the full 80 ms service time and expire (80 ms > 30 ms).
    for id in 0..3u64 {
        client
            .send(&Request::Predict {
                id,
                trace_id: 0,
                features: vec![1.0],
            })
            .expect("send failed");
    }
    let mut ok = 0usize;
    let mut expired = 0usize;
    for _ in 0..3 {
        match client.recv().expect("recv failed") {
            Response::Predict { class: 1, .. } => ok += 1,
            Response::Error {
                code: ErrorCode::DeadlineExceeded,
                ..
            } => expired += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok, 1, "exactly the fresh request should be served");
    assert_eq!(expired, 2, "stale queued requests should expire");

    // The expired requests freed their slots: a fresh request succeeds.
    match client.predict(99, &[1.0]).expect("round trip failed") {
        Response::Predict {
            id: 99, class: 1, ..
        } => {}
        other => panic!("unexpected response {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

/// With the queue full and the worker busy, further requests are
/// rejected immediately with `Overloaded` — every request still gets
/// exactly one response, and the server recovers once drained.
#[test]
fn full_queue_rejects_with_backpressure_error() {
    const BURST: u64 = 8;
    let handle = start_slow(
        Duration::from_millis(100),
        ServeConfig::new()
            .with_workers(1)
            .with_max_batch(1)
            .with_queue_cap(2)
            .with_timeout(Duration::from_secs(10)),
    );
    let mut client = Client::connect(handle.addr()).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    for id in 0..BURST {
        client
            .send(&Request::Predict {
                id,
                trace_id: 0,
                features: vec![1.0],
            })
            .expect("send failed");
    }
    let mut served = Vec::new();
    let mut rejected = Vec::new();
    for _ in 0..BURST {
        match client.recv().expect("recv failed") {
            Response::Predict { id, class: 1, .. } => served.push(id),
            Response::Error {
                id,
                code: ErrorCode::Overloaded,
                ..
            } => rejected.push(id),
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(
        !rejected.is_empty(),
        "a burst of {BURST} against queue_cap=2 must trip backpressure"
    );
    assert!(!served.is_empty(), "accepted requests must still be served");
    let mut all: Vec<u64> = served.iter().chain(&rejected).copied().collect();
    all.sort_unstable();
    assert_eq!(
        all,
        (0..BURST).collect::<Vec<_>>(),
        "every id answered once"
    );

    // Once the backlog drains, capacity is available again.
    match client.predict(1000, &[1.0]).expect("round trip failed") {
        Response::Predict {
            id: 1000, class: 1, ..
        } => {}
        other => panic!("unexpected response {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

/// Graceful shutdown drains in-flight work: every request accepted
/// before the shutdown gets its real response, then all threads join.
#[test]
fn graceful_shutdown_drains_accepted_requests() {
    const PREDICTS: u64 = 4;
    let handle = start_slow(
        Duration::from_millis(20),
        ServeConfig::new()
            .with_workers(1)
            .with_max_batch(1)
            .with_queue_cap(64)
            .with_timeout(Duration::from_secs(10)),
    );
    let mut client = Client::connect(handle.addr()).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    for id in 0..PREDICTS {
        client
            .send(&Request::Predict {
                id,
                trace_id: 0,
                features: vec![1.0],
            })
            .expect("send failed");
    }
    // The ping is answered inline by the reader thread, so receiving the
    // pong proves the server consumed (and enqueued) all four predicts.
    // It must arrive *before* we trigger shutdown: shutdown half-closes
    // the read side, and unread frames would otherwise race with it.
    client
        .send(&Request::Ping { id: u64::MAX })
        .expect("send failed");
    let mut pongs = 0usize;
    let mut classes = vec![None; PREDICTS as usize];
    while pongs == 0 {
        match client.recv().expect("recv failed") {
            Response::Pong { id } => {
                assert_eq!(id, u64::MAX);
                pongs += 1;
            }
            Response::Predict { id, class, .. } => classes[id as usize] = Some(class),
            other => panic!("unexpected response {other:?}"),
        }
    }

    // Trigger shutdown while the slow worker still has a backlog, then
    // collect the remaining predict responses — none may be dropped.
    handle.shutdown();
    while classes.iter().any(Option::is_none) {
        match client.recv().expect("shutdown dropped an accepted request") {
            Response::Predict { id, class, .. } => classes[id as usize] = Some(class),
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(
        classes.iter().all(|c| *c == Some(1)),
        "every accepted predict must be answered before shutdown: {classes:?}"
    );

    // All threads (accept, readers, workers) terminate.
    handle.join();
}

/// A port held by a plain (non-`SO_REUSEPORT`) listener cannot be
/// shared: `start` returns the bind error — it neither panics, hangs,
/// nor quietly serves on some other socket — for one reactor and many.
#[test]
fn start_on_a_port_held_without_reuseport_returns_addr_in_use() {
    let held = TcpListener::bind("127.0.0.1:0").expect("bind failed");
    let addr = held.local_addr().unwrap();
    for reactors in [1, 2] {
        let stub = Arc::new(SlowStub {
            delay: Duration::ZERO,
        });
        match serve::start(addr, stub, ServeConfig::new().with_reactors(reactors)) {
            Ok(_) => panic!("{reactors} reactor(s) started on the held port {addr}"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::AddrInUse, "{reactors}: {e}"),
        }
    }
}
