//! The correctness gate: every served answer is checked against the
//! model that produced it.
//!
//! Unstamped predicts must equal a direct `Classifier::predict` on the
//! served model. On the online workload each stamped predict must equal a
//! direct predict on its stamped version, rebuilt after the timed phases
//! by replaying the acknowledged feedback stream, in order, into a local
//! `StreamingTrainer` (streamed ≡ server-side fold is pinned by the
//! repository's online differential tests).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hdc::Classifier;
use lookhd::{LookHdClassifier, StreamingTrainer};

use crate::traffic::{Answer, Op, Record};
use crate::workload::Inputs;

/// What the gate found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests sent (pings excluded).
    pub attempted: u64,
    /// Refused, deadline-expired, dropped or mismatched requests.
    pub failed: u64,
    /// Requests answered with an error frame (refused or expired).
    pub refused: u64,
    /// Requests never answered.
    pub dropped: u64,
    /// Served predicts whose class disagrees with the direct predict.
    pub mismatched: u64,
    /// Served predicts that match their test label.
    pub correct_labels: u64,
    /// Served predicts.
    pub served_predicts: u64,
    /// Local `StreamingTrainer::observe` times, nanoseconds.
    pub observe_ns: Vec<u64>,
    /// Local `StreamingTrainer::materialize` times, nanoseconds.
    pub materialize_ns: Vec<u64>,
}

impl Verdict {
    /// Adds another cycle's findings to this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.dropped += other.dropped;
        self.mismatched += other.mismatched;
        self.correct_labels += other.correct_labels;
        self.served_predicts += other.served_predicts;
        self.observe_ns.extend(other.observe_ns);
        self.materialize_ns.extend(other.materialize_ns);
    }

    /// Share of served predicts matching their label.
    pub fn accuracy(&self) -> f64 {
        self.correct_labels as f64 / self.served_predicts.max(1) as f64
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Direct predictions of `model` on every test query.
fn direct_predictions(model: &LookHdClassifier, inputs: &Inputs) -> Vec<usize> {
    inputs
        .test
        .features
        .iter()
        .map(|q| model.predict(q).expect("test queries have model arity"))
        .collect()
}

/// Scores one answered (or unanswered) predict against `expected`.
fn check_predict(v: &mut Verdict, inputs: &Inputs, qi: usize, class: u32, expected: usize) {
    v.served_predicts += 1;
    if class as usize != expected {
        v.mismatched += 1;
        v.failed += 1;
    }
    if class as usize == inputs.test.labels[qi] {
        v.correct_labels += 1;
    }
}

/// Counts every non-ping request; anything not answered as asked fails.
fn count_attempts(v: &mut Verdict, logs: &[&[Record]]) {
    for record in logs.iter().flat_map(|log| log.iter()) {
        if record.op == Op::Ping {
            continue;
        }
        v.attempted += 1;
        let ok = matches!(
            (record.op, record.answer),
            (Op::Predict(_), Some((Answer::Class { .. }, _)))
                | (Op::Feedback(_), Some((Answer::FeedbackAck { .. }, _)))
                | (Op::Refresh, Some((Answer::RefreshAck { .. }, _)))
        );
        if !ok {
            v.failed += 1;
            match record.answer {
                Some((Answer::Error(_), _)) => v.refused += 1,
                None => v.dropped += 1,
                Some(_) => v.mismatched += 1,
            }
        }
    }
}

/// Gate for a server started with `server::start`: every answer must
/// equal the direct predict of `model`.
pub fn check_static(model: &LookHdClassifier, inputs: &Inputs, logs: &[&[Record]]) -> Verdict {
    let mut v = Verdict::default();
    count_attempts(&mut v, logs);
    let expected = direct_predictions(model, inputs);
    for record in logs.iter().flat_map(|log| log.iter()) {
        if let (Op::Predict(qi), Some((Answer::Class { class, version }, _))) =
            (record.op, record.answer)
        {
            if version.is_some() {
                v.mismatched += 1;
                v.failed += 1;
            }
            check_predict(&mut v, inputs, qi, class, expected[qi]);
        }
    }
    v
}

/// Checks every predict stamped with `version` against `model`, which
/// must be that version.
fn check_version(
    v: &mut Verdict,
    by_version: &mut BTreeMap<u64, Vec<(usize, u32)>>,
    inputs: &Inputs,
    model: &LookHdClassifier,
    version: u64,
) {
    let Some(served) = by_version.remove(&version) else {
        return;
    };
    let mut cache: BTreeMap<usize, usize> = BTreeMap::new();
    for (qi, class) in served {
        let expected = *cache.entry(qi).or_insert_with(|| {
            model
                .predict(&inputs.test.features[qi])
                .expect("test queries have model arity")
        });
        check_predict(v, inputs, qi, class, expected);
    }
}

/// Gate for the online server: replays the acknowledged feedback of
/// `feedback_log` into a replica of `v1` and checks every stamped predict
/// of `predict_log` against its version.
pub fn check_online(
    v1: &LookHdClassifier,
    inputs: &Inputs,
    predict_log: &[Record],
    feedback_log: &[Record],
) -> Verdict {
    let mut v = Verdict::default();
    count_attempts(&mut v, &[predict_log, feedback_log]);
    // Stamped predicts grouped by version.
    let mut by_version: BTreeMap<u64, Vec<(usize, u32)>> = BTreeMap::new();
    for record in predict_log {
        if let (Op::Predict(qi), Some((Answer::Class { class, version }, _))) =
            (record.op, record.answer)
        {
            match version {
                Some(version) => by_version.entry(version).or_default().push((qi, class)),
                None => {
                    v.served_predicts += 1;
                    v.mismatched += 1;
                    v.failed += 1;
                }
            }
        }
    }
    check_version(&mut v, &mut by_version, inputs, v1, 1);

    let mut replica = StreamingTrainer::from_classifier(v1).expect("replica of the served model");
    let mut version = 1;
    for record in feedback_log {
        match (record.op, record.answer) {
            (Op::Feedback(fi), Some((Answer::FeedbackAck { observed, .. }, _))) => {
                let started = Instant::now();
                replica
                    .observe(&inputs.feedback.features[fi], inputs.feedback.labels[fi])
                    .expect("feedback rows have model arity");
                v.observe_ns.push(elapsed_ns(started));
                if observed != replica.observed() {
                    // The server folded a different stream than the replay.
                    v.mismatched += 1;
                    v.failed += 1;
                }
            }
            (Op::Refresh, Some((Answer::RefreshAck { version: acked }, _))) => {
                if acked != version + 1 {
                    v.mismatched += 1;
                    v.failed += 1;
                }
                version = acked;
                if by_version.contains_key(&version) {
                    let started = Instant::now();
                    let model = replica.materialize().expect("replica materializes");
                    v.materialize_ns.push(elapsed_ns(started));
                    check_version(&mut v, &mut by_version, inputs, &model, version);
                }
            }
            _ => {}
        }
    }
    // Predicts stamped with a version the replay never reached.
    for served in by_version.values() {
        v.served_predicts += served.len() as u64;
        v.mismatched += served.len() as u64;
        v.failed += served.len() as u64;
    }
    v
}

/// The model-side cost of a refresh for a server without online
/// training: a fresh local replica of the served model (empty counters,
/// as a server starts) folds held-out rows and materializes, timing both.
pub struct Refresher {
    model: Arc<LookHdClassifier>,
    folded: usize,
    /// `StreamingTrainer::observe` times, nanoseconds.
    pub observe_ns: Vec<u64>,
    /// `StreamingTrainer::materialize` times, nanoseconds.
    pub materialize_ns: Vec<u64>,
}

impl Refresher {
    /// A refresher replicating `model`.
    pub fn new(model: Arc<LookHdClassifier>) -> Refresher {
        Refresher {
            model,
            folded: 0,
            observe_ns: Vec::new(),
            materialize_ns: Vec::new(),
        }
    }

    /// Folds the next `folds` held-out rows into a fresh replica, then
    /// materializes it.
    pub fn round(&mut self, inputs: &Inputs, folds: usize) {
        let mut replica =
            StreamingTrainer::from_classifier(&self.model).expect("replica of the served model");
        for _ in 0..folds {
            let fi = self.folded % inputs.feedback.len();
            self.folded += 1;
            let started = Instant::now();
            replica
                .observe(&inputs.feedback.features[fi], inputs.feedback.labels[fi])
                .expect("feedback rows have model arity");
            self.observe_ns.push(elapsed_ns(started));
        }
        let started = Instant::now();
        let refreshed = replica.materialize().expect("replica materializes");
        self.materialize_ns.push(elapsed_ns(started));
        std::hint::black_box(refreshed);
    }
}
