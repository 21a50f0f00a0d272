//! Per-layer measurements: the benchmark's own timings of the public
//! model calls, and readings of the program's obs registry.

use std::time::{Duration, Instant};

use hdc::Classifier;
use lookhd::LookHdClassifier;
use obs::Snapshot;

use crate::stats;

/// Times of each public model call on the workload's test queries, in
/// nanoseconds.
#[derive(Debug, Default)]
pub struct ModelTimes {
    pub addresses: Vec<u64>,
    pub aggregate: Vec<u64>,
    pub dense_scores: Vec<u64>,
    /// `ScoreLut::scores` of the score-LUT twin.
    pub lut_scores: Vec<u64>,
    pub predict: Vec<u64>,
    pub predict_batch16: Vec<u64>,
}

fn timed<T>(out: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = std::hint::black_box(f());
    out.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    value
}

/// Times `LookupEncoder::addresses`/`aggregate`, `CompressedModel::scores`
/// and `Classifier::predict` of `model`, and `ScoreLut::scores` of the
/// score-LUT `twin`, each in its own loop `passes` times over `queries`
/// (so one call's working set does not evict another's), and
/// `Classifier::predict_batch` on consecutive batches of 16.
pub fn time_model(
    model: &LookHdClassifier,
    twin: &LookHdClassifier,
    queries: &[Vec<f64>],
    passes: usize,
) -> ModelTimes {
    let mut t = ModelTimes::default();
    let encoder = model.encoder();
    let addrs: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| encoder.addresses(q).expect("test queries have model arity"))
        .collect();
    let hvs: Vec<_> = addrs.iter().map(|a| encoder.aggregate(a)).collect();
    let lut = twin
        .score_lut()
        .expect("the twin is fitted with the score-LUT kernel");
    let twin_addrs: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| {
            twin.encoder()
                .addresses(q)
                .expect("test queries have model arity")
        })
        .collect();
    for _ in 0..passes {
        for q in queries {
            timed(&mut t.addresses, || encoder.addresses(q)).expect("addresses succeed");
        }
        for a in &addrs {
            timed(&mut t.aggregate, || encoder.aggregate(a));
        }
        for hv in &hvs {
            timed(&mut t.dense_scores, || model.compressed().scores(hv))
                .expect("dense scoring succeeds");
        }
        for a in &twin_addrs {
            timed(&mut t.lut_scores, || lut.scores(a)).expect("lut scoring succeeds");
        }
        for q in queries {
            timed(&mut t.predict, || model.predict(q)).expect("predict succeeds");
        }
    }
    for batch in queries.chunks_exact(16) {
        timed(&mut t.predict_batch16, || model.predict_batch(batch)).expect("batch succeeds");
    }
    t
}

/// Ceil-rank `p`-quantile of `samples` in `per_unit`-nanosecond units
/// (0 when there are none).
pub fn quantile(samples: &mut [u64], p: f64, per_unit: f64) -> f64 {
    stats::percentile_of(samples, p).map_or(0.0, |ns| ns as f64 / per_unit)
}

/// Mean of span `path` (all label sets) recorded between two snapshots,
/// in `per_unit`-nanosecond units: the span's summed duration over its
/// count, so the value is not limited by the power-of-two histogram
/// buckets. 0 when nothing was recorded.
pub fn span_mean(before: &Snapshot, after: &Snapshot, path: &str, per_unit: f64) -> f64 {
    let sum = |s: &Snapshot| {
        s.spans
            .iter()
            .filter(|span| span.path == path)
            .fold((0u64, Duration::ZERO), |(n, d), span| {
                (n + span.count, d + span.total)
            })
    };
    let (n0, d0) = sum(before);
    let (n1, d1) = sum(after);
    let count = n1.saturating_sub(n0);
    if count == 0 {
        return 0.0;
    }
    d1.saturating_sub(d0).as_nanos() as f64 / count as f64 / per_unit
}

/// Increase of counter `name` (all label sets) between two snapshots.
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

/// Peak resident set size of this process in megabytes (10^6 bytes),
/// from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}
