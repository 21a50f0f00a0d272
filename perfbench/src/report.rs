//! Metric names, provenance and the JSON lines the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Where a reported number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Measured by the benchmark from its own samples; a percentile is
    /// exact (ceil rank over every sample).
    Bench,
    /// Mean of an obs span over the traced phases: the span's summed
    /// duration over its count, read from the program's registry.
    ObsMean,
    /// Difference of obs counters over the traced phases.
    ObsCount,
}

impl Source {
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Bench => "bench_exact",
            Source::ObsMean => "obs_span_mean",
            Source::ObsCount => "obs_counter",
        }
    }
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("ok_rate", "ratio"),
    ("accuracy", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`, with their source.
pub const PER_LAYER: [(&str, &str, Source); 27] = [
    ("encoder.addresses_us", "us", Source::Bench),
    ("encoder.aggregate_us", "us", Source::Bench),
    ("kernel.dense_scores_us", "us", Source::Bench),
    ("kernel.lut_scores_us", "us", Source::Bench),
    ("kernel.size_mb", "MB", Source::Bench),
    ("classifier.predict_us", "us", Source::Bench),
    ("classifier.predict_p99_us", "us", Source::Bench),
    ("classifier.predict_batch16_us", "us", Source::Bench),
    ("fit.total_s", "s", Source::ObsMean),
    ("fit.counter_train_s", "s", Source::ObsMean),
    ("fit.retrain_s", "s", Source::ObsMean),
    ("fit.compress_ms", "ms", Source::ObsMean),
    ("fit.kernel_build_ms", "ms", Source::ObsMean),
    ("serve.decode_us", "us", Source::ObsMean),
    ("serve.queue_wait_us", "us", Source::ObsMean),
    ("serve.batch_us", "us", Source::ObsMean),
    ("serve.encode_us", "us", Source::ObsMean),
    ("serve.batch_size", "count", Source::ObsMean),
    ("serve.ping_rtt_us", "us", Source::Bench),
    ("serve.rejected", "count", Source::ObsCount),
    ("serve.stage_gap_pct", "%", Source::ObsMean),
    ("online.observe_us", "us", Source::Bench),
    ("online.materialize_ms", "ms", Source::Bench),
    ("serve.model_swaps", "count", Source::ObsCount),
    ("client.send_lag_p99_ms", "ms", Source::Bench),
    ("obs.trace_overhead_pct", "%", Source::Bench),
    ("error_rate", "ratio", Source::Bench),
];

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite number with all its digits (Rust's shortest
/// round-trip form), or `null` for a non-finite one.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`
/// with every metric of `names`, in order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `unknown` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let git = root.join(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a hash over `Cargo.lock` and every file under `crates/`, in
/// sorted path order: identifies the measured source even where the
/// checkout carries no git metadata.
pub fn source_fingerprint(root: &Path) -> String {
    fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            eat(file
                .strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    format!("fnv1a64:{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric or workload name: starts with a
    /// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        let names = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("p99/ms"));
    }

    #[test]
    fn units_use_only_the_allowed_characters() {
        let units = END_TO_END
            .iter()
            .map(|(_, u)| *u)
            .chain(PER_LAYER.iter().map(|(_, u, _)| *u));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    /// The names `BENCHMARK.json` declares are exactly the ones printed.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').map_or(text.len(), |e| start + e);
            text[start..end]
                .split("\"name\"")
                .skip(1)
                .filter_map(|rest| rest.split('"').nth(1).map(str::to_owned))
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(section("end_to_end"), e2e);
        assert_eq!(section("per_layer"), layer);
        let workloads: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(section("workloads"), workloads);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 1.25);
        let line = result_line(true, 3, 0, &[("setup_s", "s")], &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
