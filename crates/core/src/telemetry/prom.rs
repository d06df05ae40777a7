//! Prometheus text exposition rendering and validation.
//!
//! [`render`] serializes a [`MetricsSnapshot`] in the Prometheus text
//! format (version 0.0.4): counters and span totals as `counter` families,
//! gauges as `gauge` families, histograms as cumulative `_bucket`/`_sum`/
//! `_count` triples. [`validate`] is the inverse gate used by the CI smoke
//! job: it checks a rendered snapshot line by line without external crates.

use super::{HistogramSnapshot, MetricsSnapshot};
use std::fmt::Write as _;

/// Maps a registry metric name (`livewell.occupancy`) to a Prometheus
/// metric name (`paragraph_livewell_occupancy`).
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("paragraph_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn render_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let base = metric_name(name);
    let _ = writeln!(out, "# TYPE {base} histogram");
    let mut cumulative = 0u64;
    for (i, &cell) in h.buckets.iter().enumerate() {
        if cell == 0 {
            continue;
        }
        cumulative = cumulative.saturating_add(cell);
        let le = HistogramSnapshot::bucket_upper_bound(i);
        let _ = writeln!(out, "{base}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{base}_sum {}", h.sum);
    let _ = writeln!(out, "{base}_count {}", h.count);
    // Precomputed quantiles as a sibling gauge family (the classic
    // histogram family stays untouched for PromQL `histogram_quantile`;
    // these are the cheap scrape-side view). Upper-bound estimates from
    // the log2 buckets, monotone by construction.
    if h.count > 0 {
        let _ = writeln!(out, "# TYPE {base}_quantiles gauge");
        for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
            if let Some(value) = h.quantile(q) {
                let _ = writeln!(out, "{base}_quantiles{{quantile=\"{label}\"}} {value}");
            }
        }
    }
}

/// Renders the snapshot in the Prometheus text exposition format.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(
        out,
        "# Paragraph metrics snapshot (elapsed_ns {})",
        snapshot.elapsed_ns
    );
    for (name, value) in &snapshot.counters {
        let base = metric_name(name);
        let _ = writeln!(out, "# TYPE {base} counter");
        let _ = writeln!(out, "{base} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let base = metric_name(name);
        let _ = writeln!(out, "# TYPE {base} gauge");
        let _ = writeln!(out, "{base} {value}");
    }
    for (name, stat) in &snapshot.spans {
        let base = metric_name(name);
        let _ = writeln!(out, "# TYPE {base}_seconds_total counter");
        let _ = writeln!(
            out,
            "{base}_seconds_total {:.9}",
            stat.total_ns as f64 / 1e9
        );
        let _ = writeln!(out, "# TYPE {base}_calls_total counter");
        let _ = writeln!(out, "{base}_calls_total {}", stat.count);
    }
    for (name, h) in &snapshot.histograms {
        render_histogram(&mut out, name, h);
    }
    out
}

/// Checks that `text` is well-formed Prometheus text exposition: every
/// non-comment line is `name[{labels}] value` with a valid metric name and
/// a numeric value. Returns the number of sample lines.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => return Err(format!("line {}: no value separator", lineno + 1)),
        };
        let name = match name_part.split_once('{') {
            Some((bare, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {}: unterminated label set", lineno + 1));
                }
                // Quantile labels must be probabilities: the gauge family
                // rendered next to each histogram is only trustworthy if
                // `quantile="q"` parses and lands in [0, 1].
                if let Some(rest) = labels.strip_prefix("quantile=\"") {
                    let q = rest.split('"').next().unwrap_or("");
                    if !q.parse::<f64>().is_ok_and(|q| (0.0..=1.0).contains(&q)) {
                        return Err(format!("line {}: bad quantile label {q:?}", lineno + 1));
                    }
                }
                bare
            }
            None => name_part,
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        if value_part.parse::<f64>().is_err() {
            return Err(format!("line {}: bad value {value_part:?}", lineno + 1));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples found".to_owned());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::super::Registry;
    use super::*;

    #[test]
    fn names_are_sanitized_and_prefixed() {
        assert_eq!(metric_name("decode.records"), "paragraph_decode_records");
        assert_eq!(metric_name("a-b c"), "paragraph_a_b_c");
    }

    #[test]
    fn rendered_snapshot_validates() {
        let registry = Registry::new();
        registry.enable();
        registry.counter("decode.records").add(100);
        registry.gauge("livewell.floor").set(-3);
        registry.histogram("livewell.occupancy").observe(5);
        registry.histogram("livewell.occupancy").observe(5000);
        registry.record_span("analyze", 1_500_000, None, &[]);
        let text = registry.snapshot().to_prometheus();
        let samples = validate(&text).expect("rendered snapshot must validate");
        assert!(samples >= 6, "expected several samples, got {samples}");
        assert!(text.contains("paragraph_decode_records 100"));
        assert!(text.contains("paragraph_livewell_floor -3"));
        assert!(text.contains("paragraph_livewell_occupancy_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("paragraph_livewell_occupancy_count 2"));
        assert!(text.contains("paragraph_analyze_seconds_total 0.001500000"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let registry = Registry::new();
        let h = registry.histogram("h");
        h.observe(1);
        h.observe(2);
        h.observe(2);
        let text = registry.snapshot().to_prometheus();
        // Bucket le="1" holds the 1; le="3" accumulates the two 2s on top.
        assert!(text.contains("paragraph_h_bucket{le=\"1\"} 1"));
        assert!(text.contains("paragraph_h_bucket{le=\"3\"} 3"));
    }

    #[test]
    fn histogram_quantiles_are_exported_and_monotone() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        for v in [1u64, 2, 2, 3, 100, 4000] {
            h.observe(v);
        }
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE paragraph_lat_quantiles gauge"));
        let quantile = |label: &str| -> f64 {
            let needle = format!("paragraph_lat_quantiles{{quantile=\"{label}\"}} ");
            let line = text
                .lines()
                .find(|l| l.starts_with(&needle))
                .unwrap_or_else(|| panic!("missing quantile {label}"));
            line[needle.len()..].parse().expect("numeric quantile")
        };
        let (p50, p90, p99) = (quantile("0.5"), quantile("0.9"), quantile("0.99"));
        assert!(p50 <= p90 && p90 <= p99, "p50={p50} p90={p90} p99={p99}");
        assert!(p99 >= 100.0, "p99 must reach the tail, got {p99}");
        validate(&text).expect("snapshot with quantiles must validate");
    }

    #[test]
    fn empty_histogram_renders_no_quantiles() {
        let registry = Registry::new();
        let _ = registry.histogram("quiet");
        let text = registry.snapshot().to_prometheus();
        assert!(!text.contains("paragraph_quiet_quantiles"));
    }

    #[test]
    fn validate_rejects_malformed_lines() {
        assert!(validate("m{quantile=\"1.5\"} 3\n").is_err());
        assert!(validate("m{quantile=\"nope\"} 3\n").is_err());
        assert_eq!(validate("m{quantile=\"0.99\"} 3\n"), Ok(1));
        assert!(validate("").is_err());
        assert!(validate("# only comments\n").is_err());
        assert!(validate("metric_without_value\n").is_err());
        assert!(validate("1bad_name 3\n").is_err());
        assert!(validate("name not_a_number\n").is_err());
        assert!(validate("name{le=\"1\" 3\n").is_err());
        assert_eq!(validate("ok 1\nalso{le=\"2\"} 3.5\n"), Ok(2));
    }
}
