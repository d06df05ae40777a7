//! The parallelism profile: operations per level of the topologically
//! sorted DDG.

use crate::decimal::{push_fixed, push_u64};
use std::fmt;
use std::io::{self, Write};

/// Histogram of operations per DDG level (Figure 7 of the paper).
///
/// The profile is recorded exactly while the critical path is short. When
/// the number of levels outgrows the configured bin budget, the profile
/// coarsens itself: the bin width doubles and adjacent bins are folded
/// together — the paper's "a range of Ldest values is mapped to each
/// distribution entry, and in the final output, the average number of
/// operations per level within the range is computed."
///
/// # Examples
///
/// ```
/// use paragraph_core::ParallelismProfile;
///
/// let mut profile = ParallelismProfile::new(1024);
/// for level in [0, 0, 0, 1, 2, 2] {
///     profile.record(level);
/// }
/// assert_eq!(profile.total_ops(), 6);
/// assert_eq!(profile.levels(), 3);
/// assert_eq!(profile.mean_ops_per_level(), 2.0);
/// assert_eq!(profile.exact_counts(), Some(vec![3, 1, 2]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelismProfile {
    counts: Vec<u64>,
    max_bins: usize,
    bin_width: u64,
    total_ops: u64,
    max_level: Option<u64>,
}

/// One bin of a (possibly coarsened) parallelism profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileBin {
    /// First DDG level covered by this bin.
    pub first_level: u64,
    /// Number of levels covered (the bin width; the last bin may extend past
    /// the deepest level actually used).
    pub width: u64,
    /// Total operations placed in the covered levels.
    pub ops: u64,
    /// Average operations per level within the bin (the paper's reported
    /// quantity).
    pub avg_ops_per_level: f64,
}

impl ParallelismProfile {
    /// Creates an empty profile that holds at most `max_bins` bins before
    /// coarsening.
    ///
    /// # Panics
    ///
    /// Panics if `max_bins` is zero.
    pub fn new(max_bins: usize) -> ParallelismProfile {
        assert!(max_bins > 0, "profile must have at least one bin");
        ParallelismProfile {
            counts: Vec::new(),
            max_bins,
            bin_width: 1,
            total_ops: 0,
            max_level: None,
        }
    }

    /// Records one operation completing at `level` (0-based).
    #[inline]
    pub fn record(&mut self, level: u64) {
        self.record_many(level, 1);
    }

    /// Records `ops` operations completing at `level`.
    #[inline]
    pub fn record_many(&mut self, level: u64, ops: u64) {
        if ops == 0 {
            return;
        }
        while level / self.bin_width >= self.max_bins as u64 {
            self.coarsen();
        }
        let idx = (level / self.bin_width) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += ops;
        self.total_ops += ops;
        self.max_level = Some(self.max_level.map_or(level, |m| m.max(level)));
    }

    fn coarsen(&mut self) {
        // Saturation is unreachable in practice (widths double from 1) and
        // still terminates the caller's loop: level / u64::MAX is 0.
        self.bin_width = self.bin_width.saturating_mul(2);
        let new_len = self.counts.len().div_ceil(2);
        for i in 0..new_len {
            let a = self.counts[2 * i];
            let b = self.counts.get(2 * i + 1).copied().unwrap_or(0);
            self.counts[i] = a + b;
        }
        self.counts.truncate(new_len);
    }

    /// Total operations recorded.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Number of levels in the profile: one past the deepest recorded level,
    /// or zero if nothing was recorded. Equals the critical path length.
    pub fn levels(&self) -> u64 {
        self.max_level.map_or(0, |m| m + 1)
    }

    /// Current bin width (1 while the profile is exact).
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Mean operations per level — the *available parallelism*.
    ///
    /// Returns 0 for an empty profile.
    pub fn mean_ops_per_level(&self) -> f64 {
        if self.levels() == 0 {
            0.0
        } else {
            self.total_ops as f64 / self.levels() as f64
        }
    }

    /// Peak of the per-bin level averages.
    ///
    /// With bin width 1 this is the true maximum number of operations in any
    /// level (the minimum machine width to execute the DDG at full speed);
    /// with coarsened bins it is a lower bound on that maximum.
    pub fn peak_avg_ops_per_level(&self) -> f64 {
        self.bins().map(|b| b.avg_ops_per_level).fold(0.0, f64::max)
    }

    /// The exact per-level counts, if the profile never coarsened.
    pub fn exact_counts(&self) -> Option<Vec<u64>> {
        if self.bin_width == 1 {
            let mut counts = self.counts.clone();
            counts.truncate(self.levels() as usize);
            Some(counts)
        } else {
            None
        }
    }

    /// Coefficient of variation of per-bin averages: a simple measure of the
    /// burstiness the paper observes ("periods of lots of parallelism
    /// followed by periods of little parallelism"). 0 means perfectly flat.
    pub fn burstiness(&self) -> f64 {
        let values: Vec<f64> = self.bins().map(|b| b.avg_ops_per_level).collect();
        if values.len() < 2 {
            return 0.0;
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
        var.sqrt() / mean
    }

    /// The raw accumulator, for checkpointing: `(counts, bin_width,
    /// total_ops, max_level)`.
    pub(crate) fn raw_parts(&self) -> (&[u64], u64, u64, Option<u64>) {
        (&self.counts, self.bin_width, self.total_ops, self.max_level)
    }

    /// Rebuilds a profile from checkpointed parts; `None` if they are
    /// internally inconsistent.
    pub(crate) fn from_raw_parts(
        max_bins: usize,
        counts: Vec<u64>,
        bin_width: u64,
        total_ops: u64,
        max_level: Option<u64>,
    ) -> Option<ParallelismProfile> {
        if max_bins == 0 || bin_width == 0 || counts.len() > max_bins {
            return None;
        }
        if counts.iter().copied().try_fold(0u64, u64::checked_add) != Some(total_ops) {
            return None;
        }
        match max_level {
            Some(m) if m / bin_width >= counts.len() as u64 => return None,
            None if total_ops != 0 => return None,
            _ => {}
        }
        Some(ParallelismProfile {
            counts,
            max_bins,
            bin_width,
            total_ops,
            max_level,
        })
    }

    /// The number of bins [`ParallelismProfile::bins`] yields.
    pub(crate) fn bin_count(&self) -> usize {
        let covering = self.levels().div_ceil(self.bin_width);
        self.counts
            .len()
            .min(usize::try_from(covering).unwrap_or(usize::MAX))
    }

    /// Iterates over the populated portion of the profile.
    pub fn bins(&self) -> impl Iterator<Item = ProfileBin> + '_ {
        let levels = self.levels();
        let width = self.bin_width;
        self.counts
            .iter()
            .enumerate()
            .take_while(move |(i, _)| (*i as u64) * width < levels)
            .map(move |(i, &ops)| {
                let first_level = i as u64 * width;
                let covered = width.min(levels - first_level);
                ProfileBin {
                    first_level,
                    width,
                    ops,
                    avg_ops_per_level: ops as f64 / covered as f64,
                }
            })
    }

    /// Writes the profile as CSV (`level,ops_per_level`), one row per bin —
    /// the data series behind Figure 7.
    ///
    /// The writer is flushed before returning: callers routinely hand in a
    /// by-value `BufWriter`, where an unflushed late write error (a full
    /// disk, say) would otherwise be swallowed by `Drop` and a truncated
    /// CSV would look like success.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`, including flush errors.
    pub fn write_csv<W: Write>(&self, mut out: W) -> io::Result<()> {
        let bins = self.bin_count();
        let mut span = crate::span!("report.render");
        span.arg("bins", bins as u64);
        let mut csv = String::with_capacity(20 + 20 * bins);
        csv.push_str("level,ops_per_level\n");
        for bin in self.bins() {
            push_u64(&mut csv, bin.first_level);
            csv.push(',');
            push_fixed(&mut csv, bin.avg_ops_per_level, 4);
            csv.push('\n');
        }
        drop(span);
        out.write_all(csv.as_bytes())?;
        out.flush()
    }

    /// Serializes the exact accumulator state as a single line of text, for
    /// embedding in sweep stage markers. Unlike the CSV (binned averages),
    /// this round-trips losslessly through [`ParallelismProfile::decode`].
    pub fn encode(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{} {} {}",
            self.max_bins, self.bin_width, self.total_ops
        );
        match self.max_level {
            Some(level) => {
                let _ = write!(out, " {level}");
            }
            None => out.push_str(" -"),
        }
        out.push(';');
        for (i, count) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{count}");
        }
        out
    }

    /// Rebuilds a profile from [`ParallelismProfile::encode`] output.
    /// Returns `None` for malformed or internally inconsistent text.
    pub fn decode(text: &str) -> Option<ParallelismProfile> {
        let (head, tail) = text.split_once(';')?;
        let mut fields = head.split_ascii_whitespace();
        let max_bins: usize = fields.next()?.parse().ok()?;
        let bin_width: u64 = fields.next()?.parse().ok()?;
        let total_ops: u64 = fields.next()?.parse().ok()?;
        let max_level = match fields.next()? {
            "-" => None,
            level => Some(level.parse().ok()?),
        };
        if fields.next().is_some() {
            return None;
        }
        let counts: Vec<u64> = if tail.is_empty() {
            Vec::new()
        } else {
            let mut counts = Vec::new();
            for field in tail.split(',') {
                counts.push(field.parse().ok()?);
            }
            counts
        };
        ParallelismProfile::from_raw_parts(max_bins, counts, bin_width, total_ops, max_level)
    }

    /// Renders a coarse ASCII plot of the profile, `height` rows tall.
    ///
    /// The y axis is logarithmic: dataflow-limit profiles are extremely
    /// bursty (a huge spike of zero-dependency operations in the first
    /// level), and a linear scale would show nothing else.
    pub fn ascii_plot(&self, width: usize, height: usize) -> String {
        let bins: Vec<ProfileBin> = self.bins().collect();
        if bins.is_empty() || width == 0 || height == 0 {
            return String::from("(empty profile)\n");
        }
        // Resample to `width` columns, keeping each column's maximum.
        let mut columns = vec![0.0f64; width];
        let levels = self.levels() as f64;
        for bin in &bins {
            let start = (bin.first_level as f64 / levels * width as f64) as usize;
            let end = (((bin.first_level + bin.width) as f64 / levels) * width as f64)
                .ceil()
                .min(width as f64) as usize;
            for col in columns.iter_mut().take(end.max(start + 1)).skip(start) {
                *col = col.max(bin.avg_ops_per_level);
            }
        }
        let peak = columns.iter().cloned().fold(0.0, f64::max).max(1.0);
        let log_peak = (1.0 + peak).ln();
        let mut out = String::new();
        for row in (0..height).rev() {
            let threshold = log_peak * (row as f64 + 0.5) / height as f64;
            if row == height - 1 {
                out.push_str(&format!("{peak:>10.1} |"));
            } else if row == 0 {
                out.push_str(&format!("{:>10.1} |", 0.0));
            } else {
                out.push_str("           |");
            }
            for &c in &columns {
                out.push(if (1.0 + c).ln() >= threshold {
                    '#'
                } else {
                    ' '
                });
            }
            out.push('\n');
        }
        out.push_str("           +");
        out.push_str(&"-".repeat(width));
        out.push('\n');
        out.push_str(&format!(
            "            0 .. {} levels (peak {:.1} ops/level, log y-scale)\n",
            self.levels(),
            peak
        ));
        out
    }
}

impl fmt::Display for ParallelismProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops over {} levels (mean {:.2}/level, bin width {})",
            self.total_ops,
            self.levels(),
            self.mean_ops_per_level(),
            self.bin_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_profile_matches_hand_counts() {
        let mut p = ParallelismProfile::new(16);
        for level in [0u64, 0, 0, 0, 1, 1, 2, 3] {
            p.record(level);
        }
        assert_eq!(p.exact_counts(), Some(vec![4, 2, 1, 1]));
        assert_eq!(p.levels(), 4);
        assert_eq!(p.mean_ops_per_level(), 2.0);
        assert_eq!(p.peak_avg_ops_per_level(), 4.0);
    }

    #[test]
    fn coarsening_preserves_totals() {
        let mut p = ParallelismProfile::new(4);
        for level in 0..100u64 {
            p.record(level);
        }
        assert_eq!(p.total_ops(), 100);
        assert_eq!(p.levels(), 100);
        assert!(p.bin_width() >= 32);
        assert_eq!(p.exact_counts(), None);
        let binned: u64 = p.bins().map(|b| b.ops).sum();
        assert_eq!(binned, 100);
    }

    #[test]
    fn coarsened_flat_profile_has_flat_averages() {
        let mut p = ParallelismProfile::new(4);
        for level in 0..128u64 {
            p.record_many(level, 3);
        }
        for bin in p.bins() {
            assert!((bin.avg_ops_per_level - 3.0).abs() < 1e-9);
        }
        assert_eq!(p.burstiness(), 0.0);
    }

    #[test]
    fn partial_last_bin_divides_by_covered_levels_only() {
        let mut p = ParallelismProfile::new(2);
        // Force width 2 with levels 0..3 (3 levels; last bin covers 1 level).
        for level in [0u64, 1, 2] {
            p.record_many(level, 2);
        }
        let bins: Vec<_> = p.bins().collect();
        assert_eq!(p.bin_width(), 2);
        assert_eq!(bins.len(), 2);
        assert!((bins[0].avg_ops_per_level - 2.0).abs() < 1e-9);
        // Last bin: 2 ops over 1 covered level.
        assert!((bins[1].avg_ops_per_level - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bursty_profile_has_positive_burstiness() {
        let mut p = ParallelismProfile::new(64);
        p.record_many(0, 1000);
        for level in 1..32 {
            p.record(level);
        }
        assert!(p.burstiness() > 1.0);
    }

    #[test]
    fn record_many_zero_is_a_no_op() {
        let mut p = ParallelismProfile::new(8);
        p.record_many(5, 0);
        assert_eq!(p.total_ops(), 0);
        assert_eq!(p.levels(), 0);
        assert_eq!(p.mean_ops_per_level(), 0.0);
    }

    #[test]
    fn sparse_levels_far_apart_coarsen_rather_than_allocate() {
        let mut p = ParallelismProfile::new(8);
        p.record(0);
        p.record(1_000_000_000);
        assert!(p.counts.len() <= 8);
        assert_eq!(p.total_ops(), 2);
        assert_eq!(p.levels(), 1_000_000_001);
    }

    #[test]
    fn csv_output_has_header_and_rows() {
        let mut p = ParallelismProfile::new(8);
        p.record(0);
        p.record(1);
        let mut buf = Vec::new();
        p.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("level,ops_per_level\n"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn csv_flush_errors_are_propagated() {
        // Regression: fig drivers pass a by-value BufWriter, so an error
        // surfacing only at flush time (e.g. a full disk) used to be
        // swallowed by Drop and a truncated CSV looked like success.
        struct FlushFails {
            flushed: bool,
        }
        impl Write for FlushFails {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.flushed = true;
                Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
            }
        }
        let mut p = ParallelismProfile::new(8);
        p.record(0);
        let mut sink = FlushFails { flushed: false };
        let err = p.write_csv(&mut sink).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(sink.flushed, "write_csv must flush before returning");
    }

    #[test]
    fn csv_propagates_buffered_write_errors_through_flush() {
        // A BufWriter over a failing device defers the error to flush; the
        // whole point of flushing inside write_csv is that the caller's `?`
        // sees it.
        struct BrokenDevice;
        impl Write for BrokenDevice {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("device gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut p = ParallelismProfile::new(8);
        p.record(0);
        let out = io::BufWriter::with_capacity(1 << 20, BrokenDevice);
        assert!(p.write_csv(out).is_err(), "buffered error must surface");
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let mut p = ParallelismProfile::new(8);
        for level in [0u64, 0, 1, 5, 900, 1_000_000] {
            p.record(level);
        }
        let text = p.encode();
        let back = ParallelismProfile::decode(&text).unwrap();
        assert_eq!(back, p);
        // Empty profile round-trips too.
        let empty = ParallelismProfile::new(4);
        assert_eq!(ParallelismProfile::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_malformed_text() {
        for bad in [
            "",
            "no-semicolon",
            "1 1 0 -",
            "0 1 0 -;",
            "8 1 2 0;1,1,junk",
            "8 1 5 0;1,1", // counts do not sum to total_ops
        ] {
            assert!(
                ParallelismProfile::decode(bad).is_none(),
                "decode accepted {bad:?}"
            );
        }
    }

    #[test]
    fn ascii_plot_is_never_empty() {
        let mut p = ParallelismProfile::new(8);
        assert!(p.ascii_plot(40, 8).contains("empty"));
        p.record(0);
        let plot = p.ascii_plot(40, 8);
        assert!(plot.contains('#'));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        ParallelismProfile::new(0);
    }
}
