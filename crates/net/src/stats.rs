//! Measurement utilities for the experiment harness: sample histograms,
//! throughput accounting, labelled data series and plain-text tables in the
//! style of the paper's graphs.

use std::fmt;
use std::time::Duration;

/// A bag of duration samples with summary statistics.
///
/// ```
/// use newtop_net::stats::Histogram;
/// use std::time::Duration;
///
/// let mut h = Histogram::new();
/// for ms in [1u64, 2, 3, 4, 100] {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.len(), 5);
/// assert_eq!(h.median(), Duration::from_millis(3));
/// assert_eq!(h.max(), Duration::from_millis(100));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// Samples in nanoseconds: half the size of a `Duration`, and exact
    /// up to 584 years (longer samples saturate).
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        self.samples
            .push(u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX));
        self.sorted = false;
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; zero when empty.
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let total: u128 = self.samples.iter().map(|&n| u128::from(n)).sum();
        nanos_to_duration(total / self.samples.len() as u128)
    }

    /// The `q`-quantile (0.0..=1.0) by nearest-rank; zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile(&mut self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = ((self.samples.len() as f64 - 1.0) * q).round() as usize;
        Duration::from_nanos(self.samples[rank])
    }

    /// Median sample.
    pub fn median(&mut self) -> Duration {
        self.quantile(0.5)
    }

    /// Largest sample; zero when empty.
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.samples.iter().copied().max().unwrap_or(0))
    }

    /// Smallest sample; zero when empty.
    #[must_use]
    pub fn min(&self) -> Duration {
        Duration::from_nanos(self.samples.iter().copied().min().unwrap_or(0))
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

fn nanos_to_duration(nanos: u128) -> Duration {
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// Counts events over a known observation window and reports a rate.
///
/// ```
/// use newtop_net::stats::Meter;
/// use std::time::Duration;
///
/// let mut m = Meter::new();
/// m.add(500);
/// assert_eq!(m.rate_per_sec(Duration::from_secs(2)), 250.0);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Meter {
    count: u64,
}

impl Meter {
    /// Creates a meter at zero.
    #[must_use]
    pub fn new() -> Self {
        Meter::default()
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Total events counted.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Events per second over an observation window; zero for an empty
    /// window.
    #[must_use]
    pub fn rate_per_sec(&self, window: Duration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.count as f64 / window.as_secs_f64()
    }
}

/// A labelled series of (x, y) points — one line on one of the paper's
/// graphs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"Closed"` or `"Symmetric"`.
    pub label: String,
    /// The points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with a label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at the given x, if present.
    #[must_use]
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }

    /// The last y value, if any.
    #[must_use]
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }

    /// True if y never decreases by more than `slack` (relative) along the
    /// series — used by shape assertions in tests.
    #[must_use]
    pub fn is_non_decreasing(&self, slack: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].1 >= w[0].1 * (1.0 - slack))
    }

    /// True if y never increases by more than `slack` (relative) along the
    /// series.
    #[must_use]
    pub fn is_non_increasing(&self, slack: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].1 <= w[0].1 * (1.0 + slack))
    }
}

/// A plain-text table with a title, column headers and float rows — the
/// format every bench target prints its reproduced figure in.
#[derive(Clone, Debug)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of preformatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a row of floats, formatted to one decimal place.
    pub fn row_f64(&mut self, cells: &[f64]) {
        self.row(cells.iter().map(|v| format!("{v:.1}")).collect());
    }

    /// Builds a table from a set of series sharing the same x values: the
    /// first column is x, one column per series.
    #[must_use]
    pub fn from_series(title: impl Into<String>, x_name: &str, series: &[Series]) -> Self {
        let mut headers = vec![x_name.to_owned()];
        headers.extend(series.iter().map(|s| s.label.clone()));
        let mut table = TextTable {
            title: title.into(),
            headers,
            rows: Vec::new(),
        };
        let xs: Vec<f64> = series
            .first()
            .map(|s| s.points.iter().map(|&(x, _)| x).collect())
            .unwrap_or_default();
        for x in xs {
            let mut cells = vec![format!("{x:.0}")];
            for s in series {
                match s.y_at(x) {
                    Some(y) => cells.push(format!("{y:.1}")),
                    None => cells.push("-".to_owned()),
                }
            }
            table.rows.push(cells);
        }
        table
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        for (i, h) in self.headers.iter().enumerate() {
            write!(f, "{h:>w$}  ", w = widths[i])?;
        }
        writeln!(f)?;
        for (i, _) in self.headers.iter().enumerate() {
            write!(f, "{:->w$}  ", "", w = widths[i])?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                write!(f, "{cell:>w$}  ", w = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::new();
        for ms in 1..=10u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.len(), 10);
        assert_eq!(h.mean(), Duration::from_micros(5500));
        assert_eq!(h.min(), Duration::from_millis(1));
        assert_eq!(h.max(), Duration::from_millis(10));
        assert_eq!(h.quantile(0.0), Duration::from_millis(1));
        assert_eq!(h.quantile(1.0), Duration::from_millis(10));
    }

    #[test]
    fn histogram_empty_is_safe() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.median(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(Duration::from_millis(1));
        let mut b = Histogram::new();
        b.record(Duration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean(), Duration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn histogram_rejects_bad_quantile() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn meter_rates() {
        let mut m = Meter::new();
        m.add(10);
        m.add(20);
        assert_eq!(m.count(), 30);
        assert_eq!(m.rate_per_sec(Duration::from_secs(3)), 10.0);
        assert_eq!(m.rate_per_sec(Duration::ZERO), 0.0);
    }

    #[test]
    fn series_lookup_and_shape() {
        let mut s = Series::new("open");
        s.push(1.0, 10.0);
        s.push(2.0, 12.0);
        s.push(3.0, 11.9);
        assert_eq!(s.y_at(2.0), Some(12.0));
        assert_eq!(s.y_at(9.0), None);
        assert_eq!(s.last_y(), Some(11.9));
        assert!(s.is_non_decreasing(0.05));
        assert!(!s.is_non_decreasing(0.0));
    }

    #[test]
    fn table_formats_all_columns() {
        let mut s1 = Series::new("closed");
        let mut s2 = Series::new("open");
        s1.push(1.0, 5.0);
        s2.push(1.0, 4.0);
        let t = TextTable::from_series("Graph 11", "clients", &[s1, s2]);
        let out = t.to_string();
        assert!(out.contains("Graph 11"));
        assert!(out.contains("closed"));
        assert!(out.contains("open"));
        assert!(out.contains("5.0"));
        assert!(out.contains("4.0"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new("t", &["a", "b"]);
        t.row(vec!["only one".to_owned()]);
    }
}
