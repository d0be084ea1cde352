//! Process-level measurements and the result line.

use std::fmt::Write as _;
use std::time::Duration;

use newtop_net::stats::Histogram;

/// Process user+sys CPU seconds so far, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
///
/// # Errors
///
/// When the file cannot be read or parsed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat: bad field {}", i + 3))
    };
    // utime is field 14, stime field 15: indices 11 and 12 after ')'.
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status: no VmHWM")?;
    Ok(kb as f64 / 1024.0)
}

/// Milliseconds of `d`.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of `d`.
#[must_use]
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median and 99th percentile of `h`, in ms.
#[must_use]
pub fn p50_p99_ms(h: &mut Histogram) -> (f64, f64) {
    (ms(h.quantile(0.5)), ms(h.quantile(0.99)))
}

/// Median of `xs`; 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value (0 when a ratio has no base).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Free text printed beside it (sample counts, bases).
    pub note: String,
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The outcome of one run: its output checks, its operation counts and
/// its metrics.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed: refused, past their deadline, failing a
    /// check, or shed.
    pub failed: u64,
    /// Lines describing the run, printed before the metrics.
    pub info: Vec<String>,
    /// End-to-end metrics (untraced window).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced window; empty unless tracing).
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Human-readable lines for every metric, then the one-line JSON
    /// result (per-layer metrics when `traced`, else end-to-end ones).
    #[must_use]
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        for line in &self.info {
            let _ = writeln!(out, "# {line}");
        }
        for (title, metrics) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(out, "# {title} metrics");
            for m in metrics {
                let _ = writeln!(
                    out,
                    "#   {:<34} {:>14.4} {:<6} {}",
                    m.name, m.value, m.unit, m.note
                );
            }
        }
        let chosen = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut json = String::new();
        for (i, m) in chosen.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct, self.attempted, self.failed
        );
        out
    }
}
