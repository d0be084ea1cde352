//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, written out when the run ends.
//!
//! A span has a name, a layer, start and end (nanoseconds since the
//! process's trace epoch), a parent span and the id of the operation it
//! belongs to. Spans that cannot know their parent's span id (the
//! servant, the wire) carry only the operation id, which travels in the
//! call's args; [`link`] resolves those to the operation's root span.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept per run; later ones are counted in [`dropped`] instead.
const MAX_SPANS: usize = 2_000_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Layer of the root span of one operation: its self time is the time
/// no instrumented layer accounts for (ordering and stability waits,
/// flush timers, the wire in flight).
pub const OP_LAYER: &str = "op";

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (from [`next_id`]).
    pub id: u64,
    /// Parent span id; 0 when unknown or a root.
    pub parent: u64,
    /// Operation id (call id or peer message index); 0 when unknown.
    pub op: u64,
    /// The layer the span measures.
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts or stops recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the trace epoch (the first call).
#[must_use]
pub fn now_ns() -> u64 {
    ns_of(Instant::now())
}

/// `at` in nanoseconds since the trace epoch.
#[must_use]
pub fn ns_of(at: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// A fresh span id.
#[must_use]
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records a span if tracing is on.
pub fn record(span: Span) {
    if !enabled() {
        return;
    }
    let mut spans = SPANS
        .lock()
        .expect("span buffer poisoned by a panicking thread");
    if spans.len() < MAX_SPANS {
        spans.push(span);
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records a span of `layer`/`name` over `[start, now]`; returns its
/// end.
pub fn close(
    id: u64,
    parent: u64,
    op: u64,
    layer: &'static str,
    name: &'static str,
    start: u64,
) -> u64 {
    let end = now_ns();
    record(Span {
        id,
        parent,
        op,
        layer,
        name,
        start,
        end,
    });
    end
}

/// Takes every span recorded so far.
#[must_use]
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span buffer poisoned by a panicking thread"),
    )
}

/// Spans not kept because the buffer was full.
#[must_use]
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Gives every non-root span that has an operation id but no parent the
/// operation's root span as parent.
pub fn link(spans: &mut [Span]) {
    let roots: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.layer == OP_LAYER && s.op != 0)
        .map(|s| (s.op, s.id))
        .collect();
    for s in spans.iter_mut() {
        if s.parent == 0 && s.layer != OP_LAYER {
            if let Some(&root) = roots.get(&s.op) {
                s.parent = root;
            }
        }
    }
}

/// Gives each `layer` span without an operation the operation whose
/// root span was open when it started. Valid only when one operation is
/// outstanding at a time, as in a closed loop with one call in flight.
pub fn attribute_by_window(spans: &mut [Span], layer: &str) {
    let mut ops: Vec<(u64, u64, u64)> = spans
        .iter()
        .filter(|s| s.layer == OP_LAYER)
        .map(|s| (s.start, s.end, s.op))
        .collect();
    ops.sort_unstable();
    for s in spans.iter_mut().filter(|s| s.layer == layer && s.op == 0) {
        let i = ops.partition_point(|&(start, _, _)| start <= s.start);
        if let Some(&(_, end, op)) = i.checked_sub(1).and_then(|i| ops.get(i)) {
            if s.start <= end {
                s.op = op;
            }
        }
    }
}

/// Total self time per layer, in ns: each span's duration minus the
/// part of it its children cover.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_within(c, s.start, s.end));
        *by_layer.entry(s.layer).or_default() +=
            s.end.saturating_sub(s.start).saturating_sub(covered);
    }
    by_layer
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Writes spans as tab-separated lines: id, parent, op, layer, name,
/// start ns, end ns.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tlayer\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.layer, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, OP_LAYER, 0, 100),
            span(2, 1, "rt", 10, 40),
            span(3, 2, "invocation", 20, 30),
            span(4, 1, "net", 30, 50),
        ];
        let t = self_time_by_layer(&spans);
        // Children of the op cover [10, 50].
        assert_eq!(t[OP_LAYER], 60);
        assert_eq!(t["rt"], 20);
        assert_eq!(t["invocation"], 10);
        assert_eq!(t["net"], 20);
    }

    #[test]
    fn window_attribution_and_linking() {
        let mut spans = vec![
            Span {
                op: 7,
                ..span(1, 0, OP_LAYER, 0, 100)
            },
            span(2, 0, "net", 50, 60),
            span(3, 0, "net", 150, 160),
        ];
        attribute_by_window(&mut spans, "net");
        link(&mut spans);
        assert_eq!((spans[1].op, spans[1].parent), (7, 1));
        assert_eq!((spans[2].op, spans[2].parent), (0, 0));
    }
}
