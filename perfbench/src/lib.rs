//! Wall-clock benchmark of NewTop over the threaded TCP runtime.
//!
//! One command runs one named workload against the real program —
//! `newtop-rt` `NodeRuntime`s hosting `Nso`, connected by loopback
//! `newtop-net::tcp` endpoints, with the default `RuntimeOptions` — and
//! checks its outputs:
//!
//! * `closed_lone` — one client, closed binding to three active
//!   replicas, asymmetric order, `ReplyMode::All`, one call in flight,
//!   with the §4.1 100 ms retry. Latency-bound.
//! * `open_multigroup` — four services on three servers, two clients
//!   bound (open) to all four, a fixed number of calls in flight per
//!   binding, 1 KiB args, `ReplyMode::First`. CPU-bound.
//! * `peer_sym` — a four-member symmetric, lively peer group driven by
//!   an open loop at a fixed aggregate rate.
//!
//! All measurement is taken from outside: timing the calls the
//! benchmark makes into public functions, a transport wrapper, the
//! queues it creates, and `Nso::metrics()` snapshots. See
//! `perfbench/README.md` for the metrics and what each should move.

pub mod closed_lone;
pub mod cluster;
pub mod measure;
pub mod open_multigroup;
pub mod peer_sym;
pub mod schedule;
pub mod trace;

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use bytes::Bytes;
use newtop::nso::Nso;
use newtop_net::stats::Histogram;

use cluster::{Cluster, Counters};
use measure::{median, ms, p50_p99_ms, ratio, us, Metric, Report};

/// Clusters set up per run; `setup_s` is the median of their set-up
/// times, and the untraced window is split evenly over them.
pub const SETUPS: usize = 7;
/// Length of the idle window measured in traced runs.
const IDLE_WINDOW: Duration = Duration::from_secs(1);
/// Passes over the captured frames when timing `Nso::decode_gcs_frame`.
const DECODE_PASSES: usize = 20;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadName {
    /// See [`closed_lone`].
    ClosedLone,
    /// See [`open_multigroup`].
    OpenMultigroup,
    /// See [`peer_sym`].
    PeerSym,
}

impl WorkloadName {
    /// Every workload.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::ClosedLone,
        WorkloadName::OpenMultigroup,
        WorkloadName::PeerSym,
    ];

    /// The name used on the command line.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::ClosedLone => "closed_lone",
            WorkloadName::OpenMultigroup => "open_multigroup",
            WorkloadName::PeerSym => "peer_sym",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.as_str() == s)
    }
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: WorkloadName,
    /// Seed of the offered inputs.
    pub seed: u64,
    /// Length of the measured window. A traced run splits it into an
    /// untraced and a traced half.
    pub seconds: f64,
    /// Whether to record spans and report per-layer metrics. The spans
    /// go to `perfbench-traces/` beside the executable.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
///
/// # Errors
///
/// On an unknown flag or a missing or malformed value.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(WorkloadName::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (refused, late past the deadline, shed, or
    /// failing a check).
    pub failed: u64,
    /// Output-check failures (also counted in `failed`).
    pub check_failures: u64,
    /// Operations completed and checked.
    pub done: u64,
    /// Latency of each completed operation.
    pub lat: Histogram,
    /// Round trips of `NodeHandle::with_nso` commands the load thread issued.
    pub cmd_rtt: Histogram,
    /// Calls re-issued by the retry timer.
    pub retries: u64,
    /// Calls or sends refused with `NewtopError::Overloaded`.
    pub overloaded: u64,
    /// How late the open-loop generator issued each send.
    pub late: Histogram,
}

/// Set-up phases, timed inside each workload's set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupPhases {
    /// Creating the server or peer groups until every member has a view.
    pub group_ready: Duration,
    /// `Nso::bind` until `BindingReady` (median over bindings; zero
    /// without bindings).
    pub bind: Duration,
}

/// A workload: sets up a cluster, then runs measured windows on it.
pub trait Workload: Sized {
    /// Spawns the cluster and makes it ready for the first operation.
    ///
    /// # Errors
    ///
    /// When a node, group or binding cannot be brought up.
    fn setup(seed: u64) -> Result<Self, String>;
    /// The cluster under test.
    fn cluster(&self) -> &Cluster;
    /// How long the set-up phases took.
    fn phases(&self) -> SetupPhases;
    /// Replicas each call addresses (0 for no calls).
    fn replicas_addressed(&self) -> u64;
    /// Runs the workload for `length`, then lets outstanding operations
    /// finish or fail.
    fn window(&mut self, length: Duration) -> Window;
    /// Attributes `net` spans to the call open when they started; only
    /// for workloads with one call in flight.
    fn wire_by_window(&self) -> bool {
        false
    }
}

/// Runs the workload `args` names.
///
/// # Errors
///
/// When set-up fails or process counters cannot be read.
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload {
        WorkloadName::ClosedLone => run_with::<closed_lone::ClosedLone>(args),
        WorkloadName::OpenMultigroup => run_with::<open_multigroup::OpenMultigroup>(args),
        WorkloadName::PeerSym => run_with::<peer_sym::PeerSym>(args),
    }
}

/// When the process started, as near as the benchmark can tell. Set by
/// the first call; `main` calls it first thing.
pub fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// A measured window with its wall time and process CPU.
struct Timed {
    w: Window,
    wall: Duration,
    cpu_s: f64,
}

fn timed<W: Workload>(env: &mut W, length: Duration) -> Result<Timed, String> {
    let cpu0 = measure::cpu_seconds()?;
    let t0 = Instant::now();
    let w = env.window(length);
    Ok(Timed {
        w,
        wall: t0.elapsed(),
        cpu_s: measure::cpu_seconds()? - cpu0,
    })
}

/// The end-to-end figures of one measured window.
#[derive(Clone, Copy, Debug)]
struct Summary {
    ops_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    cpu_us_per_op: f64,
    samples: usize,
}

impl Summary {
    fn of(t: &mut Timed) -> Summary {
        let (p50_ms, p99_ms) = p50_p99_ms(&mut t.w.lat);
        let done = t.w.done as f64;
        Summary {
            ops_per_s: ratio(done, t.wall.as_secs_f64()),
            p50_ms,
            p99_ms,
            cpu_us_per_op: ratio(t.cpu_s * 1e6, done),
            samples: t.w.lat.len(),
        }
    }

    /// The best value of each figure over `all`: the highest
    /// throughput, the lowest latencies and CPU cost.
    fn best(all: &[Summary]) -> Summary {
        let lowest = |f: fn(&Summary) -> f64| all.iter().map(f).fold(f64::INFINITY, f64::min);
        Summary {
            ops_per_s: all.iter().map(|s| s.ops_per_s).fold(0.0, f64::max),
            p50_ms: lowest(|s| s.p50_ms),
            p99_ms: lowest(|s| s.p99_ms),
            cpu_us_per_op: lowest(|s| s.cpu_us_per_op),
            samples: all.iter().map(|s| s.samples).min().unwrap_or(0),
        }
    }
}

/// Operation counts summed over a run's windows.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    check_failures: u64,
    done: u64,
}

impl Tally {
    fn add(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.check_failures += w.check_failures;
        self.done += w.done;
    }
}

fn run_with<W: Workload>(args: &Args) -> Result<Report, String> {
    let length = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    // The untraced window is split over `SETUPS` fresh clusters, and each
    // end-to-end metric is the best cluster's. On a shared host, bursts
    // of contention from outside the process only ever slow a cluster
    // down; the symmetric order's stability wait turns one stalled node
    // into a tail for every member, so a median over clusters still
    // swings with the host. A change to the program moves every cluster,
    // the best one included.
    let slice = length / SETUPS as u32;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut slices = Vec::with_capacity(SETUPS);
    let mut tally = Tally::default();
    let mut env = None;
    for k in 0..SETUPS {
        // Stop the previous cluster first.
        drop(env.take());
        let t0 = if k == 0 {
            process_start()
        } else {
            Instant::now()
        };
        let mut e = W::setup(args.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        let mut t = timed(&mut e, slice)?;
        tally.add(&t.w);
        slices.push(Summary::of(&mut t));
        env = Some(e);
    }
    let mut env = env.expect("SETUPS > 0");
    let idle_cpu_ms_per_s = if args.trace {
        let cpu0 = measure::cpu_seconds()?;
        std::thread::sleep(IDLE_WINDOW);
        (measure::cpu_seconds()? - cpu0) * 1e3 / IDLE_WINDOW.as_secs_f64()
    } else {
        0.0
    };
    let mut report = Report {
        info: run_info(args, &env),
        end_to_end: end_to_end(&slices, &setups)?,
        ..Report::default()
    };
    if args.trace {
        let before = env.cluster().counters();
        trace::set_enabled(true);
        let traced = timed(&mut env, length);
        trace::set_enabled(false);
        let mut traced = traced?;
        tally.add(&traced.w);
        let after = env.cluster().counters();
        let mut spans = trace::take();
        if env.wire_by_window() {
            trace::attribute_by_window(&mut spans, "net");
        }
        trace::link(&mut spans);
        report.per_layer = per_layer(
            &env,
            &slices,
            &mut traced,
            &before,
            &after,
            &spans,
            idle_cpu_ms_per_s,
        );
        let path = trace_path(args);
        match trace::write(&path, &spans) {
            Ok(()) => report.info.push(format!(
                "trace: {} spans ({} dropped) written to {}",
                spans.len(),
                trace::dropped(),
                path.display()
            )),
            Err(e) => report
                .info
                .push(format!("trace: not written to {}: {e}", path.display())),
        }
    }
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.correct = tally.check_failures == 0 && tally.done > 0;
    report.info.push(format!(
        "ops: attempted={} failed={} (fail_ratio={:.6}) output-check failures={}",
        tally.attempted,
        tally.failed,
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.check_failures,
    ));
    Ok(report)
}

fn run_info<W: Workload>(args: &Args, env: &W) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vec![
        format!(
            "workload={} seed={} seconds={} trace={}",
            args.workload.as_str(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "nodes={} shards={} (RuntimeOptions default: min(4, nproc)) nproc={nproc} batching=on",
            env.cluster().nodes.len(),
            newtop_rt::RuntimeOptions::new().shards(),
        ),
        "transport: newtop-net tcp over loopback 127.0.0.1 (not a real link); times are wall clock"
            .to_string(),
    ]
}

/// `perfbench-traces/<workload>.tsv` beside the executable, which keeps
/// the spans inside the build directory. Each traced run of a workload
/// replaces the last one's file (tens of MB), so repeated runs do not
/// fill the disk.
fn trace_path(args: &Args) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-traces")))
        .unwrap_or_else(|| PathBuf::from("perfbench-traces"));
    dir.join(format!("{}.tsv", args.workload.as_str()))
}

fn metric(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note,
    }
}

fn end_to_end(slices: &[Summary], setups: &[f64]) -> Result<Vec<Metric>, String> {
    let plain = Summary::best(slices);
    let each = |f: fn(&Summary) -> f64| {
        let v: Vec<String> = slices.iter().map(|s| format!("{:.4}", f(s))).collect();
        format!("best of {} clusters: [{}]", slices.len(), v.join(", "))
    };
    let n = plain.samples;
    let beyond = n / 100;
    let warn = if beyond < 10 {
        " - fewer than 10 samples beyond p99"
    } else {
        ""
    };
    Ok(vec![
        metric(
            "setup_s",
            median(setups),
            "s",
            format!("median of {} set-ups: {setups:.4?}", setups.len()),
        ),
        metric("ops_per_s", plain.ops_per_s, "1/s", each(|s| s.ops_per_s)),
        metric(
            "lat_p50_ms",
            plain.p50_ms,
            "ms",
            format!("{}; n>={n} each", each(|s| s.p50_ms)),
        ),
        metric(
            "lat_p99_ms",
            plain.p99_ms,
            "ms",
            format!("{}; n>={n}, {beyond} beyond{warn}", each(|s| s.p99_ms)),
        ),
        metric(
            "cpu_us_per_op",
            plain.cpu_us_per_op,
            "us",
            each(|s| s.cpu_us_per_op),
        ),
        metric(
            "peak_rss_mb",
            measure::peak_rss_mb()?,
            "MiB",
            "VmHWM".into(),
        ),
    ])
}

/// Times `Nso::decode_gcs_frame` over the captured frames; returns µs
/// per frame and GCS messages per GCS frame.
fn decode_cost(frames: &[Bytes]) -> (f64, f64) {
    let (mut gcs_frames, mut msgs) = (0u64, 0u64);
    for f in frames {
        if let Some(m) = Nso::decode_gcs_frame(f) {
            gcs_frames += 1;
            msgs += m.len() as u64;
        }
    }
    let t0 = Instant::now();
    for _ in 0..DECODE_PASSES {
        for f in frames {
            std::hint::black_box(Nso::decode_gcs_frame(std::hint::black_box(f)));
        }
    }
    let per_frame = ratio(us(t0.elapsed()), (frames.len() * DECODE_PASSES) as f64);
    (per_frame, ratio(msgs as f64, gcs_frames as f64))
}

fn quantile_us(ns: &mut [u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let rank = ((ns.len() - 1) as f64 * q).round() as usize;
    ns[rank] as f64 / 1e3
}

#[allow(clippy::too_many_arguments)]
fn per_layer<W: Workload>(
    env: &W,
    untraced: &[Summary],
    traced: &mut Timed,
    before: &Counters,
    after: &Counters,
    spans: &[trace::Span],
    idle_cpu_ms_per_s: f64,
) -> Vec<Metric> {
    let cluster = env.cluster();
    // Tracing overhead: the traced window against the typical (median)
    // untraced cluster.
    let typical = |f: fn(&Summary) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let overhead = Summary::of(traced);
    let w = &mut traced.w;
    let ops = w.done as f64;
    let per_op = |x: u64| ratio(x as f64, ops);
    let nso = |name: &str| after.nso_delta(before, name);
    let frames = after.frames - before.frames;
    let (out_peak, out_shed) = cluster.output_queues();
    let (in_peak, in_blocked) = cluster.ingress_queues();
    let mut send_ns = cluster.take_send_ns();
    let (decode_us, msgs_per_frame) = decode_cost(&cluster.take_captured());
    let mut servant_ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.layer == "servant")
        .map(|s| s.end - s.start)
        .collect();
    let self_ns = trace::self_time_by_layer(spans);
    let self_us = |layer: &str| ratio(self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e3, ops);
    let phases = env.phases();
    let addressed = env.replicas_addressed() as f64;
    let issued = w.done + w.failed;
    let n = |x: u64| format!("n={x}");
    let base = format!("per op, {} ops", w.done);
    vec![
        metric(
            "rt.cmd_rtt_us.p50",
            us(w.cmd_rtt.quantile(0.5)),
            "us",
            n(w.cmd_rtt.len() as u64),
        ),
        metric(
            "rt.cmd_rtt_us.p99",
            us(w.cmd_rtt.quantile(0.99)),
            "us",
            n(w.cmd_rtt.len() as u64),
        ),
        metric(
            "rt.idle_cpu_ms_per_s",
            idle_cpu_ms_per_s,
            "ms/s",
            "1 s idle, cluster formed".into(),
        ),
        metric(
            "rt.output_queue_peak",
            out_peak as f64,
            "count",
            "largest over nodes".into(),
        ),
        metric(
            "rt.output_shed",
            out_shed as f64,
            "count",
            "sum over nodes".into(),
        ),
        metric(
            "rt.ingress_queue_peak",
            in_peak as f64,
            "count",
            "largest over nodes".into(),
        ),
        metric(
            "rt.ingress_blocked",
            in_blocked as f64,
            "count",
            "sum over nodes".into(),
        ),
        metric("net.frames_per_op", per_op(frames), "count", base.clone()),
        metric(
            "net.bytes_per_op",
            per_op(after.bytes - before.bytes),
            "B",
            base.clone(),
        ),
        metric(
            "net.send_us.p50",
            quantile_us(&mut send_ns, 0.5),
            "us",
            n(send_ns.len() as u64),
        ),
        metric(
            "net.send_us.p99",
            quantile_us(&mut send_ns, 0.99),
            "us",
            n(send_ns.len() as u64),
        ),
        metric(
            "net.send_errors",
            (after.send_errors - before.send_errors) as f64,
            "count",
            String::new(),
        ),
        metric(
            "gcs.msgs_per_op",
            per_op(nso("gcs.msgs_sent")),
            "count",
            base.clone(),
        ),
        metric(
            "gcs.msgs_per_frame",
            msgs_per_frame,
            "count",
            "over captured GCS frames".into(),
        ),
        metric(
            "gcs.encode_calls_per_op",
            per_op(nso("gcs.encode_calls")),
            "count",
            base.clone(),
        ),
        metric(
            "gcs.bytes_encoded_per_op",
            per_op(nso("gcs.bytes_encoded")),
            "B",
            base.clone(),
        ),
        metric(
            "gcs.order_records_per_op",
            per_op(nso("gcs.order_records")),
            "count",
            base.clone(),
        ),
        metric(
            "gcs.nulls_per_op",
            per_op(nso("ev.time_silence_null")),
            "count",
            base.clone(),
        ),
        metric(
            "gcs.nacks",
            nso("ev.nack_sent") as f64,
            "count",
            String::new(),
        ),
        metric(
            "gcs.retransmits",
            nso("ev.retransmit") as f64,
            "count",
            String::new(),
        ),
        metric(
            "flow.shed_per_kop",
            per_op(nso("flow.shed")) * 1e3,
            "count",
            base.clone(),
        ),
        metric(
            "flow.queue_depth_peak",
            after.flow_depth_peak as f64,
            "count",
            "largest over nodes".into(),
        ),
        metric(
            "inv.retry_ratio",
            ratio(w.retries as f64, issued as f64),
            "ratio",
            format!("{} retries / {issued} calls", w.retries),
        ),
        metric(
            "inv.overloaded",
            w.overloaded as f64,
            "count",
            String::new(),
        ),
        metric(
            "servant.exec_per_call",
            ratio((after.execs - before.execs) as f64, ops * addressed),
            "ratio",
            format!("executions / (calls x {addressed} replicas addressed)"),
        ),
        metric(
            "servant.exec_us",
            quantile_us(&mut servant_ns, 0.5),
            "us",
            format!("median, n={}", servant_ns.len()),
        ),
        metric(
            "orb.decode_us_per_frame",
            decode_us,
            "us",
            "Nso::decode_gcs_frame over captured frames".into(),
        ),
        metric(
            "nso.bind_ms",
            ms(phases.bind),
            "ms",
            "median over bindings".into(),
        ),
        metric(
            "nso.group_ready_ms",
            ms(phases.group_ready),
            "ms",
            String::new(),
        ),
        metric(
            "loadgen.late_p99_ms",
            ms(w.late.quantile(0.99)),
            "ms",
            n(w.late.len() as u64),
        ),
        metric(
            "trace.wait_us_per_op",
            self_us(trace::OP_LAYER),
            "us",
            "op time no layer span covers".into(),
        ),
        metric("trace.self_us_per_op.rt", self_us("rt"), "us", base.clone()),
        metric(
            "trace.self_us_per_op.invocation",
            self_us("invocation"),
            "us",
            base.clone(),
        ),
        metric(
            "trace.self_us_per_op.gcs",
            self_us("gcs"),
            "us",
            base.clone(),
        ),
        metric(
            "trace.self_us_per_op.net",
            self_us("net"),
            "us",
            base.clone(),
        ),
        metric(
            "trace.self_us_per_op.servant",
            self_us("servant"),
            "us",
            base.clone(),
        ),
        metric(
            "trace.self_us_per_op.loadgen",
            self_us("loadgen"),
            "us",
            base,
        ),
        metric(
            "trace.overhead_lat_p50_ms",
            overhead.p50_ms - typical(|s| s.p50_ms),
            "ms",
            "traced window minus median untraced cluster".into(),
        ),
        metric(
            "trace.overhead_cpu_us_per_op",
            overhead.cpu_us_per_op - typical(|s| s.cpu_us_per_op),
            "us",
            "traced window minus median untraced cluster".into(),
        ),
    ]
}
