//! The benchmark's own checks: its offered inputs depend only on the
//! seed, a short run of every workload passes every output check, and a
//! traced run reports exactly the metrics `BENCHMARK.json` lists.

use newtop_perfbench::schedule::offered;
use newtop_perfbench::{run, Args, WorkloadName};

#[test]
fn same_seed_gives_byte_identical_offered_inputs() {
    for w in WorkloadName::ALL {
        let a = offered(w, 7, 64);
        assert!(!a.is_empty(), "{w:?} offers nothing");
        assert_eq!(a, offered(w, 7, 64), "{w:?}: same seed, different inputs");
        assert_ne!(
            a,
            offered(w, 8, 64),
            "{w:?}: the seed does not reach the inputs"
        );
    }
}

/// Metric names listed under `key` in the repository's
/// `BENCHMARK.json` (a flat scan: each entry is one `{"name": ...}`).
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let end = section.find(']').expect("section closed");
    section[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn args(workload: WorkloadName, trace: bool) -> Args {
    Args {
        workload,
        seed: 3,
        seconds: 1.0,
        trace,
    }
}

// One test, so runs never overlap: tracing is process-wide.
#[test]
fn short_runs_pass_every_output_check_and_report_every_metric() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for w in WorkloadName::ALL {
        for trace in [false, true] {
            let report = run(&args(w, trace)).expect("run completes");
            let out = report.render(trace);
            assert!(
                report.correct,
                "{w:?} trace={trace} failed an output check:\n{out}"
            );
            assert!(report.attempted > 0);
            assert_eq!(report.failed, 0, "{w:?} trace={trace}:\n{out}");
            let names = |ms: &[newtop_perfbench::measure::Metric]| -> Vec<String> {
                ms.iter().map(|m| m.name.clone()).collect()
            };
            assert_eq!(names(&report.end_to_end), end_to_end, "{w:?}");
            if trace {
                assert_eq!(names(&report.per_layer), per_layer, "{w:?}");
            }
            let last = out.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
        }
    }
}
