//! The benchmark's own checks, at tiny scale.
//!
//! The benchmark drives process-wide state (the result cache's switch
//! and directory, the pool width), so the tests take turns.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use taskstream_model::Program;
use ts_bench::{cache, SweepJob};
use ts_delta::{DeltaConfig, RunReport};
use ts_perfbench::{Bench, CacheMode, Kind, Outcome, END_TO_END, PER_LAYER};
use ts_workloads::{suite, Scale, Workload, WorkloadInfo};

static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn work_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{test}"))
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let _turn = turn();
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let notes = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/metrics.json"))
        .expect("metrics.json describes the metrics");
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            notes.contains(&format!("\"{name}\": {{")),
            "metrics.json lacks {name}"
        );
    }
    assert_eq!(
        spec.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists a metric the benchmark does not print"
    );

    let dir = work_dir("metrics");
    for kind in Kind::ALL {
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = Bench::setup(kind, Scale::Tiny, 42, &dir).run(Duration::ZERO, traced);
            assert!(out.correct, "{} traced={traced}: {out:?}", kind.name());
            assert_eq!(out.metrics.len(), table.len());
            let json = out.to_json();
            for (name, unit) in table {
                let printed = format!("\"{name}\": {{\"value\": ");
                assert!(
                    json.contains(&printed),
                    "{} lacks {name}: {json}",
                    kind.name()
                );
                assert_eq!(Outcome::unit(name), *unit);
            }
            assert!(json.contains(&format!("\"unit\": \"{}\"", table[0].1)));
            assert_eq!(out.spans.is_some(), traced);
        }
    }
}

/// Runs the wrapped workload but rejects every result.
struct WrongAnswers(Box<dyn Workload>);

impl Workload for WrongAnswers {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn make_program(&self) -> Box<dyn Program> {
        self.0.make_program()
    }

    fn validate(&self, _report: &RunReport) -> Result<(), String> {
        Err("deliberately wrong".to_string())
    }

    fn info(&self) -> WorkloadInfo {
        self.0.info()
    }
}

#[test]
fn a_failed_validation_counts_as_a_failure() {
    let _turn = turn();
    let spmv = || suite(Scale::Tiny, 1).swap_remove(0);
    let jobs = || {
        vec![
            SweepJob::new(Arc::from(spmv()), DeltaConfig::delta(4)),
            SweepJob::new(Arc::new(WrongAnswers(spmv())), DeltaConfig::delta(4)),
        ]
    };
    for (traced, passes) in [(false, 1), (true, 2)] {
        let out =
            Bench::new(jobs(), CacheMode::Off, &work_dir("validate")).run(Duration::ZERO, traced);
        assert!(!out.correct);
        assert_eq!(
            (out.attempted, out.failed),
            (2 * passes, passes),
            "traced={traced}"
        );
        if !traced {
            assert_eq!(
                out.metrics
                    .iter()
                    .find(|(n, _)| *n == "pass_ratio")
                    .map(|m| m.1),
                Some(0.5)
            );
        }
    }
}

#[test]
fn a_tampered_warm_entry_is_a_failure() {
    let _turn = turn();
    let mut bench = Bench::setup(Kind::WarmCache, Scale::Tiny, 42, &work_dir("tamper"));
    let j = &bench.jobs()[0];
    let key = cache::key(j.wl.as_ref(), &j.cfg, j.baseline, j.faulted);
    let path = cache::dir().join(format!("{key}.json"));
    let entry = std::fs::read_to_string(&path).expect("the fill stored every job");
    let field = "\"cycles\": \"";
    let at = entry.find(field).expect("entries carry cycles") + field.len();
    let len = entry[at..].find('"').expect("cycles is a string");
    let cycles: u64 = entry[at..at + len].parse().expect("cycles is a number");
    let tampered = format!("{}{}{}", &entry[..at], 2 * cycles, &entry[at + len..]);
    std::fs::write(&path, tampered).expect("cache entry is writable");

    let out = bench.run(Duration::ZERO, false);
    assert!(!out.correct);
    assert_eq!(out.failed, 1);
}
