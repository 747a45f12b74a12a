//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the simulator benchmark from the current
//! directory, prints every metric by name and unit, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. Cache
//! directories and the traced run's spans go under `.perfbench_run/`.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use ts_perfbench::{Bench, Kind, Outcome};
use ts_workloads::Scale;

const USAGE: &str = "usage: perfbench --workload <mem_bound|task_bound|warm_cache> --seed <n> \
                     --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir = Path::new(".perfbench_run");
    let mut bench = Bench::setup(args.kind, Scale::Small, args.seed, work_dir);
    let out = bench.run(Duration::from_secs(args.seconds), args.trace);
    drop(bench);
    for (name, value) in &out.metrics {
        println!("{name} = {value} {}", Outcome::unit(name));
    }
    if let Some(spans) = &out.spans {
        let path = work_dir.join(format!("spans-{}-seed{}.json", args.kind.name(), args.seed));
        if let Err(e) = std::fs::create_dir_all(work_dir).and_then(|_| std::fs::write(&path, spans))
        {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", path.display());
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
