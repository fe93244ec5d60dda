//! Closed-loop benchmark of the DHC1, DHC2 and Upcast entry points.
//!
//! ```text
//! dhc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dhc-perfbench --screen <name> <pool>
//! ```
//!
//! A run draws its suite of instances from the workload's pinned pool by
//! `--seed`, calls the entry point on them one at a time for `--seconds`,
//! checks every result, and prints each metric by name with its unit. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones).
//!
//! `--screen` calls the entry point once on instances `0, 1, 2, ...` until
//! `pool` of them have succeeded, and prints the workload's `pins.json`
//! entry: every instance that succeeded is pinned, every typed error is
//! listed as excluded.

mod clock;
mod pins;
mod run;
mod stats;
mod trace;
mod workload;

use dhc_obs::json::Json;
use pins::Pin;
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage: dhc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       dhc-perfbench --screen <name> <pool>";

/// A parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Run { workload: Workload, seed: u64, seconds: u64, trace: bool },
    Screen { workload: Workload, pool: usize },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let workload = |name: &str| {
        Workload::from_name(name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?}; expected one of {}", names.join(", "))
        })
    };
    let number = |flag: &str, v: &str| {
        v.parse::<u64>().map_err(|_| format!("{flag} expects a whole number, got {v:?}"))
    };
    if let [flag, name, pool] = args {
        if flag == "--screen" {
            return Ok(Command::Screen {
                workload: workload(name)?,
                pool: number(flag, pool)? as usize,
            });
        }
    }
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} has no value", pair[0])) };
        match flag.as_str() {
            "--workload" => w = Some(workload(value)?),
            "--seed" => seed = Some(number(flag, value)?),
            "--seconds" => seconds = Some(number(flag, value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    match (w, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0 => {
            Ok(Command::Run { workload, seed, seconds, trace })
        }
        (.., Some(0), _) => Err("--seconds must be at least 1".to_string()),
        _ => Err("--workload, --seed, --seconds and --trace are all required".to_string()),
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with all its digits.
fn result_line(report: &run::Report) -> String {
    let metrics = report.metrics.iter().fold(Json::obj(), |obj, m| {
        let value = Json::Num(format!("{}", m.value));
        obj.set(m.name.clone(), Json::obj().set("value", value).set("unit", Json::str(m.unit)))
    });
    Json::obj()
        .set("correct", Json::Bool(report.correct()))
        .set("attempted", Json::u64(report.attempted))
        .set("failed", Json::usize(report.failures.len()))
        .set("metrics", metrics)
        .render()
}

/// Calls the entry point once per instance until `size` instances have
/// succeeded, and renders the workload's `pins.json` entry.
fn screen(w: Workload, size: usize) -> String {
    let shape = w.full();
    let (mut pool, mut excluded) = (Vec::new(), Vec::new());
    let mut instance = 0;
    while pool.len() < size {
        let input = w.generate(shape, instance);
        let c0 = clock::thread_cpu();
        let result = w.call(shape, &input, &w.config(shape, instance));
        let cpu = (clock::thread_cpu() - c0).as_secs_f64();
        match result {
            Ok(outcome) => {
                let pin = Pin::observe(instance, &input, &outcome);
                eprintln!("instance {instance}: {cpu:.3} s CPU, {} messages", pin.messages);
                pool.push(pin.to_json());
            }
            Err(e) => excluded.push(
                Json::obj()
                    .set("instance", Json::u64(instance))
                    .set("error", Json::str(e.to_string())),
            ),
        }
        instance += 1;
    }
    Json::obj()
        .set("screened", Json::u64(instance))
        .set("excluded", Json::Arr(excluded))
        .set("pool", Json::Arr(pool))
        .render()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dhc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (workload, seed, seconds, trace) = match command {
        Command::Screen { workload, pool } => {
            println!("{}", screen(workload, pool));
            return ExitCode::SUCCESS;
        }
        Command::Run { workload, seed, seconds, trace } => (workload, seed, seconds, trace),
    };
    let pool = match pins::pool(workload) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("dhc-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let suite = pins::suite(&pool, seed, pins::STRATA);
    let instances: Vec<u64> = suite.iter().map(|p| p.instance).collect();
    eprintln!("{} seed {seed}: suite instances {instances:?}", workload.name());
    let shape = workload.full();
    let report = if trace {
        run::traced(workload, shape, &suite, seconds as f64)
    } else {
        run::untraced(workload, shape, &suite, seconds as f64)
    };
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    for note in &report.notes {
        eprintln!("{note}");
    }
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        assert_eq!(
            parse(&args("--workload upcast-gnp --seed 7 --seconds 12 --trace 1")),
            Ok(Command::Run { workload: Workload::UpcastGnp, seed: 7, seconds: 12, trace: true })
        );
        assert_eq!(
            parse(&args("--screen dhc1-dense 16")),
            Ok(Command::Screen { workload: Workload::Dhc1Dense, pool: 16 })
        );
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload dhc1-dense --seed x --seconds 1 --trace 0",
            "--workload dhc1-dense --seed 1 --seconds 0 --trace 0",
            "--workload dhc1-dense --seed 1 --seconds 1 --trace 2",
            "--workload dhc1-dense --seed 1 --seconds 1",
            "--workload dhc1-dense --seed 1 --seconds 1 --trace",
            "--workload dhc1-dense --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys_and_full_digits() {
        let report = run::Report {
            attempted: 3,
            failures: vec!["instance 1: boom".to_string()],
            metrics: vec![run::Metric {
                name: "wall_s".to_string(),
                unit: "s",
                value: 1.2034567891,
            }],
            notes: Vec::new(),
        };
        let line = result_line(&report);
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":3,"failed":1,"metrics":{"wall_s":{"value":1.2034567891,"unit":"s"}}}"#
        );
        assert!(Json::parse(&line).is_ok());
    }
}
