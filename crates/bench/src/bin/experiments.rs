//! Regenerates the paper's quantitative claims; see PAPER.md.
//!
//! ```text
//! cargo run --release -p dhc-bench --bin experiments -- \
//!     [--list] [--quick|--smoke] [--heavy] [--progress|--no-progress] [--seed S] <id>...|all
//! ```
//!
//! `--list` prints every experiment id with its one-line description and
//! exits. `--heavy` opts into the points that run for over a minute each
//! (E13's end-to-end DHC1 at n = 10⁴, E15's delay/crash sweeps, E16's
//! largest scale points); they are skipped with a notice otherwise so
//! `experiments all` stays tractable. `--progress` attaches the
//! `dhc-obs` stderr heartbeat to the long E13/E16 runs (live round and
//! message counts every two seconds); it defaults **on** under
//! `--heavy` — a million-node sweep should never look hung — and
//! `--no-progress` turns it back off.

use dhc_bench::experiments::{run_by_id, Effort, CATALOG};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut effort = Effort::Full;
    let mut heavy = false;
    let mut progress: Option<bool> = None;
    let mut seed = 20180424u64; // paper's arXiv date
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                for (id, description) in CATALOG {
                    println!("{id:<4} {description}");
                }
                return;
            }
            "--quick" => effort = Effort::Quick,
            "--smoke" => effort = Effort::Smoke,
            "--heavy" => heavy = true,
            "--progress" => progress = Some(true),
            "--no-progress" => progress = Some(false),
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage("missing value after --seed"));
                seed = v.parse().unwrap_or_else(|_| usage("--seed expects an integer"));
            }
            "all" => ids.extend(CATALOG.iter().map(|(id, _)| id.to_string())),
            id if id.starts_with('e') => ids.push(id.to_string()),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    if ids.is_empty() {
        usage("no experiment selected");
    }
    // Heavy runs take minutes per point; default the heartbeat on so
    // they never look hung.
    let progress = progress.unwrap_or(heavy);
    println!(
        "# dhc experiments (effort: {:?}, seed: {seed})\n# Chatterjee, Fathi, Pandurangan, Pham: Distributed Hamiltonian Cycles (ICDCS 2018)\n",
        effort
    );
    for id in ids {
        let start = Instant::now();
        match run_by_id(&id, effort, heavy, progress, seed) {
            Ok(report) => {
                println!("{report}");
                println!("    [{id} took {:.1}s]\n", start.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: experiments [--list] [--quick|--smoke] [--heavy] [--progress|--no-progress] \
         [--seed S] <id>...|all"
    );
    std::process::exit(2)
}
