//! Every committed `BENCH_*.json` baseline at the workspace root must
//! be a valid `dhc-bench/v1` document ([`dhc_obs::schema`]) — the
//! contract that lets downstream tooling (and the carry-forward logic
//! in `dhc_bench::baseline`) parse any baseline without per-experiment
//! special cases. CI runs this as the schema-check step.

use std::path::PathBuf;

/// The workspace root, two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn committed_baselines_validate_against_the_bench_schema() {
    let root = workspace_root();
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(&root).expect("workspace root readable") {
        let path = entry.expect("dir entry").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("baseline readable");
        if let Err(errors) = dhc_obs::schema::validate(&text) {
            panic!("{name} is not a valid dhc-bench/v1 document:\n  {}", errors.join("\n  "));
        }
        checked.push(name.to_string());
    }
    checked.sort();
    assert_eq!(
        checked,
        ["BENCH_adversary.json", "BENCH_engine.json", "BENCH_kmachine.json", "BENCH_scale.json"],
        "committed baselines at {}",
        root.display()
    );
}

#[test]
fn committed_engine_baseline_keeps_collector_overhead_under_two_percent() {
    use dhc_obs::json::Json;
    let text = std::fs::read_to_string(workspace_root().join("BENCH_engine.json"))
        .expect("BENCH_engine.json readable");
    let doc = Json::parse(&text).expect("valid JSON");
    let records = doc.get("records").and_then(Json::as_array).expect("records array");
    let overhead = records
        .iter()
        .find(|r| r.get("kind").and_then(Json::as_str) == Some("collector-overhead"))
        .expect("BENCH_engine.json records a collector-overhead row");
    let pct = overhead
        .get("overhead_pct")
        .and_then(|v| match v {
            Json::Num(s) => s.parse::<f64>().ok(),
            _ => None,
        })
        .expect("overhead_pct number");
    assert!(pct < 2.0, "telemetry collector overhead on flood-echo is {pct:.3}% (bar: < 2%)");
}
