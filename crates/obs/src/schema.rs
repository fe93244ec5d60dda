//! The shared, versioned envelope for `BENCH_*.json` documents.
//!
//! Every committed bench file is one JSON object:
//!
//! ```json
//! {
//!   "schema": "dhc-bench/v1",
//!   "schema_version": 1,
//!   "experiment": "e13",
//!   "bench": "engine",
//!   "workload": "micro + dhc1",
//!   "cores": 8,
//!   "seed": 7,
//!   "meta": { ... },            // optional, experiment-specific facts
//!   "records": [ {"kind": "...", ...}, ... ]
//! }
//! ```
//!
//! Each element of `records` is a flat-ish object whose only required
//! key is a string `"kind"` — experiments define their own kinds (e.g.
//! `"engine-workload"`, `"scale-point"`, `"drop-curve"`). The envelope
//! is what [`validate`] enforces and what the CI schema-check step runs
//! over all committed `BENCH_*.json`.

use crate::json::Json;

/// The schema identifier written to every document.
pub const BENCH_SCHEMA: &str = "dhc-bench/v1";

/// The schema version written to (and required of) every document.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One record in a bench document: a `kind` tag plus arbitrary fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    fields: Vec<(String, Json)>,
}

impl Record {
    /// A record of the given `kind`.
    pub fn new(kind: impl Into<String>) -> Record {
        Record { fields: vec![("kind".to_string(), Json::Str(kind.into()))] }
    }

    /// Adds an arbitrary JSON field.
    pub fn field(mut self, key: impl Into<String>, value: Json) -> Record {
        self.fields.push((key.into(), value));
        self
    }

    /// Adds a string field.
    pub fn str(self, key: impl Into<String>, value: impl Into<String>) -> Record {
        self.field(key, Json::Str(value.into()))
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: impl Into<String>, value: u64) -> Record {
        self.field(key, Json::u64(value))
    }

    /// Adds a `usize` field.
    pub fn usize(self, key: impl Into<String>, value: usize) -> Record {
        self.field(key, Json::usize(value))
    }

    /// Adds a boolean field.
    pub fn bool(self, key: impl Into<String>, value: bool) -> Record {
        self.field(key, Json::Bool(value))
    }

    /// Adds a float field rendered with three decimals.
    pub fn f3(self, key: impl Into<String>, value: f64) -> Record {
        self.field(key, Json::f3(value))
    }

    /// Adds a float field rendered with one decimal.
    pub fn f1(self, key: impl Into<String>, value: f64) -> Record {
        self.field(key, Json::f1(value))
    }

    fn into_json(self) -> Json {
        Json::Obj(self.fields)
    }
}

/// Builder for one `dhc-bench/v1` document.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    experiment: String,
    bench: String,
    workload: String,
    cores: usize,
    seed: u64,
    meta: Vec<(String, Json)>,
    records: Vec<Json>,
}

impl BenchDoc {
    /// A new document for `experiment` (e.g. `"e13"`), bench family
    /// `bench` (e.g. `"engine"`), and a human-readable `workload`.
    pub fn new(
        experiment: impl Into<String>,
        bench: impl Into<String>,
        workload: impl Into<String>,
        cores: usize,
        seed: u64,
    ) -> BenchDoc {
        BenchDoc {
            experiment: experiment.into(),
            bench: bench.into(),
            workload: workload.into(),
            cores,
            seed,
            meta: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Adds an experiment-specific fact to the optional `meta` object.
    pub fn meta(&mut self, key: impl Into<String>, value: Json) -> &mut BenchDoc {
        self.meta.push((key.into(), value));
        self
    }

    /// Appends a record.
    pub fn push(&mut self, record: Record) -> &mut BenchDoc {
        self.records.push(record.into_json());
        self
    }

    /// Appends an already-built JSON record verbatim — how emitters
    /// carry records forward from a committed document (e.g. heavy rows
    /// a non-`--heavy` run must not lose). The record must be an object
    /// with a string `"kind"`, like any other.
    pub fn push_json(&mut self, record: Json) -> &mut BenchDoc {
        debug_assert!(
            record.get("kind").and_then(Json::as_str).is_some(),
            "carried-forward record must be an object with a string \"kind\""
        );
        self.records.push(record);
        self
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the document: envelope keys on their own lines, one
    /// record per line — mergeable diffs, still strict JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", Json::str(BENCH_SCHEMA).render()));
        out.push_str(&format!("  \"schema_version\": {BENCH_SCHEMA_VERSION},\n"));
        out.push_str(&format!(
            "  \"experiment\": {},\n",
            Json::str(self.experiment.clone()).render()
        ));
        out.push_str(&format!("  \"bench\": {},\n", Json::str(self.bench.clone()).render()));
        out.push_str(&format!("  \"workload\": {},\n", Json::str(self.workload.clone()).render()));
        out.push_str(&format!("  \"cores\": {},\n", self.cores));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        if !self.meta.is_empty() {
            out.push_str(&format!("  \"meta\": {},\n", Json::Obj(self.meta.clone()).render()));
        }
        out.push_str("  \"records\": [\n");
        for (i, rec) in self.records.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&rec.render());
            out.push_str(if i + 1 < self.records.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Validates one `BENCH_*.json` document against the `dhc-bench/v1`
/// envelope. Returns every violation found (empty = valid).
pub fn validate(text: &str) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("not valid JSON: {e}")]),
    };
    if doc.as_object().is_none() {
        return Err(vec!["top level is not an object".to_string()]);
    }

    match doc.get("schema").and_then(Json::as_str) {
        Some(BENCH_SCHEMA) => {}
        Some(other) => errors.push(format!("schema is {other:?}, expected {BENCH_SCHEMA:?}")),
        None => errors.push("missing string key \"schema\"".to_string()),
    }
    match doc.get("schema_version").and_then(Json::as_u64) {
        Some(BENCH_SCHEMA_VERSION) => {}
        Some(v) => errors.push(format!("schema_version is {v}, expected {BENCH_SCHEMA_VERSION}")),
        None => errors.push("missing integer key \"schema_version\"".to_string()),
    }
    for key in ["experiment", "bench", "workload"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            errors.push(format!("missing string key {key:?}"));
        }
    }
    for key in ["cores", "seed"] {
        if doc.get(key).and_then(Json::as_u64).is_none() {
            errors.push(format!("missing integer key {key:?}"));
        }
    }
    if let Some(meta) = doc.get("meta") {
        if meta.as_object().is_none() {
            errors.push("\"meta\" is not an object".to_string());
        }
    }
    match doc.get("records").and_then(Json::as_array) {
        None => errors.push("missing array key \"records\"".to_string()),
        Some(records) => {
            for (i, rec) in records.iter().enumerate() {
                if rec.as_object().is_none() {
                    errors.push(format!("records[{i}] is not an object"));
                } else if rec.get("kind").and_then(Json::as_str).is_none() {
                    errors.push(format!("records[{i}] has no string \"kind\""));
                }
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_docs_validate() {
        let mut doc = BenchDoc::new("e13", "engine", "micro", 8, 7);
        doc.meta("sizes", Json::Arr(vec![Json::u64(1_000), Json::u64(10_000)]));
        doc.push(
            Record::new("engine-workload")
                .str("workload", "flood-echo")
                .u64("n", 1000)
                .f3("wall_ms", 12.5),
        );
        doc.push(Record::new("overhead").bool("attached", true).f1("pct", 1.2));
        let text = doc.render();
        assert!(validate(&text).is_ok(), "{:?}", validate(&text));
        assert!(doc.len() == 2 && !doc.is_empty());
        // One record per line, envelope keys stable.
        assert!(text.contains("\n    {\"kind\":\"engine-workload\""));
        assert!(text.starts_with("{\n  \"schema\": \"dhc-bench/v1\",\n  \"schema_version\": 1,\n"));
    }

    #[test]
    fn validation_catches_drift() {
        // Old-style ad-hoc document: no envelope at all.
        let old = r#"{"bench":"engine","results":[{"workload":"flood"}]}"#;
        let errs = validate(old).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("\"schema\"")), "{errs:?}");

        // Wrong version.
        let doc = BenchDoc::new("e1", "b", "w", 1, 0)
            .render()
            .replace("\"schema_version\": 1", "\"schema_version\": 2");
        let errs = validate(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("schema_version")), "{errs:?}");

        // Record without a kind.
        let mut doc = BenchDoc::new("e1", "b", "w", 1, 0);
        doc.push(Record::new("ok"));
        let text = doc.render().replace(r#"{"kind":"ok"}"#, r#"{"notkind":1}"#);
        let errs = validate(&text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("records[0]")), "{errs:?}");

        // Not JSON.
        assert!(validate("nonsense").is_err());
    }
}
