//! Bench-trajectory trends: parse the checked-in `BENCH_*.json`
//! records, assert their schemas, and report latest-vs-previous deltas.
//!
//! The trajectory files are append-by-overwrite — every bench run
//! replaces the whole record — so without a reader the history is
//! write-only: a PR that silently halves replay throughput still ships a
//! syntactically fine JSON file. The `bench_trend` binary (and the CI
//! step behind it) closes that loop: it refuses unknown schemas outright
//! and, when given the previous revision of a file (CI extracts it from
//! the parent commit), prints the per-row throughput deltas so the
//! change is visible at review time. Deltas are *reported*, not gated:
//! CI machines are too noisy for hard thresholds, reviewers are not.
//! A throughput delta between records from hosts with different core
//! counts (or a record that does not say) is labelled "not comparable".

use cachegc_core::json::{self, Json};

/// Which trajectory record a file claims to be, keyed by its `schema`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchKind {
    /// `BENCH_grid.json`: cache-grid throughput (`cachegc-bench-grid-v1`).
    Grid,
    /// `BENCH_replay.json`: live-vs-replay rates
    /// (`cachegc-bench-replay-v2`).
    Replay,
    /// `BENCH_telemetry.json`: probe overhead
    /// (`cachegc-bench-telemetry-v1`).
    Telemetry,
}

impl BenchKind {
    /// Map a trajectory file name to its kind.
    pub fn of(file_name: &str) -> Option<BenchKind> {
        match file_name {
            "BENCH_grid.json" => Some(BenchKind::Grid),
            "BENCH_replay.json" => Some(BenchKind::Replay),
            "BENCH_telemetry.json" => Some(BenchKind::Telemetry),
            _ => None,
        }
    }

    /// The exact schema string the file must declare.
    pub fn schema(&self) -> &'static str {
        match self {
            BenchKind::Grid => "cachegc-bench-grid-v1",
            BenchKind::Replay => "cachegc-bench-replay-v2",
            BenchKind::Telemetry => "cachegc-bench-telemetry-v1",
        }
    }

    /// Every kind with its canonical file name, in report order.
    pub const ALL: [(BenchKind, &'static str); 3] = [
        (BenchKind::Grid, "BENCH_grid.json"),
        (BenchKind::Replay, "BENCH_replay.json"),
        (BenchKind::Telemetry, "BENCH_telemetry.json"),
    ];
}

/// Parse `text`, assert its schema matches `kind`, and return the report
/// lines: one header plus one delta line per comparable row. `prev` is
/// the previous revision of the same file (its schema is checked too);
/// without it only the current rows are listed.
///
/// # Errors
///
/// A parse failure or schema mismatch in either revision, with the
/// offending schema named.
pub fn trend(kind: BenchKind, text: &str, prev: Option<&str>) -> Result<Vec<String>, String> {
    let doc = parse_checked(kind, text, "current")?;
    let prev = match prev {
        Some(p) => Some(parse_checked(kind, p, "previous")?),
        None => None,
    };
    Ok(match kind {
        BenchKind::Grid => grid_lines(&doc, prev.as_ref()),
        BenchKind::Replay => replay_lines(&doc, prev.as_ref()),
        BenchKind::Telemetry => telemetry_lines(&doc, prev.as_ref()),
    })
}

fn parse_checked(kind: BenchKind, text: &str, which: &str) -> Result<Json, String> {
    let doc = json::parse(text).map_err(|e| format!("{which}: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{which}: no schema string"))?;
    if schema != kind.schema() {
        return Err(format!(
            "{which}: schema '{schema}' is not '{}'",
            kind.schema()
        ));
    }
    Ok(doc)
}

/// `(now, prev)` formatted as a relative delta, `n/a` when the baseline
/// is degenerate.
fn pct(now: f64, prev: f64) -> String {
    if !prev.is_finite() || prev.abs() < 1e-12 {
        return "n/a".into();
    }
    format!("{:+.1}%", (now / prev - 1.0) * 100.0)
}

/// Humanize an events-per-second rate.
fn rate(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G/s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M/s", v / 1e6)
    } else {
        format!("{:.0}/s", v)
    }
}

fn num(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The host core count a record declares, if it declares one.
fn host_cores(doc: &Json) -> Option<u64> {
    doc.get("host_cores").and_then(Json::as_u64)
}

fn cores(n: Option<u64>) -> String {
    n.map_or_else(|| "?".into(), |n| n.to_string())
}

/// Nothing when `now` and `was` came from hosts with the same known core
/// count; otherwise a "not comparable" note naming both counts.
fn comparable(now: Option<u64>, was: Option<u64>) -> String {
    match (now, was) {
        (Some(a), Some(b)) if a == b => String::new(),
        _ => format!(
            ", not comparable: host cores {} vs {}",
            cores(was),
            cores(now)
        ),
    }
}

/// Find the row in `rows` matching `row`'s workload and scale.
fn matching<'a>(rows: Option<&'a [Json]>, row: &Json) -> Option<&'a Json> {
    let key = |r: &Json| {
        Some((
            r.get("workload")?.as_str()?.to_string(),
            r.get("scale")?.as_u64()?,
        ))
    };
    let want = key(row)?;
    rows?.iter().find(|r| key(r).as_ref() == Some(&want))
}

fn grid_lines(doc: &Json, prev: Option<&Json>) -> Vec<String> {
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    let prev_runs = prev.and_then(|p| p.get("runs")).and_then(Json::as_arr);
    let note = comparable(host_cores(doc), prev.and_then(host_cores));
    let mut out = vec![format!(
        "grid: {} runs, jobs {}, host cores {}, {:.1}s total",
        runs.len(),
        doc.get("jobs").and_then(Json::as_u64).unwrap_or(0),
        cores(host_cores(doc)),
        num(doc, "total_wall_secs"),
    )];
    for r in runs {
        let now = num(r, "cell_events_per_sec");
        let delta = match matching(prev_runs, r) {
            Some(p) => {
                let was = num(p, "cell_events_per_sec");
                format!(
                    "{} (prev {}, {}{note})",
                    rate(now),
                    rate(was),
                    pct(now, was)
                )
            }
            None => format!("{} (no previous row)", rate(now)),
        };
        out.push(format!(
            "  {}: {} cell-events",
            r.get("workload").and_then(Json::as_str).unwrap_or("?"),
            delta
        ));
    }
    out
}

fn replay_lines(doc: &Json, prev: Option<&Json>) -> Vec<String> {
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    // Previous revision when CI has one; the file's own carried-forward
    // v1 trajectory otherwise, so a lone file still reports a delta.
    // The v1 baseline predates the core count, so it never compares.
    let (prev_runs, against, was_cores) =
        match prev.and_then(|p| p.get("runs")).and_then(Json::as_arr) {
            Some(rows) => (Some(rows), "prev", prev.and_then(host_cores)),
            None => (
                doc.get("baseline_v1").and_then(Json::as_arr),
                "v1 baseline",
                None,
            ),
        };
    let note = comparable(host_cores(doc), was_cores);
    let mut out = vec![format!(
        "replay: {} runs, host cores {} (vs {against})",
        runs.len(),
        cores(host_cores(doc)),
    )];
    for r in runs {
        let now = num(r, "replay_events_per_sec");
        let line = match matching(prev_runs, r) {
            Some(p) => {
                let was = num(p, "replay_events_per_sec");
                format!(
                    "{} ({} {}, {}{note})",
                    rate(now),
                    against,
                    rate(was),
                    pct(now, was)
                )
            }
            None => format!("{} (no {against} row)", rate(now)),
        };
        out.push(format!(
            "  {}: replay {}, batch grid {} cell-events",
            r.get("workload").and_then(Json::as_str).unwrap_or("?"),
            line,
            rate(num(r, "grid_batch_cell_events_per_sec")),
        ));
    }
    out
}

fn telemetry_lines(doc: &Json, prev: Option<&Json>) -> Vec<String> {
    let overhead = num(doc, "overhead_fraction");
    let mut line = format!(
        "telemetry: {} overhead {:+.2}% ({} samples)",
        doc.get("experiment").and_then(Json::as_str).unwrap_or("?"),
        overhead * 100.0,
        doc.get("samples").and_then(Json::as_u64).unwrap_or(0),
    );
    if let Some(p) = prev {
        line.push_str(&format!(
            " [prev {:+.2}%]",
            num(p, "overhead_fraction") * 100.0
        ));
    }
    vec![line]
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRID: &str = r#"{
  "schema": "cachegc-bench-grid-v1", "binary": "parallel_grid", "jobs": 4,
  "total_wall_secs": 10.0,
  "runs": [{"workload": "rewrite/jobs=4", "scale": 1, "events": 100,
            "cells": 40, "wall_secs": 1.0, "cell_events_per_sec": 50000000.0}]
}"#;

    #[test]
    fn grid_reports_deltas_against_previous() {
        let prev = GRID.replace("50000000.0", "40000000.0");
        let lines = trend(BenchKind::Grid, GRID, Some(&prev)).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("1 runs"));
        assert!(lines[1].contains("50.0M/s"));
        assert!(lines[1].contains("prev 40.0M/s"));
        assert!(lines[1].contains("+25.0%"));
        // Without a previous revision the row still prints.
        let solo = trend(BenchKind::Grid, GRID, None).unwrap();
        assert!(solo[1].contains("no previous row"));
    }

    #[test]
    fn grid_header_names_the_cores_and_equal_cores_compare() {
        let now = GRID.replace("\"jobs\": 4,", "\"jobs\": 4, \"host_cores\": 2,");
        let prev = now.replace("50000000.0", "40000000.0");
        let lines = trend(BenchKind::Grid, &now, Some(&prev)).unwrap();
        assert!(lines[0].contains("host cores 2"), "{}", lines[0]);
        assert!(lines[1].contains("+25.0%)"), "{}", lines[1]);
        assert!(!lines[1].contains("not comparable"), "{}", lines[1]);
    }

    #[test]
    fn deltas_across_core_counts_are_not_comparable() {
        let now = GRID.replace("\"jobs\": 4,", "\"jobs\": 4, \"host_cores\": 2,");
        // A previous revision from a one-core host.
        let one = GRID.replace("\"jobs\": 4,", "\"jobs\": 4, \"host_cores\": 1,");
        let lines = trend(BenchKind::Grid, &now, Some(&one)).unwrap();
        assert!(
            lines[1].contains("+0.0%, not comparable: host cores 1 vs 2"),
            "{}",
            lines[1]
        );
        // A previous revision that predates the field.
        let lines = trend(BenchKind::Grid, &now, Some(GRID)).unwrap();
        assert!(
            lines[1].contains("not comparable: host cores ? vs 2"),
            "{}",
            lines[1]
        );
        // The replay record labels its rows the same way.
        let replay = |cores: &str| {
            format!(
                r#"{{"schema": "cachegc-bench-replay-v2", {cores}
  "runs": [{{"workload": "compile", "scale": 1,
            "replay_events_per_sec": 100000000.0}}]}}"#
            )
        };
        let (now, prev) = (replay("\"host_cores\": 2,"), replay("\"host_cores\": 1,"));
        let lines = trend(BenchKind::Replay, &now, Some(&prev)).unwrap();
        assert!(lines[0].contains("host cores 2"), "{}", lines[0]);
        assert!(lines[1].contains("not comparable: host cores 1 vs 2"));
        let lines = trend(BenchKind::Replay, &now, Some(&now)).unwrap();
        assert!(!lines[1].contains("not comparable"), "{}", lines[1]);
    }

    #[test]
    fn replay_falls_back_to_its_own_v1_baseline() {
        let text = r#"{
  "schema": "cachegc-bench-replay-v2",
  "baseline_v1": [{"workload": "compile", "scale": 1, "events": 1,
                   "trace_bytes": 1, "live_events_per_sec": 1.0,
                   "replay_events_per_sec": 100000000.0}],
  "runs": [{"workload": "compile", "scale": 1, "events": 1, "trace_bytes": 1,
            "live_events_per_sec": 2.0, "replay_events_per_sec": 150000000.0,
            "grid_batch_cell_events_per_sec": 2000000000.0}]
}"#;
        let lines = trend(BenchKind::Replay, text, None).unwrap();
        assert!(lines[0].contains("vs v1 baseline"));
        assert!(lines[1].contains("+50.0%"));
        assert!(lines[1].contains("2.00G/s"));
    }

    #[test]
    fn telemetry_reports_overhead() {
        let t = r#"{"schema": "cachegc-bench-telemetry-v1",
                    "experiment": "e4_write_policy", "samples": 5,
                    "overhead_fraction": 0.0123}"#;
        let p = r#"{"schema": "cachegc-bench-telemetry-v1",
                    "experiment": "e4_write_policy", "samples": 5,
                    "overhead_fraction": -0.02}"#;
        let lines = trend(BenchKind::Telemetry, t, Some(p)).unwrap();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("+1.23%"));
        assert!(lines[0].contains("[prev -2.00%]"));
    }

    #[test]
    fn wrong_or_missing_schemas_are_refused() {
        let err = trend(
            BenchKind::Grid,
            r#"{"schema": "cachegc-bench-replay-v2"}"#,
            None,
        )
        .unwrap_err();
        assert!(err.contains("cachegc-bench-grid-v1"), "{err}");
        assert!(trend(BenchKind::Grid, "{}", None)
            .unwrap_err()
            .contains("no schema"));
        assert!(trend(BenchKind::Grid, "nonsense", None).is_err());
        // A bad *previous* revision is an error too, not silently ignored.
        let err = trend(BenchKind::Grid, GRID, Some("{}")).unwrap_err();
        assert!(err.contains("previous"), "{err}");
        // Real checked-in shapes map to kinds.
        assert_eq!(BenchKind::of("BENCH_grid.json"), Some(BenchKind::Grid));
        assert_eq!(BenchKind::of("BENCH_other.json"), None);
    }
}
