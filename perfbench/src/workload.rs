//! The three workloads, their set-up, one timed pass of each, and the
//! checks that every pass's outputs are correct.
//!
//! Each workload is a closed loop: one caller drives a pass through the
//! public engine at the golden configuration and waits for it before
//! starting the next. Timing covers the engine calls only; the checks run
//! after each pass, outside the timed section.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cachegc_bench::experiments::{self, Experiment};
use cachegc_bench::golden::{self, Tolerance};
use cachegc_core::report::Table;
use cachegc_core::{Acquired, Cache, CacheConfig, ExperimentConfig, Runner, Telemetry, TraceStore};
use cachegc_trace::{NullSink, RefCounter};
use cachegc_workloads::Workload;

use crate::host::{fnv1a, timed, Elapsed, SplitMix64, FNV_OFFSET};
use crate::pins::{self, CollectScenario, COLLECT_SCALE};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The §5 sweeps e3 + e4 over one fresh in-memory store, scale 1.
    GridCold,
    /// The five programs at scale 1 under no collector and the five e14
    /// collector designs: 30 recorded passes with one cache sink each.
    Collect,
    /// The §7 sweeps e8–e11 over a store warm-started from spill segments.
    WarmAnalysis,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::GridCold, Kind::Collect, Kind::WarmAnalysis];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::GridCold => "grid-cold",
            Kind::Collect => "collect",
            Kind::WarmAnalysis => "warm-analysis",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The registry sweeps the workload runs and diffs against goldens.
    pub fn experiments(self) -> &'static [&'static str] {
        match self {
            Kind::GridCold => &["e3_overhead_sweep", "e4_write_policy"],
            Kind::Collect => &[],
            Kind::WarmAnalysis => &[
                "e8_sweep_plot",
                "e9_lifetimes",
                "e10_block_stats",
                "e11_cache_activity",
            ],
        }
    }

    /// Times the benchmark sets the workload up to report a median.
    pub fn setup_repeats(self) -> usize {
        match self {
            Kind::WarmAnalysis => 3,
            Kind::GridCold | Kind::Collect => 15,
        }
    }
}

/// The block sizes × cache sizes of each e4 write-policy grid: the paper's
/// five block sizes at three cache sizes.
pub const E4_CACHE_SIZES: [u32; 3] = [32 << 10, 256 << 10, 1 << 20];

/// The one cache every `collect` pass drives.
pub fn collect_cache() -> Cache {
    Cache::new(CacheConfig::direct_mapped(64 << 10, 32))
}

/// Simulated (reference × cache cell) pairs in one pass. Each count is
/// the pinned reference count of a scenario times the cache cells that
/// consume it, so the figure is exact whenever the pass's checks pass.
pub fn cell_refs_per_pass(kind: Kind) -> u64 {
    match kind {
        Kind::GridCold => {
            let e3 = ExperimentConfig::paper().configs().len() as u64;
            let e4 =
                2 * (E4_CACHE_SIZES.len() * ExperimentConfig::paper().block_sizes.len()) as u64;
            Workload::ALL
                .iter()
                .map(|&w| pins::scale1_refs(w) * (e3 + e4))
                .sum()
        }
        Kind::Collect => pins::collect_scenarios().iter().map(|s| s.pin.refs).sum(),
        // Only e8's sweep plot and e11's activity panels simulate a cache;
        // the e9/e10 block trackers do not.
        Kind::WarmAnalysis => {
            3 * pins::scale1_refs(Workload::Compile)
                + pins::scale1_refs(Workload::Prove)
                + pins::scale1_refs(Workload::Rewrite)
        }
    }
}

/// Failed-versus-attempted accounting for output checks. A failure is
/// reported on stderr and counted; it never stops the run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Failed checks ÷ checks attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Where a run reads its references and keeps its scratch files.
#[derive(Debug, Clone)]
pub struct Env {
    /// The golden tables (`results/expected` in a checkout).
    pub golden_dir: PathBuf,
    /// Scratch space for spill segments, removed at the end of the run.
    pub scratch: PathBuf,
    /// Orders scenarios; results must not depend on it.
    pub seed: u64,
}

impl Env {
    /// The spill directory `warm-analysis` records into and loads from.
    pub fn spill_dir(&self) -> PathBuf {
        self.scratch.join("spill")
    }
}

/// Run `f`, turning a panic into an error so a failing pass is counted
/// rather than ending the run.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Resolve registry experiments by name.
///
/// # Errors
///
/// Names the first experiment the registry no longer has.
pub fn resolve(names: &[&str]) -> Result<Vec<&'static Experiment>, String> {
    names
        .iter()
        .map(|n| experiments::find(n).ok_or_else(|| format!("no experiment named {n}")))
        .collect()
}

/// The golden table names of `experiment` found in `dir`, sorted.
fn golden_tables(dir: &Path, experiment: &str) -> Vec<String> {
    let prefix = format!("{experiment}__");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let table = name.strip_prefix(&prefix)?.strip_suffix(".csv")?;
            Some(table.to_string())
        })
        .collect();
    names.sort();
    names
}

/// Diff one sweep's output against its goldens, exactly: one check per
/// golden table (and one per live table that has no golden), plus one for
/// the sweep itself when it failed.
pub fn check_sweep(
    checks: &mut Checks,
    dir: &Path,
    exp: &Experiment,
    out: &Result<Vec<Table>, String>,
) {
    let tables: &[Table] = match out {
        Ok(tables) => tables,
        Err(e) => {
            checks.check(false, || format!("{}: sweep failed: {e}", exp.name));
            &[]
        }
    };
    let drifted = golden::check_tables_on(
        &Runner::new(golden::golden_engine()),
        dir,
        exp.name,
        tables,
        &Tolerance::EXACT,
    );
    let mut names = golden_tables(dir, exp.name);
    for t in tables {
        if !names.iter().any(|n| n == t.name()) {
            names.push(t.name().to_string());
        }
    }
    for name in names {
        let drift = drifted.iter().find(|(t, _)| *t == name);
        let produced = tables.iter().any(|t| t.name() == name);
        checks.check(produced && drift.is_none(), || {
            let detail = drift.map_or_else(
                || "table not produced".to_string(),
                |(_, d)| {
                    d.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("; ")
                },
            );
            format!("{}__{name}: {detail}", exp.name)
        });
    }
}

/// Validate a workload's inputs before any timing: each golden table it is
/// checked against parses and each program it runs generates its source.
///
/// # Errors
///
/// Names the missing experiment, golden or program.
pub fn preflight(kind: Kind, env: &Env) -> Result<(), String> {
    for exp in resolve(kind.experiments())? {
        let names = golden_tables(&env.golden_dir, exp.name);
        if names.is_empty() {
            return Err(format!(
                "no goldens for {} in {}",
                exp.name,
                env.golden_dir.display()
            ));
        }
        for name in names {
            let path = golden::golden_path(&env.golden_dir, exp.name, &name);
            Table::read_csv(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    let scale = if kind == Kind::Collect {
        COLLECT_SCALE
    } else {
        1
    };
    for w in Workload::ALL {
        if w.scaled(scale).source().is_empty() {
            return Err(format!("{} generated no source", w.name()));
        }
    }
    Ok(())
}

/// Record the five programs at scale 1 into a fresh spill directory, two
/// at a time: the segments `warm-analysis` warm-starts from.
///
/// # Errors
///
/// A program that failed, or a capture that did not reach the disk.
pub fn record_spills(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let store = TraceStore::unbounded().with_spill(dir.to_path_buf());
    let runner = Runner::new(golden::golden_engine()).with_store(&store);
    let runs = runner.map(&Workload::ALL, |inner, w| {
        guarded(|| inner.sinks(w.scaled(1), None, vec![NullSink]))
    });
    for (w, run) in Workload::ALL.iter().zip(runs) {
        run.and_then(|r| r.map_err(|e| e.to_string()))
            .map_err(|e| format!("recording {}: {e}", w.name()))?;
    }
    let (spills, programs) = (store.stats().spills, Workload::ALL.len());
    if spills != programs as u64 {
        return Err(format!("only {spills} of {programs} scenarios spilled"));
    }
    Ok(())
}

/// One small pass down the workload's engine path over a throwaway
/// store — the smallest program on a two-cell grid for `grid-cold`, under
/// the Cheney collector with the `collect` cache for `collect` — so that
/// one-time costs (code paging, allocator growth, the first crew threads)
/// land in set-up rather than in the first timed pass.
///
/// # Errors
///
/// The warm-up program's error.
fn warm_up(kind: Kind) -> Result<(), String> {
    let store = TraceStore::unbounded();
    let runner = Runner::new(golden::golden_engine()).with_store(&store);
    let instance = Workload::Prove.scaled(1);
    let done = match kind {
        Kind::GridCold => runner
            .control(instance, &ExperimentConfig::quick())
            .map(drop),
        Kind::Collect => runner
            .sinks(instance, pins::COLLECT_SPECS[1], vec![collect_cache()])
            .map(drop),
        Kind::WarmAnalysis => Ok(()),
    };
    done.map_err(|e| format!("warm-up: {e}"))
}

/// One workload's full set-up: the pre-flight checks, then recording the
/// spill segments (`warm-analysis`) or a warm-up pass (the others).
///
/// # Errors
///
/// See [`preflight`], [`record_spills`] and [`warm_up`].
pub fn setup(kind: Kind, env: &Env) -> Result<(), String> {
    preflight(kind, env)?;
    match kind {
        Kind::WarmAnalysis => record_spills(&env.spill_dir()),
        Kind::GridCold | Kind::Collect => warm_up(kind),
    }
}

/// What one timed pass measured.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Wall and CPU time of the engine calls.
    pub elapsed: Elapsed,
    /// Simulated (reference × cache cell) pairs the pass drove.
    pub cell_refs: u64,
    /// FNV-1a 64 of the pass's outputs in a fixed order (tables by
    /// experiment, or `collect`'s counts by scenario), so passes under
    /// different seeds can be compared.
    pub digest: u64,
}

/// FNV-1a 64 of `parts`, each followed by a separator.
fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    parts
        .into_iter()
        .fold(FNV_OFFSET, |h, part| fnv1a(h, part.bytes().chain([0])))
}

/// The digest of sweep outputs, in registry-name order whatever order
/// the sweeps ran in.
fn tables_digest(exps: &[&'static Experiment], outs: &[Result<Vec<Table>, String>]) -> u64 {
    let mut parts: Vec<(&str, String)> = exps
        .iter()
        .zip(outs)
        .flat_map(|(exp, out)| match out {
            Ok(tables) => tables
                .iter()
                .map(|t| (exp.name, format!("{}\n{}", t.name(), t.to_csv())))
                .collect(),
            Err(e) => vec![(exp.name, format!("error: {e}"))],
        })
        .collect();
    parts.sort();
    digest(parts.iter().flat_map(|(name, csv)| [*name, csv.as_str()]))
}

/// The golden engine, with `telemetry` attached when given.
fn engine<'a>(store: &'a TraceStore, telemetry: Option<&'a Arc<Telemetry>>) -> Runner<'a> {
    let runner = Runner::new(golden::golden_engine()).with_store(store);
    match telemetry {
        Some(t) => runner.with_telemetry(t),
        None => runner,
    }
}

/// Run `exps` in order over `runner`, each guarded, with the time taken.
fn sweeps(
    exps: &[&'static Experiment],
    runner: &Runner<'_>,
) -> (Vec<Result<Vec<Table>, String>>, Elapsed) {
    timed(|| {
        exps.iter()
            .map(|exp| guarded(|| golden::run_sweep(exp, golden::GOLDEN_SCALE, runner)))
            .collect()
    })
}

/// One timed pass of `kind`. `rng` orders the scenarios; `telemetry`, when
/// given, rides the engine (the traced run's scheduler counters).
///
/// # Errors
///
/// An experiment the registry no longer has.
pub fn pass(
    kind: Kind,
    env: &Env,
    rng: &mut SplitMix64,
    checks: &mut Checks,
    telemetry: Option<&Arc<Telemetry>>,
) -> Result<Pass, String> {
    let mut exps = resolve(kind.experiments())?;
    let (elapsed, digest) = match kind {
        Kind::GridCold => {
            // e4 replays what e3 recorded, so the sweeps keep their order;
            // the seed orders the golden diffs.
            let store = TraceStore::unbounded();
            let (outs, elapsed) = sweeps(&exps, &engine(&store, telemetry));
            let mut order: Vec<_> = exps.iter().zip(&outs).collect();
            rng.shuffle(&mut order);
            for (exp, out) in order {
                check_sweep(checks, &env.golden_dir, exp, out);
            }
            (elapsed, tables_digest(&exps, &outs))
        }
        Kind::Collect => {
            let mut scenarios = pins::collect_scenarios();
            rng.shuffle(&mut scenarios);
            let mut elapsed = Elapsed::default();
            let mut counts = Vec::with_capacity(scenarios.len());
            for sc in &scenarios {
                let (e, got) = collect_one(sc, checks, telemetry);
                elapsed = elapsed.add(e);
                counts.push(format!("{} {got:?}", pins::label(sc.workload, sc.spec)));
            }
            counts.sort();
            (elapsed, digest(counts.iter().map(String::as_str)))
        }
        Kind::WarmAnalysis => {
            rng.shuffle(&mut exps);
            let store = TraceStore::unbounded().with_spill(env.spill_dir());
            let (outs, elapsed) = sweeps(&exps, &engine(&store, telemetry));
            let stats = store.stats();
            let programs = Workload::ALL.len() as u64;
            checks.check(stats.misses == 0 && stats.spill_loads == programs, || {
                format!(
                    "warm start ran the VM: {} misses, {} spill loads, {} rejects",
                    stats.misses, stats.spill_loads, stats.spill_rejects
                )
            });
            for (exp, out) in exps.iter().zip(&outs) {
                check_sweep(checks, &env.golden_dir, exp, out);
            }
            (elapsed, tables_digest(&exps, &outs))
        }
    };
    Ok(Pass {
        elapsed,
        cell_refs: cell_refs_per_pass(kind),
        digest,
    })
}

/// One `collect` scenario through `Runner::sinks` with its own recording
/// store, then its checks: the collector counts and reference count match
/// the pins, and the recorded trace replays to the same reference count.
/// Returns the time taken and the counts the pass produced.
fn collect_one(
    sc: &CollectScenario,
    checks: &mut Checks,
    telemetry: Option<&Arc<Telemetry>>,
) -> (Elapsed, Option<pins::CollectPin>) {
    let instance = sc.workload.scaled(COLLECT_SCALE);
    let store = TraceStore::unbounded();
    let runner = engine(&store, telemetry);
    let (out, elapsed) =
        timed(|| guarded(|| runner.sinks(instance, sc.spec, vec![collect_cache()])));
    let label = pins::label(sc.workload, sc.spec);
    let (stats, caches) = match out.and_then(|r| r.map_err(|e| e.to_string())) {
        Ok(run) => run,
        Err(e) => {
            checks.check(false, || format!("{label}: {e}"));
            return (elapsed, None);
        }
    };
    let refs = caches.first().map_or(0, |c| c.stats().refs());
    let replayed = match store.acquire(instance, sc.spec) {
        Acquired::Hit { trace, .. } => {
            let mut counter = RefCounter::new();
            trace.trace.replay(&mut counter);
            Some(counter.total())
        }
        Acquired::Miss(_) => None,
    };
    let got = pins::CollectPin {
        collections: stats.gc.collections,
        bytes_copied: stats.gc.bytes_copied,
        refs,
    };
    checks.check(got == sc.pin && replayed == Some(refs), || {
        format!(
            "{label}: got {got:?} (replayed {replayed:?}), pinned {:?}",
            sc.pin
        )
    });
    (elapsed, Some(got))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegc_core::report::Cell;

    fn golden_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/expected")
    }

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn drifted_golden_raises_the_error_rate() {
        let exp = resolve(&["e8_sweep_plot"]).unwrap()[0];
        let out = guarded(|| golden::run_sweep(exp, 1, &Runner::new(golden::golden_engine())));
        let mut clean = Checks::default();
        check_sweep(&mut clean, &golden_dir(), exp, &out);
        assert_eq!((clean.attempted, clean.failed), (1, 0));

        let drifted = temp("drift");
        for name in golden_tables(&golden_dir(), exp.name) {
            let mut table =
                Table::read_csv(&golden::golden_path(&golden_dir(), exp.name, &name)).unwrap();
            table.set_cell(0, 2, Cell::Count(1025));
            table
                .write_csv(&golden::golden_path(&drifted, exp.name, &name))
                .unwrap();
        }
        let mut checks = Checks::default();
        check_sweep(&mut checks, &drifted, exp, &out);
        assert_eq!((checks.attempted, checks.failed), (1, 1));
        assert_eq!(checks.error_rate(), 1.0);

        // A sweep that fails is counted too, and so is each golden it
        // did not produce.
        let mut failed = Checks::default();
        check_sweep(&mut failed, &golden_dir(), exp, &Err("boom".into()));
        assert_eq!((failed.attempted, failed.failed), (2, 2));
        let _ = std::fs::remove_dir_all(&drifted);
    }

    #[test]
    fn seeds_give_identical_tables_and_counts() {
        let env = Env {
            golden_dir: golden_dir(),
            scratch: temp("seeds"),
            seed: 1,
        };
        record_spills(&env.spill_dir()).unwrap();
        let mut digests = Vec::new();
        for seed in [1, 2] {
            let mut checks = Checks::default();
            let mut rng = SplitMix64::new(seed);
            let pass = pass(Kind::WarmAnalysis, &env, &mut rng, &mut checks, None).unwrap();
            assert_eq!((checks.attempted, checks.failed), (6, 0));
            digests.push(pass.digest);
        }
        assert_eq!(digests[0], digests[1]);
        let _ = std::fs::remove_dir_all(&env.scratch);
    }

    #[test]
    fn collect_matrix_is_the_e14_zoo_plus_no_gc() {
        let scenarios = pins::collect_scenarios();
        assert_eq!(scenarios.len(), 30);
        for w in Workload::ALL {
            let control = scenarios
                .iter()
                .find(|s| s.workload == w && s.spec.is_none())
                .unwrap();
            assert_eq!((control.pin.collections, control.pin.bytes_copied), (0, 0));
        }
        assert!(scenarios.iter().any(|s| s.pin.collections > 0));
    }
}
