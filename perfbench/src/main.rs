//! The cachegc benchmark: end-to-end and per-layer timings of the paper
//! pipeline on three workloads. See README.md beside this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output is the JSON result with the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of the traced run, whose
//! spans are also written to `.perfbench/`.

// `deny` rather than `forbid`: the process CPU clock is one foreign call.
#![deny(unsafe_code)]

mod host;
mod pins;
mod report;
mod spans;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cachegc_bench::golden;

use crate::host::{median, timed, SplitMix64};
use crate::report::{ratio, result_json, Metric};
use crate::workload::{Checks, Env, Kind};

const USAGE: &str = "usage: cachegc-perfbench --workload <grid-cold|collect|warm-analysis> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Where the benchmark keeps span files and per-run scratch space,
/// relative to the repository root it runs from.
const OUT_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("no workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
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

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set up `repeats` times; the median of their process CPU seconds is
/// `setup_s`. The last set-up is the one the timed passes use.
fn setup(kind: Kind, env: &Env, repeats: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let (done, elapsed) = timed(|| workload::setup(kind, env));
        done?;
        times.push(elapsed.cpu_s);
    }
    Ok(median(&times))
}

/// The timed run: passes until `seconds` have gone by (at least one),
/// reporting the median pass.
fn timed_run(args: &Args, env: &Env, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let setup_s = setup(args.kind, env, args.kind.setup_repeats())?;
    let mut rng = SplitMix64::new(args.seed);
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut peaks = Vec::new();
    loop {
        host::reset_peak_rss();
        let pass = workload::pass(args.kind, env, &mut rng, checks, None)?;
        peaks.push(host::peak_rss_mb());
        println!(
            "{} pass {}: wall {:.3} s, cpu {:.2} s, outputs {:016x}",
            args.kind.name(),
            passes.len() + 1,
            pass.elapsed.wall_s,
            pass.elapsed.cpu_s,
            pass.digest
        );
        passes.push(pass);
        if start.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.elapsed.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.elapsed.cpu_s).collect();
    let per = |secs: fn(&workload::Pass) -> f64| -> Vec<f64> {
        passes
            .iter()
            .map(|p| ratio(p.cell_refs as f64, secs(p)))
            .collect()
    };
    // Wall-clock figures are printed but not reported: on a shared host
    // the time the hypervisor steals from the virtual CPUs moves them far
    // more than any change to the code would.
    println!(
        "{} passes; wall {:.3} s, {:.0} cell refs per wall second (medians); \
         setup {setup_s:.3} cpu s (median of {})",
        passes.len(),
        median(&walls),
        median(&per(|p| p.elapsed.wall_s)),
        args.kind.setup_repeats()
    );
    Ok(vec![
        Metric::new("cpu_s", median(&cpus), "s"),
        Metric::new(
            "cell_refs_per_cpu_s",
            median(&per(|p| p.elapsed.cpu_s)),
            "1/s",
        ),
        Metric::new("peak_rss_mb", median(&peaks), "MB"),
        Metric::new("setup_s", setup_s, "s"),
    ])
}

/// The traced run: per-layer metrics, the layer split on stdout, and the
/// spans written to the output directory.
fn traced_run(args: &Args, env: &Env, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    setup(args.kind, env, 1)?;
    let run = traced::run(args.kind, env, checks)?;
    let total: f64 = run.split.iter().map(|(_, s)| s).sum();
    println!("layer self time ({} spans):", run.spans.len());
    for (layer, s) in &run.split {
        println!(
            "  {:<15} {s:>9.3} s  {:>5.1} %",
            layer.name(),
            100.0 * ratio(*s, total)
        );
    }
    let path =
        PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.json", args.kind.name(), args.seed));
    let spans: Vec<String> = run
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"scenario\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"work\": {}}}",
                s.id,
                s.parent,
                s.scenario,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.work
            )
        })
        .collect();
    let doc = format!(
        "{{\"host\": {}, \"spans\": [\n{}\n]}}\n",
        facts(args),
        spans.join(",\n")
    );
    match std::fs::write(&path, doc) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    Ok(run.metrics)
}

fn facts(args: &Args) -> String {
    host::facts_json(
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace,
        golden::golden_engine().jobs,
    )
}

fn run(args: &Args) -> Result<(), String> {
    println!("host {}", facts(args));
    let scratch = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let _scratch = Scratch(scratch.clone());
    let env = Env {
        golden_dir: PathBuf::from(golden::GOLDEN_DIR),
        scratch,
        seed: args.seed,
    };
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced_run(args, &env, &mut checks)?
    } else {
        timed_run(args, &env, &mut checks)?
    };
    let listed: &[&str] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    if names != listed || !names.iter().all(|n| report::valid_name(n)) {
        return Err(format!("metrics {names:?} are not the listed {listed:?}"));
    }
    for m in &metrics {
        println!("{:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate {} ({} of {} checks failed)",
        checks.error_rate(),
        checks.failed,
        checks.attempted
    );
    println!("{}", result_json(checks.attempted, checks.failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(ToString::to_string))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&[
            "--workload",
            "collect",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                kind: Kind::Collect,
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "collect", "--seed", "x"]).is_err());
        assert!(args(&[
            "--workload",
            "collect",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "collect"]).is_err());
    }
}
