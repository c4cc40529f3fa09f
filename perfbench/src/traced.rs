//! The traced run: per-layer numbers for one workload.
//!
//! It drives the workload's scenarios by calling each layer itself —
//! `WorkloadInstance::run` under a [`TimedCollector`], [`SpanSink`]s in
//! front of the `Recorder`, the cache grids and the §7 instruments,
//! `RecordedTrace::replay` for decode, and timed `TraceStore::acquire` and
//! `RecordTicket::offer` calls — on as many threads as the golden engine
//! has workers. The same hand-driven pass runs twice, untraced and then
//! traced; the difference is the tracing overhead. The scheduler counters
//! come from the telemetry manifest of one engine pass of the workload.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cachegc_analysis::{ActivityTracker, BlockTracker, Instrument, SweepPlot};
use cachegc_bench::golden;
use cachegc_core::{
    Acquired, Cache, CacheConfig, CollectorSpec, ExperimentConfig, Manifest, ManifestConfig,
    OfferOutcome, RunStats, StoreStats, StoredTrace, Telemetry, TraceStore, WriteMissPolicy,
};
use cachegc_gc::{
    CheneyCollector, Collector, GcStats, GenerationalCollector, ImmixCollector, MarkSweepCollector,
    NoCollector,
};
use cachegc_trace::{Fanout, RefCounter, TraceSink};
use cachegc_vm::VmError;
use cachegc_workloads::{Workload, WorkloadInstance};

use crate::host::{process_cpu_s, timed, Elapsed, SplitMix64};
use crate::pins::{self, CollectScenario, COLLECT_SCALE};
use crate::report::{ratio, Metric};
use crate::spans::{self, self_times, span, span_work, Layer, Span, SpanSink, TimedCollector};
use crate::workload::{self, collect_cache, Checks, Env, Kind, E4_CACHE_SIZES};

/// A finished VM run through the benchmark's wrappers.
pub struct Run<S> {
    /// Instruction, allocation and collector statistics.
    pub stats: RunStats,
    /// The program's final value, printed.
    pub result: String,
    /// The collector's own statistics.
    pub gc: GcStats,
    /// The sink the run fed.
    pub sink: S,
}

fn run_with<C: Collector, S: TraceSink>(
    instance: WorkloadInstance,
    collector: C,
    traced: bool,
    sink: S,
) -> Result<Run<S>, VmError> {
    let out = instance.run(TimedCollector::new(collector, traced), sink)?;
    Ok(Run {
        stats: out.stats,
        result: out.result,
        gc: *out.collector.stats(),
        sink: out.sink,
    })
}

/// Run `instance` under `spec`'s collector (no collection for `None`),
/// timing each collection when `traced`.
///
/// # Errors
///
/// The program's [`VmError`].
pub fn run_spec<S: TraceSink>(
    instance: WorkloadInstance,
    spec: Option<CollectorSpec>,
    traced: bool,
    sink: S,
) -> Result<Run<S>, VmError> {
    match spec {
        None => run_with(instance, NoCollector::new(), traced, sink),
        Some(CollectorSpec::Cheney { semispace_bytes }) => run_with(
            instance,
            CheneyCollector::new(semispace_bytes),
            traced,
            sink,
        ),
        Some(CollectorSpec::Generational {
            nursery_bytes,
            old_bytes,
        }) => run_with(
            instance,
            GenerationalCollector::new(nursery_bytes, old_bytes),
            traced,
            sink,
        ),
        Some(CollectorSpec::Immix { heap_bytes }) => {
            run_with(instance, ImmixCollector::new(heap_bytes), traced, sink)
        }
        Some(CollectorSpec::MarkSweep { heap_bytes }) => {
            run_with(instance, MarkSweepCollector::new(heap_bytes), traced, sink)
        }
    }
}

/// What the scenarios of one hand-driven pass add up to.
#[derive(Debug, Default)]
struct Tally {
    checks: Checks,
    gc: GcStats,
    recorded_bytes: u64,
    recorded_events: u64,
    stores: Vec<StoreStats>,
    /// `(program, collector, printed result)` of each `collect` scenario.
    results: Vec<(Workload, Option<CollectorSpec>, String)>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.checks.attempted += other.checks.attempted;
        self.checks.failed += other.checks.failed;
        self.gc.collections += other.gc.collections;
        self.gc.bytes_copied += other.gc.bytes_copied;
        self.gc.bytes_swept += other.gc.bytes_swept;
        self.recorded_bytes += other.recorded_bytes;
        self.recorded_events += other.recorded_events;
        self.stores.extend(other.stores);
        self.results.extend(other.results);
    }
}

/// Acquire a scenario that must already be recorded.
fn acquire_hit(
    store: &TraceStore,
    instance: WorkloadInstance,
    spec: Option<CollectorSpec>,
) -> Result<Arc<StoredTrace>, String> {
    match span(Layer::Acquire, || store.acquire(instance, spec)) {
        Acquired::Hit { trace, .. } => Ok(trace),
        Acquired::Miss(_) => Err("scenario is not recorded".into()),
    }
}

/// Replay a stored trace into `sink` behind a span sink of `layer`.
fn replay<S: TraceSink>(
    trace: &StoredTrace,
    sink: S,
    layer: Layer,
    width: usize,
    traced: bool,
) -> S {
    span_work(Layer::Decode, || {
        let mut wrapped = SpanSink::new(sink, layer, width, traced);
        trace.trace.replay(&mut wrapped);
        (wrapped.finish(), trace.trace.events())
    })
}

/// Record a scenario live: acquire its flight, run the VM with the
/// recorder and `sim` behind span sinks, and offer the capture back.
fn record<S: TraceSink>(
    store: &TraceStore,
    instance: WorkloadInstance,
    spec: Option<CollectorSpec>,
    sim: S,
    width: usize,
    traced: bool,
    tally: &mut Tally,
) -> Result<Run<S>, String> {
    let ticket = match span(Layer::Acquire, || store.acquire(instance, spec)) {
        Acquired::Miss(ticket) => ticket,
        Acquired::Hit { .. } => return Err("a fresh store already holds the scenario".into()),
    };
    let sinks = (
        SpanSink::new(ticket.recorder(), Layer::Encode, 1, traced),
        SpanSink::new(sim, Layer::Sim, width, traced),
    );
    let start = Instant::now();
    let run = span_work(Layer::Vm, || {
        let run = run_spec(instance, spec, traced, sinks);
        let refs = run.as_ref().map_or(0, |r| r.sink.0.events());
        (run, refs)
    })
    .map_err(|e| e.to_string())?;
    let (recorder, sim) = run.sink;
    let (recorder, sim) = (recorder.finish(), sim.finish());
    match span(Layer::Offer, || {
        ticket.offer(recorder, run.stats, start.elapsed())
    }) {
        OfferOutcome::Stored { bytes, events, .. } => {
            tally.recorded_bytes += bytes;
            tally.recorded_events += events;
        }
        other => return Err(format!("capture not stored: {other:?}")),
    }
    tally.gc.collections += run.gc.collections;
    tally.gc.bytes_copied += run.gc.bytes_copied;
    tally.gc.bytes_swept += run.gc.bytes_swept;
    Ok(Run {
        stats: run.stats,
        result: run.result,
        gc: run.gc,
        sink: sim,
    })
}

/// Run `f` over `items` on `threads` scoped workers pulling from one
/// queue, returning the results in item order and every span recorded.
fn pool<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> (Vec<R>, Vec<Span>) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let spans = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    spans::take_spans();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        spans::set_scenario(i as u32);
                        let out = f(item);
                        *slots[i].lock().expect("no worker panics holding a slot") = Some(out);
                    }
                    spans::take_spans()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("scenario worker panicked"))
            .collect()
    });
    let results = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no worker panics holding a slot")
                .expect("every item ran")
        })
        .collect();
    (results, spans)
}

/// Run a scenario body, counting an error as one failed check.
fn scenario(label: String, f: impl FnOnce(&mut Tally) -> Result<(), String>) -> Tally {
    let mut tally = Tally::default();
    let outcome = workload::guarded(|| f(&mut tally)).and_then(|r| r);
    tally.checks.check(outcome.is_ok(), || {
        format!("{label}: {}", outcome.err().unwrap_or_default())
    });
    tally
}

fn caches(configs: Vec<CacheConfig>) -> Fanout<Cache> {
    Fanout::new(configs.into_iter().map(Cache::new).collect())
}

/// `grid-cold` by hand: record each program on the 40-cell grid, then
/// replay it into both e4 write-policy grids. The replayed write-validate
/// cells must equal the live cells of the same geometry.
fn grid_cold(traced: bool, threads: usize, rng: &mut SplitMix64) -> (Tally, Vec<Span>) {
    let store = TraceStore::unbounded();
    let e3 = ExperimentConfig::paper();
    let mut e4_wv = ExperimentConfig::paper();
    e4_wv.cache_sizes = E4_CACHE_SIZES.to_vec();
    let e4_fow = e4_wv.clone().with_write_miss(WriteMissPolicy::FetchOnWrite);
    let mut programs = Workload::ALL.to_vec();
    rng.shuffle(&mut programs);
    let (tallies, spans) = pool(&programs, threads, |&w| {
        scenario(w.name().to_string(), |tally| {
            let instance = w.scaled(golden::GOLDEN_SCALE);
            let width = e3.configs().len();
            let run = record(
                &store,
                instance,
                None,
                caches(e3.configs()),
                width,
                traced,
                tally,
            )?;
            let live = run.sink.into_sinks();
            for cfg in [&e4_wv, &e4_fow] {
                let trace = acquire_hit(&store, instance, None)?;
                let n = cfg.configs().len();
                let replayed = replay(&trace, caches(cfg.configs()), Layer::Sim, n, traced);
                if cfg.write_miss != e3.write_miss {
                    continue;
                }
                for cache in replayed.sinks() {
                    let same = live.iter().find(|c| c.config() == cache.config());
                    if same.map(Cache::stats) != Some(cache.stats()) {
                        return Err(format!("replayed {} differs from live", cache.config()));
                    }
                }
            }
            let refs = live.first().map_or(0, |c| c.stats().refs());
            if refs != pins::scale1_refs(w) {
                return Err(format!("{refs} refs, pinned {}", pins::scale1_refs(w)));
            }
            Ok(())
        })
    });
    let mut total = Tally::default();
    tallies.into_iter().for_each(|t| total.merge(t));
    total.stores.push(store.stats());
    (total, spans)
}

/// `collect` by hand: each scenario records into its own store with one
/// cache, and replays its capture into a reference counter. After every
/// scenario ran, each program's result must equal its no-GC result.
fn collect(traced: bool, threads: usize, rng: &mut SplitMix64) -> (Tally, Vec<Span>) {
    let mut scenarios = pins::collect_scenarios();
    rng.shuffle(&mut scenarios);
    let (tallies, spans) = pool(&scenarios, threads, |sc: &CollectScenario| {
        scenario(pins::label(sc.workload, sc.spec), |tally| {
            let instance = sc.workload.scaled(COLLECT_SCALE);
            let store = TraceStore::unbounded();
            let run = record(&store, instance, sc.spec, collect_cache(), 1, traced, tally)?;
            let trace = acquire_hit(&store, instance, sc.spec)?;
            let replayed = span_work(Layer::Decode, || {
                let mut counter = RefCounter::new();
                trace.trace.replay(&mut counter);
                (counter.total(), trace.trace.events())
            });
            tally.stores.push(store.stats());
            tally
                .results
                .push((sc.workload, sc.spec, run.result.clone()));
            let got = pins::CollectPin {
                collections: run.gc.collections,
                bytes_copied: run.gc.bytes_copied,
                refs: run.sink.stats().refs(),
            };
            if got != sc.pin || replayed != got.refs || run.stats.gc != run.gc {
                return Err(format!(
                    "got {got:?} (replayed {replayed}), pinned {:?}",
                    sc.pin
                ));
            }
            Ok(())
        })
    });
    let mut total = Tally::default();
    tallies.into_iter().for_each(|t| total.merge(t));
    let results = std::mem::take(&mut total.results);
    for (w, spec, result) in results.iter().filter(|(_, spec, _)| spec.is_some()) {
        let control = results
            .iter()
            .find(|(x, s, _)| x == w && s.is_none())
            .map(|(_, _, r)| r);
        total.checks.check(control == Some(result), || {
            format!(
                "{}: result {result} differs from no-GC {control:?}",
                pins::label(*w, *spec)
            )
        });
    }
    (total, spans)
}

/// One `warm-analysis` replay: a program and the §7 instruments its
/// sweep feeds, in e8–e11 order.
#[derive(Debug, Clone, Copy)]
enum Panel {
    Sweep,
    Blocks,
    Activity(&'static [u32]),
}

fn instruments(panel: Panel) -> Vec<Instrument> {
    match panel {
        Panel::Sweep => vec![SweepPlot::new(CacheConfig::direct_mapped(64 << 10, 64), 1024).into()],
        Panel::Blocks => vec![BlockTracker::new(64 << 10, 64).into()],
        Panel::Activity(sizes) => sizes
            .iter()
            .map(|&s| ActivityTracker::new(CacheConfig::direct_mapped(s, 64)).into())
            .collect(),
    }
}

/// `warm-analysis` by hand: a fresh store warm-starts from the spill
/// segments, and each e8–e11 panel replays its program into its
/// instruments. No scenario may run the VM.
fn warm_analysis(
    env: &Env,
    traced: bool,
    threads: usize,
    rng: &mut SplitMix64,
) -> (Tally, Vec<Span>) {
    let mut panels = vec![(Workload::Compile, Panel::Sweep)];
    for _ in ["e9", "e10"] {
        panels.extend(Workload::ALL.iter().map(|&w| (w, Panel::Blocks)));
    }
    panels.push((Workload::Compile, Panel::Activity(&[64 << 10, 128 << 10])));
    panels.push((Workload::Prove, Panel::Activity(&[64 << 10])));
    panels.push((Workload::Rewrite, Panel::Activity(&[64 << 10])));
    rng.shuffle(&mut panels);
    let store = TraceStore::unbounded().with_spill(env.spill_dir());
    let (tallies, spans) = pool(&panels, threads, |&(w, panel)| {
        scenario(format!("{}/{panel:?}", w.name()), |_| {
            let trace = acquire_hit(&store, w.scaled(1), None)?;
            let fan = Fanout::new(instruments(panel));
            let n = fan.sinks().len();
            replay(&trace, fan, Layer::Analysis, n, traced);
            let events = trace.trace.events();
            if events != pins::scale1_refs(w) {
                return Err(format!("{events} refs, pinned {}", pins::scale1_refs(w)));
            }
            Ok(())
        })
    });
    let mut total = Tally::default();
    tallies.into_iter().for_each(|t| total.merge(t));
    let stats = store.stats();
    total.checks.check(stats.misses == 0, || {
        format!("warm start ran the VM {} times", stats.misses)
    });
    total.stores.push(stats);
    (total, spans)
}

/// One hand-driven pass with its wall and CPU time.
fn hand_pass(
    kind: Kind,
    env: &Env,
    traced: bool,
    threads: usize,
    seed: u64,
) -> ((Tally, Vec<Span>), Elapsed) {
    let mut rng = SplitMix64::new(seed);
    timed(|| match kind {
        Kind::GridCold => grid_cold(traced, threads, &mut rng),
        Kind::Collect => collect(traced, threads, &mut rng),
        Kind::WarmAnalysis => warm_analysis(env, traced, threads, &mut rng),
    })
}

/// The scheduler counters of one telemetry-attached engine pass.
struct Sched {
    backpressure_s: f64,
    idle_s: f64,
    steals: u64,
    packets: u64,
}

fn sched_pass(kind: Kind, env: &Env, checks: &mut Checks) -> Result<Sched, String> {
    let telemetry = Arc::new(Telemetry::new());
    let mut rng = SplitMix64::new(env.seed);
    workload::pass(kind, env, &mut rng, checks, Some(&telemetry))?;
    let jobs = golden::golden_engine().jobs;
    let manifest = Manifest::gather(
        ManifestConfig {
            experiment: kind.name().into(),
            scale: golden::GOLDEN_SCALE,
            jobs,
            jobs_requested: jobs,
            schedule: "golden".into(),
            trace_cache: "per pass".into(),
        },
        &telemetry.snapshot(),
        None,
    );
    let workers = &manifest.engine.workers;
    Ok(Sched {
        backpressure_s: manifest.engine.backpressure_ns as f64 / 1e9,
        idle_s: workers.iter().map(|w| w.stats.idle_ns).sum::<u64>() as f64 / 1e9,
        steals: workers.iter().map(|w| w.stats.steals).sum(),
        packets: manifest
            .counters
            .iter()
            .find(|(name, _)| *name == "sched_packets")
            .map_or(0, |&(_, v)| v),
    })
}

/// Everything the traced run produced.
pub struct TracedRun {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Self seconds per layer, in [`Layer::ALL`] order.
    pub split: Vec<(Layer, f64)>,
    /// Every span of the traced pass.
    pub spans: Vec<Span>,
}

/// The traced run of `kind`: one telemetry-attached engine pass for the
/// scheduler counters, then the hand-driven pass untraced and traced.
///
/// # Errors
///
/// An experiment the registry no longer has.
pub fn run(kind: Kind, env: &Env, checks: &mut Checks) -> Result<TracedRun, String> {
    let threads = golden::golden_engine().jobs;
    let sched = sched_pass(kind, env, checks)?;
    let ((plain, _), untraced) = hand_pass(kind, env, false, threads, env.seed);
    let cpu0 = process_cpu_s();
    let ((tally, spans), traced) = hand_pass(kind, env, true, threads, env.seed);
    let traced_cpu = process_cpu_s() - cpu0;
    for t in [&plain, &tally] {
        checks.attempted += t.checks.attempted;
        checks.failed += t.checks.failed;
    }

    let selfs = self_times(&spans);
    let self_s = |layer: Layer| {
        selfs
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e9)
    };
    let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer);
    let work = |layer: Layer| of(layer).map(|s| s.work).sum::<u64>();
    let ns_per = |layer: Layer| ratio(self_s(layer) * 1e9, work(layer) as f64);
    let vm_run_s = of(Layer::Vm).map(Span::dur_ns).sum::<u64>() as f64 / 1e9;
    let store = |f: fn(&StoreStats) -> u64| tally.stores.iter().map(f).sum::<u64>();
    let (hits, misses) = (store(|s| s.hits), store(|s| s.misses));
    let attributed: f64 = Layer::ALL.iter().map(|&l| self_s(l)).sum();

    let count = |name, v: u64| Metric::new(name, v as f64, "count");
    let secs = |name, v: f64| Metric::new(name, v, "s");
    let metrics = vec![
        secs("vm.busy_s", self_s(Layer::Vm)),
        count("vm.runs", of(Layer::Vm).count() as u64),
        count("vm.refs", work(Layer::Vm)),
        Metric::new("vm.ns_per_ref", ns_per(Layer::Vm), "ns"),
        secs("gc.busy_s", self_s(Layer::Gc)),
        count("gc.collections", tally.gc.collections),
        Metric::new("gc.bytes_copied", tally.gc.bytes_copied as f64, "bytes"),
        Metric::new("gc.bytes_swept", tally.gc.bytes_swept as f64, "bytes"),
        Metric::new("gc.share", ratio(self_s(Layer::Gc), vm_run_s), "ratio"),
        secs("trace.encode_s", self_s(Layer::Encode)),
        Metric::new("trace.encode_ns_per_ref", ns_per(Layer::Encode), "ns"),
        Metric::new(
            "trace.bytes_per_ref",
            ratio(tally.recorded_bytes as f64, tally.recorded_events as f64),
            "B/ref",
        ),
        secs("trace.decode_s", self_s(Layer::Decode)),
        Metric::new("trace.decode_ns_per_ref", ns_per(Layer::Decode), "ns"),
        secs("store.acquire_s", self_s(Layer::Acquire)),
        secs("store.offer_s", self_s(Layer::Offer)),
        count("store.hits", hits),
        count("store.misses", misses),
        count("store.spill_loads", store(|s| s.spill_loads)),
        count("store.spill_rejects", store(|s| s.spill_rejects)),
        Metric::new(
            "store.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        Metric::new(
            "store.peak_bytes",
            tally.stores.iter().map(|s| s.peak_bytes).max().unwrap_or(0) as f64,
            "bytes",
        ),
        Metric::new(
            "store.mapped_bytes",
            store(|s| s.mapped_bytes) as f64,
            "bytes",
        ),
        secs("sim.busy_s", self_s(Layer::Sim)),
        count("sim.cell_refs", work(Layer::Sim)),
        Metric::new("sim.ns_per_cell_ref", ns_per(Layer::Sim), "ns"),
        secs("analysis.busy_s", self_s(Layer::Analysis)),
        count("analysis.refs", work(Layer::Analysis)),
        Metric::new("analysis.ns_per_ref", ns_per(Layer::Analysis), "ns"),
        secs("sched.backpressure_s", sched.backpressure_s),
        secs("sched.idle_s", sched.idle_s),
        count("sched.steals", sched.steals),
        count("sched.packets", sched.packets),
        Metric::new(
            "trace_overhead_frac",
            ratio(traced.wall_s, untraced.wall_s) - 1.0,
            "ratio",
        ),
        secs("unattributed_s", traced_cpu - attributed),
    ];
    let split = Layer::ALL.iter().map(|&l| (l, self_s(l))).collect();
    Ok(TracedRun {
        metrics,
        split,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wrappers change when consumers see events, never what they
    /// see: collector statistics, the program's result and every cache
    /// statistic are bit-identical to the unwrapped layers.
    #[test]
    fn wrappers_leave_results_bit_identical() {
        let instance = Workload::Lambda.scaled(1);
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 2 << 20,
        };
        let cfg = CacheConfig::direct_mapped(64 << 10, 32);
        let plain = instance
            .run(CheneyCollector::new(2 << 20), Cache::new(cfg))
            .unwrap();
        assert!(plain.collector.stats().collections > 0, "the pass collects");
        for traced in [false, true] {
            spans::take_spans();
            let sink = SpanSink::new(Cache::new(cfg), Layer::Sim, 1, traced);
            let run = run_spec(instance, Some(spec), traced, sink).unwrap();
            let cache = run.sink.finish();
            assert_eq!(&run.gc, plain.collector.stats());
            assert_eq!(run.stats.gc, plain.stats.gc);
            assert_eq!(run.stats.instructions, plain.stats.instructions);
            assert_eq!(run.stats.allocated_bytes, plain.stats.allocated_bytes);
            assert_eq!(run.result, plain.result);
            assert_eq!(cache.stats(), plain.sink.stats());
            let spans = spans::take_spans();
            let gc_spans = spans.iter().filter(|s| s.layer == Layer::Gc).count() as u64;
            let sim_work: u64 = spans
                .iter()
                .filter(|s| s.layer == Layer::Sim)
                .map(|s| s.work)
                .sum();
            if traced {
                assert_eq!(gc_spans, run.gc.collections);
                assert_eq!(sim_work, cache.stats().refs());
            } else {
                assert!(spans.is_empty());
            }
        }
    }

    #[test]
    fn pool_keeps_item_order_and_collects_every_thread_spans() {
        let items: Vec<u64> = (0..9).collect();
        let (out, spans) = pool(&items, 3, |&x| span_work(Layer::Sim, || (x * 2, x)));
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(spans.len(), 9);
        let mut scenarios: Vec<u32> = spans.iter().map(|s| s.scenario).collect();
        scenarios.sort_unstable();
        assert_eq!(scenarios, (0..9).collect::<Vec<_>>());
        assert!(spans.iter().all(|s| s.work == u64::from(s.scenario)));
    }
}
