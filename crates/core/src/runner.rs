//! [`Runner`]: the single front door to the experiment engine.
//!
//! Every driver entry point the system used to scatter across fifteen
//! `run_*`/`*_jobs`/`*_engine`/`*_ctx` functions is now a method on one
//! builder: construct a `Runner` over an [`EngineConfig`], attach what the
//! run needs (trace store, telemetry, progress), and call a terminal —
//! [`Runner::sinks`], [`Runner::instruments`], [`Runner::control`],
//! [`Runner::collected`], [`Runner::comparison`], [`Runner::map`], or the
//! escape hatch [`Runner::drive`].
//!
//! Every pass takes the paper's two steps: the VM runs once with a trace
//! [`Recorder`] as its only sink, then every sink set, configuration
//! grid, §7 instrument and timeline tap is driven by replaying that
//! capture. A trace-store hit skips the first step; with no store
//! attached the capture is ephemeral (recorded, replayed, dropped).
//! Replays shard across a scoped crew (see [`crate::sched`]) as
//! [`PacketKind::ReplayShard`] and [`PacketKind::GridSimulate`] packets;
//! `map` items and comparison passes ride as [`PacketKind::Task`] and
//! [`PacketKind::VmExecute`] packets. A one-worker engine replays
//! in-thread; per-sink results are bit-identical either way
//! (property-tested in the workspace root).
//!
//! # Example
//!
//! ```
//! use cachegc_core::{EngineConfig, ExperimentConfig, Runner};
//! use cachegc_workloads::Workload;
//!
//! let runner = Runner::new(EngineConfig::jobs(2));
//! let cfg = ExperimentConfig::quick();
//! let report = runner.control(Workload::Rewrite.scaled(1), &cfg).unwrap();
//! assert!(report.refs > 0);
//! ```

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cachegc_analysis::Instrument;
use cachegc_gc::{
    CheneyCollector, GenerationalCollector, ImmixCollector, MarkSweepCollector, NoCollector,
};
use cachegc_sim::{CacheConfig, CacheTotals, GridCache};
use cachegc_telemetry::{probe, Counter, EngineReport, Telemetry, WorkerStats};
use cachegc_trace::{Fanout, RecordedTrace, Recorder, TraceSink};
use cachegc_vm::{RunStats, VmError};
use cachegc_workloads::WorkloadInstance;

use crate::experiment::{
    collected_run, control_report, CacheCell, CollectedRun, CollectorSpec, ControlReport,
    ExperimentConfig, GcComparison,
};
use crate::sched::{CrewReport, Crews, EngineConfig, PacketKind, Stage};
use crate::store::{scenario_label, Acquired, HitSource, OfferOutcome, RunCtx, StoredTrace};
use crate::telemetry::Progress;

/// Degree of parallelism this machine supports (a sensible `--jobs`
/// default). Falls back to 1 if the platform cannot say.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `instance` into `sink` under the given collector (`None` is the
/// collection-disabled control configuration). The common trunk of every
/// terminal below.
fn run_spec_sink<S: TraceSink>(
    instance: WorkloadInstance,
    spec: Option<CollectorSpec>,
    sink: S,
) -> Result<(RunStats, S), VmError> {
    match spec {
        None => {
            let out = instance.run(NoCollector::new(), sink)?;
            Ok((out.stats, out.sink))
        }
        Some(CollectorSpec::Cheney { semispace_bytes }) => {
            let out = instance.run(CheneyCollector::new(semispace_bytes), sink)?;
            Ok((out.stats, out.sink))
        }
        Some(CollectorSpec::Generational {
            nursery_bytes,
            old_bytes,
        }) => {
            let out = instance.run(GenerationalCollector::new(nursery_bytes, old_bytes), sink)?;
            Ok((out.stats, out.sink))
        }
        Some(CollectorSpec::Immix { heap_bytes }) => {
            let out = instance.run(ImmixCollector::new(heap_bytes), sink)?;
            Ok((out.stats, out.sink))
        }
        Some(CollectorSpec::MarkSweep { heap_bytes }) => {
            let out = instance.run(MarkSweepCollector::new(heap_bytes), sink)?;
            Ok((out.stats, out.sink))
        }
    }
}

/// Round-robin shard `items` across `jobs` workers, remembering each
/// item's input position so results reassemble in order.
fn deal<T>(items: Vec<T>, jobs: usize) -> Vec<Vec<(usize, T)>> {
    let mut shards: Vec<Vec<(usize, T)>> = (0..jobs).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        shards[i % jobs].push((i, item));
    }
    shards
}

/// The unified experiment driver: a [`RunCtx`] (engine configuration,
/// optional trace store / telemetry / progress) plus a packet
/// [`Crews`]. `Clone` is cheap; builder methods consume and return
/// `self` so runners for sub-budgets derive freely.
#[derive(Debug, Clone)]
pub struct Runner<'a> {
    ctx: RunCtx<'a>,
    sched: Crews,
}

impl<'a> Runner<'a> {
    /// A runner over `engine`, with no store, telemetry, or progress.
    pub fn new(engine: EngineConfig) -> Runner<'static> {
        Runner {
            ctx: RunCtx::new(engine),
            sched: Crews::default(),
        }
    }

    /// The sequential-oracle runner: one worker, nothing attached.
    pub fn sequential() -> Runner<'static> {
        Runner::new(EngineConfig::default())
    }

    /// A runner over an existing context (for callers that already built
    /// a [`RunCtx`]).
    pub fn over(ctx: RunCtx<'a>) -> Runner<'a> {
        let mut sched = Crews::default();
        if let Some(telemetry) = ctx.telemetry {
            sched = sched.with_telemetry(Arc::clone(telemetry));
        }
        Runner { sched, ctx }
    }

    /// Attach a trace store: scenarios record on first run and replay on
    /// every later one.
    pub fn with_store(mut self, store: &'a crate::TraceStore) -> Runner<'a> {
        self.ctx = self.ctx.with_store(store);
        self
    }

    /// Attach a telemetry registry: every pass attaches a probe shard on
    /// its thread and reports phases, counters, and engine observability.
    /// Crew workers get per-worker `worker-{i}` shards, so scheduler
    /// spans (packet execute, idle, steal) land on stable timeline rows
    /// when the registry captures spans.
    pub fn with_telemetry(mut self, telemetry: &'a Arc<Telemetry>) -> Runner<'a> {
        self.ctx = self.ctx.with_telemetry(telemetry);
        self.sched = self.sched.with_telemetry(Arc::clone(telemetry));
        self
    }

    /// Attach a timeline recorder: every pass additionally replays its
    /// capture into a fixed-geometry [`cachegc_analysis::Timeline`] tap
    /// and commits the windowed report under the pass's scenario label.
    /// The tap reads the same recorded stream as the result sinks, so it
    /// never changes any result bit.
    pub fn with_timeline(mut self, timeline: &'a crate::TimelineRecorder) -> Runner<'a> {
        self.ctx = self.ctx.with_timeline(timeline);
        self
    }

    /// Attach a progress reporter, ticked once per completed pass.
    pub fn with_progress(mut self, progress: &'a Progress) -> Runner<'a> {
        self.ctx = self.ctx.with_progress(progress);
        self
    }

    /// Same attachments, different engine.
    pub fn with_engine(mut self, engine: EngineConfig) -> Runner<'a> {
        self.ctx = self.ctx.with_engine(engine);
        self
    }

    /// Same attachments, engine rebudgeted to `jobs` workers.
    pub fn with_jobs(mut self, jobs: usize) -> Runner<'a> {
        self.ctx = self.ctx.with_jobs(jobs);
        self
    }

    /// The underlying context (engine, store, telemetry, progress).
    pub fn ctx(&self) -> &RunCtx<'a> {
        &self.ctx
    }

    /// The engine configuration this runner drives passes with.
    pub fn engine(&self) -> &EngineConfig {
        &self.ctx.engine
    }

    /// Fold a finished crew's accounting into the attached telemetry (the
    /// caller must hold a probe shard on this thread).
    fn flush_crew(&self, report: &CrewReport) {
        probe!(Counter::SchedPackets, report.packets);
    }

    /// Report one replay to the telemetry engine totals: `workers` holds
    /// the per-worker `(event, sink)` pairs driven, idle time and steals.
    fn report_replay(&self, sinks: usize, events: u64, workers: Vec<WorkerStats>) {
        if let Some(telemetry) = self.ctx.telemetry {
            telemetry.record_engine(&EngineReport {
                schedule: "replay",
                jobs: workers.len(),
                sinks,
                events_published: events,
                workers,
            });
        }
    }

    /// Replay a workload into an arbitrary sink set — the general engine
    /// terminal. The pass first obtains the scenario's capture: a store
    /// hit hands it over, otherwise the VM runs once into a
    /// [`Recorder`] (offered back to the store on a miss; ephemeral with
    /// no store). The sinks are then driven by a **sharded replay**: each
    /// [`PacketKind::ReplayShard`] packet independently decodes the
    /// shared capture into its own sink subset. The recorded
    /// [`RunStats`] are returned; per-sink results are bit-identical to
    /// feeding the sinks from the VM directly.
    ///
    /// When the runner carries a [`Telemetry`] registry this terminal is
    /// also the instrumentation root: it attaches a probe shard on the
    /// calling thread, times the `record` / `vm_execute` (CPU) / `replay`
    /// phases (`record` and `vm_execute` span the same VM run), counts VM
    /// runs, packets, and store capture outcomes, and reports per-worker
    /// engine observability. A runner carrying a [`Progress`] gets one
    /// tick per completed pass. Neither changes any result bit.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the program (a store hit cannot
    /// fail).
    pub fn sinks<S>(
        &self,
        instance: WorkloadInstance,
        spec: Option<CollectorSpec>,
        sinks: Vec<S>,
    ) -> Result<(RunStats, Vec<S>), VmError>
    where
        S: TraceSink + Send + 'static,
    {
        self.pass(instance, spec, |trace| self.replay_pass(trace, sinks))
    }

    /// One pass over a scenario: capture it, replay the capture into the
    /// timeline tap (if any) and then into `replay`, and tick progress.
    fn pass<T>(
        &self,
        instance: WorkloadInstance,
        spec: Option<CollectorSpec>,
        replay: impl FnOnce(&RecordedTrace) -> T,
    ) -> Result<(RunStats, T), VmError> {
        let ctx = &self.ctx;
        let _shard = ctx.telemetry.map(|t| t.attach());
        let pass_start = Instant::now();
        let stored = self.capture(instance, spec)?;
        self.timeline_tap(&stored.trace, || scenario_label(instance, spec));
        let out = replay(&stored.trace);
        if let Some(progress) = ctx.progress {
            progress.pass(
                ctx.store,
                stored.trace.events(),
                pass_start.elapsed().as_secs_f64(),
            );
        }
        Ok((stored.stats, out))
    }

    /// The scenario's capture. A store hit hands back the stored trace.
    /// Otherwise the VM runs once with a [`Recorder`] as its only sink:
    /// under the store's recording ticket on a miss, with the capture
    /// offered back (the store may decline it on budget grounds; the
    /// pass replays it anyway and then frees it), or unmetered and
    /// ephemeral with no store attached.
    fn capture(
        &self,
        instance: WorkloadInstance,
        spec: Option<CollectorSpec>,
    ) -> Result<Arc<StoredTrace>, VmError> {
        let record = |recorder| {
            probe!(Counter::VmRuns);
            let _record = probe::phase("record");
            let _vm = probe::phase_cpu("vm_execute");
            run_spec_sink(instance, spec, recorder)
        };
        let Some(store) = self.ctx.store else {
            let (stats, recorder) = record(Recorder::new())?;
            let trace = recorder.finish();
            return Ok(Arc::new(StoredTrace { trace, stats }));
        };
        let ticket = match store.acquire(instance, spec) {
            Acquired::Hit { trace, source } => {
                match source {
                    HitSource::Resident => {}
                    HitSource::SpillLoad => probe!(Counter::StoreSpillLoads),
                    HitSource::Coalesced => probe!(Counter::StoreCoalesced),
                }
                return Ok(trace);
            }
            Acquired::Miss(ticket) => ticket,
        };
        // Miss: this pass holds the scenario's single recording flight;
        // concurrent passes of the same scenario block in `acquire`. An
        // error return drops the ticket, which cancels the flight and
        // hands leadership to a waiter.
        let record_start = Instant::now();
        let (stats, recorder) = record(ticket.recorder())?;
        let (stored, outcome) = ticket.settle(recorder, stats, record_start.elapsed());
        match outcome {
            OfferOutcome::Stored {
                bytes,
                events,
                evictions,
                bytes_evicted,
                spilled,
            } => {
                probe!(Counter::StoreRecordedBytes, bytes);
                probe!(Counter::StoreRecordedEvents, events);
                if evictions > 0 {
                    probe!(Counter::StoreEvictions, evictions);
                    probe!(Counter::StoreBytesEvicted, bytes_evicted);
                }
                if spilled {
                    probe!(Counter::StoreSpills);
                }
            }
            OfferOutcome::DroppedOverBudget => {
                probe!(Counter::StoreCapturesDropped);
                if let Some(telemetry) = self.ctx.telemetry {
                    telemetry.warn(&format!(
                        "trace store dropped over-budget capture of {} \
                         (budget {} bytes); the scenario records again on its next pass",
                        scenario_label(instance, spec),
                        store.budget()
                    ));
                }
            }
        }
        Ok(stored)
    }

    /// Replay the capture into a fresh timeline tap and commit it under
    /// `label` (no-op when the runner carries no recorder). The tap takes
    /// its own decode pass rather than riding a sink shard, so the
    /// committed windows do not depend on the worker count.
    fn timeline_tap(&self, trace: &RecordedTrace, label: impl FnOnce() -> String) {
        if let Some(recorder) = self.ctx.timeline {
            let mut tap = recorder.tap();
            trace.replay(&mut tap);
            recorder.commit(&label(), tap);
        }
    }

    /// Drive the sinks by sharded replay, one [`PacketKind::ReplayShard`]
    /// packet per worker (in-thread when the engine budget is one
    /// worker). Cannot fail — replay never re-runs the VM.
    fn replay_pass<S>(&self, trace: &RecordedTrace, sinks: Vec<S>) -> Vec<S>
    where
        S: TraceSink + Send + 'static,
    {
        let n_sinks = sinks.len();
        let events = trace.events();
        let jobs = self.ctx.engine.jobs.clamp(1, n_sinks.max(1));
        let _replay = probe::phase("replay");
        if jobs <= 1 {
            let mut fan = Fanout::new(sinks);
            trace.replay(&mut fan);
            let worker = WorkerStats {
                events: events * n_sinks as u64,
                ..WorkerStats::default()
            };
            self.report_replay(n_sinks, events, vec![worker]);
            return fan.into_sinks();
        }
        // Static shards: sink `i` on packet `i % jobs`, pinned to worker
        // `i % jobs`'s deque.
        type ShardSlot<S> = Mutex<Option<Vec<(usize, S)>>>;
        let slots: Vec<ShardSlot<S>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        let ((), report) = self.sched.run(jobs, |crew| {
            for (j, mut shard) in deal(sinks, jobs).into_iter().enumerate() {
                let slot = &slots[j];
                crew.submit(
                    Stage::Simulate,
                    PacketKind::ReplayShard,
                    Some(j),
                    move |stats| {
                        for (_, sink) in &mut shard {
                            trace.replay(sink);
                        }
                        stats.events += events * shard.len() as u64;
                        *slot.lock().expect("replay slot poisoned") = Some(shard);
                    },
                );
            }
            crew.wait_idle();
        });
        self.flush_crew(&report);
        self.report_replay(n_sinks, events, report.workers);
        let mut out: Vec<Option<S>> = (0..n_sinks).map(|_| None).collect();
        for slot in slots {
            let shard = slot
                .into_inner()
                .expect("replay slot poisoned")
                .expect("replay packet ran");
            for (i, sink) in shard {
                out[i] = Some(sink);
            }
        }
        out.into_iter()
            .map(|s| s.expect("every sink accounted for"))
            .collect()
    }

    /// [`Runner::sinks`] for the closed heterogeneous [`Instrument`] set —
    /// mixed cache geometries, organizations, and §7 analyzers in one
    /// trace pass. Results come back in input order.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the program.
    pub fn instruments(
        &self,
        instance: WorkloadInstance,
        spec: Option<CollectorSpec>,
        instruments: Vec<Instrument>,
    ) -> Result<(RunStats, Vec<Instrument>), VmError> {
        self.sinks(instance, spec, instruments)
    }

    /// Drive a direct-mapped configuration grid over one pass of
    /// `instance` — the terminal behind [`Runner::control`] and
    /// [`Runner::collected`].
    ///
    /// The pass obtains the scenario's capture exactly as
    /// [`Runner::sinks`] does, then drives the grid as one [`GridCache`]
    /// shard per worker, each fed by its own batched decode of the
    /// capture ([`PacketKind::GridSimulate`] packets when sharded). Cells
    /// come back in input order, with statistics bit-identical to one
    /// [`cachegc_sim::Cache`] per configuration (the
    /// `run_control`/`run_collected` oracles).
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the program.
    pub fn grid(
        &self,
        instance: WorkloadInstance,
        spec: Option<CollectorSpec>,
        configs: Vec<CacheConfig>,
    ) -> Result<(RunStats, Vec<CacheCell>), VmError> {
        self.pass(instance, spec, |trace| self.grid_replay(trace, configs))
    }

    /// One batched decode pass per worker drives that worker's
    /// [`GridCache`] shard of the configuration grid (in-thread when the
    /// engine budget is one worker; [`PacketKind::GridSimulate`] packets
    /// otherwise). Cannot fail — replay never re-runs the VM.
    fn grid_replay(&self, trace: &RecordedTrace, configs: Vec<CacheConfig>) -> Vec<CacheCell> {
        let n = configs.len();
        let events = trace.events();
        let jobs = self.ctx.engine.jobs.clamp(1, n.max(1));
        let _replay = probe::phase("replay");
        let (cells, batches) = if jobs <= 1 {
            let mut grid = GridCache::new(configs);
            let batches = trace.replay_batched(|b| grid.consume(b));
            let worker = WorkerStats {
                events: events * n as u64,
                ..WorkerStats::default()
            };
            self.report_replay(n, events, vec![worker]);
            let cells = grid
                .into_cells()
                .into_iter()
                .map(|(config, stats)| CacheCell { config, stats })
                .collect::<Vec<_>>();
            (cells, batches)
        } else {
            type GridSlot = Mutex<Option<(Vec<usize>, Vec<(CacheConfig, CacheTotals)>, u64)>>;
            let slots: Vec<GridSlot> = (0..jobs).map(|_| Mutex::new(None)).collect();
            let ((), report) = self.sched.run(jobs, |crew| {
                for (j, shard) in deal(configs, jobs).into_iter().enumerate() {
                    let slot = &slots[j];
                    crew.submit(
                        Stage::Simulate,
                        PacketKind::GridSimulate,
                        Some(j),
                        move |stats| {
                            let (indices, cfgs): (Vec<usize>, Vec<CacheConfig>) =
                                shard.into_iter().unzip();
                            let mut grid = GridCache::new(cfgs);
                            let batches = trace.replay_batched(|b| grid.consume(b));
                            stats.events += events * indices.len() as u64;
                            *slot.lock().expect("grid slot poisoned") =
                                Some((indices, grid.into_cells(), batches));
                        },
                    );
                }
                crew.wait_idle();
            });
            self.flush_crew(&report);
            self.report_replay(n, events, report.workers);
            let mut out: Vec<Option<CacheCell>> = (0..n).map(|_| None).collect();
            let mut batches = 0;
            for slot in slots {
                let (indices, shard_cells, b) = slot
                    .into_inner()
                    .expect("grid slot poisoned")
                    .expect("grid packet ran");
                batches += b;
                for (i, (config, stats)) in indices.into_iter().zip(shard_cells) {
                    out[i] = Some(CacheCell { config, stats });
                }
            }
            let cells = out
                .into_iter()
                .map(|c| c.expect("every grid cell accounted for"))
                .collect::<Vec<_>>();
            (cells, batches)
        };
        probe!(Counter::ReplayBatches, batches);
        probe!(Counter::GridCellsSimulated, events * n as u64);
        cells
    }

    /// The §5 control experiment: run `instance` with collection disabled
    /// against `cfg`'s cache grid in one trace pass (replayed from the
    /// store when the scenario is recorded), through [`Runner::grid`].
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the program.
    pub fn control(
        &self,
        instance: WorkloadInstance,
        cfg: &ExperimentConfig,
    ) -> Result<ControlReport, VmError> {
        let (stats, cells) = self.grid(instance, None, cfg.configs())?;
        Ok(control_report(instance, cfg, stats, cells))
    }

    /// The §6 experiment: `instance` under `spec`'s collector against
    /// `cfg`'s cache grid, attributing misses and instructions to program
    /// vs collector (replayed from the store when recorded), through
    /// [`Runner::grid`].
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the program.
    pub fn collected(
        &self,
        instance: WorkloadInstance,
        cfg: &ExperimentConfig,
        spec: CollectorSpec,
    ) -> Result<CollectedRun, VmError> {
        let (stats, cells) = self.grid(instance, Some(spec), cfg.configs())?;
        Ok(collected_run(instance, spec, stats, cells))
    }

    /// The paired §5/§6 runs: the control and collected passes ride as
    /// two [`PacketKind::VmExecute`] packets on a two-worker crew,
    /// splitting the engine's worker budget between them. A pass whose
    /// scenario is already recorded in the store is a cheap replay, so it
    /// gets the minimum (one worker) and the recording pass gets the
    /// remainder; when both record (or both replay) the budget is
    /// halved, with the odd worker going to the collected pass (the one
    /// with more events). A sequential engine runs both passes inline,
    /// still through the store.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from either run.
    pub fn comparison(
        &self,
        instance: WorkloadInstance,
        cfg: &ExperimentConfig,
        spec: CollectorSpec,
    ) -> Result<GcComparison, VmError> {
        if self.ctx.engine.is_sequential() {
            // Even store-less sequential runs go through `grid`, so
            // telemetry and progress behave uniformly.
            return Ok(GcComparison {
                control: self.control(instance, cfg)?,
                collected: self.collected(instance, cfg, spec)?,
            });
        }
        let ctx = &self.ctx;
        let jobs = ctx.engine.jobs.max(1);
        let control_replays = ctx.store.is_some_and(|s| s.contains(instance, None));
        let collected_replays = ctx.store.is_some_and(|s| s.contains(instance, Some(spec)));
        let (control_jobs, collected_jobs) = match (control_replays, collected_replays) {
            (true, false) => (1, jobs.saturating_sub(1).max(1)),
            (false, true) => (jobs.saturating_sub(1).max(1), 1),
            _ => ((jobs / 2).max(1), (jobs - jobs / 2).max(1)),
        };
        let control_runner = self.clone().with_jobs(control_jobs);
        let collected_runner = self.clone().with_jobs(collected_jobs);
        let control_slot: Mutex<Option<Result<ControlReport, VmError>>> = Mutex::new(None);
        let collected_slot: Mutex<Option<Result<CollectedRun, VmError>>> = Mutex::new(None);
        let _shard = ctx.telemetry.map(|t| t.attach());
        let ((), report) = self.sched.run(2, |crew| {
            let control_runner = &control_runner;
            let control_slot = &control_slot;
            crew.submit(Stage::Execute, PacketKind::VmExecute, Some(0), move |_| {
                *control_slot.lock().expect("control slot poisoned") =
                    Some(control_runner.control(instance, cfg));
            });
            let collected_runner = &collected_runner;
            let collected_slot = &collected_slot;
            crew.submit(Stage::Execute, PacketKind::VmExecute, Some(1), move |_| {
                *collected_slot.lock().expect("collected slot poisoned") =
                    Some(collected_runner.collected(instance, cfg, spec));
            });
            crew.wait_idle();
        });
        self.flush_crew(&report);
        let control = control_slot
            .into_inner()
            .expect("control slot poisoned")
            .expect("control packet ran")?;
        let collected = collected_slot
            .into_inner()
            .expect("collected slot poisoned")
            .expect("collected packet ran")?;
        Ok(GcComparison { control, collected })
    }

    /// Split this runner's worker budget between `n` concurrent outer
    /// tasks and the engine passes inside each: returns `(outer
    /// parallelism, per-task inner jobs)`. This is what [`Runner::map`]
    /// applies to its item list.
    pub fn split_jobs(&self, n: usize) -> (usize, usize) {
        let outer = self.ctx.engine.jobs.clamp(1, n.max(1));
        (outer, (self.ctx.engine.jobs / outer).max(1))
    }

    /// Apply `f` to every item as [`PacketKind::Task`] packets, preserving
    /// input order in the results. The worker budget splits per
    /// [`Runner::split_jobs`]: `f` receives a derived runner holding each
    /// task's share of the budget. An effectively-sequential split runs
    /// inline.
    ///
    /// This is the driver for the experiment sweeps' per-workload loops:
    /// each of the paper's five programs is an independent trace pass.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any invocation of `f`.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&Runner<'a>, &T) -> R + Sync,
    {
        self.map_with(PacketKind::Task, items, f)
    }

    /// [`Runner::map`] with an explicit packet kind, for callers whose
    /// items are better described (e.g. [`PacketKind::GoldenDiff`] for
    /// golden-table diffs, [`PacketKind::VmExecute`] for whole passes).
    pub fn map_with<T, R, F>(&self, kind: PacketKind, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&Runner<'a>, &T) -> R + Sync,
    {
        let (outer, inner_jobs) = self.split_jobs(items.len());
        let inner = self.clone().with_jobs(inner_jobs);
        if outer <= 1 {
            return items.iter().map(|item| f(&inner, item)).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let _shard = self.ctx.telemetry.map(|t| t.attach());
        let ((), report) = self.sched.run(outer, |crew| {
            for (i, item) in items.iter().enumerate() {
                let inner = &inner;
                let f = &f;
                let slot = &slots[i];
                crew.submit(Stage::Execute, kind, None, move |_| {
                    *slot.lock().expect("map slot poisoned") = Some(f(inner, item));
                });
            }
            crew.wait_idle();
        });
        self.flush_crew(&report);
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("map slot poisoned")
                    .expect("task packet ran")
            })
            .collect()
    }

    /// The escape hatch for passes that drive the sink themselves (e.g. a
    /// hand-built VM loop): `f` records its stream into the [`TraceSink`]
    /// it receives — a [`Recorder`], the pass's only sink — and the
    /// capture is then replayed into `sinks` under this runner's engine
    /// exactly as [`Runner::sinks`] replays, after the timeline tap (if
    /// any) commits under `drive:{kind}`. The sinks come back in input
    /// order along with `f`'s result; phases, the VM-run counter, and
    /// engine observability are reported like [`Runner::sinks`]'s.
    pub fn drive<S, T, F>(&self, kind: PacketKind, sinks: Vec<S>, f: F) -> (T, Vec<S>)
    where
        S: TraceSink + Send + 'static,
        F: FnOnce(&mut dyn TraceSink) -> T,
    {
        let _shard = self.ctx.telemetry.map(|t| t.attach());
        probe!(Counter::VmRuns);
        let mut recorder = Recorder::new();
        let out = {
            let _record = probe::phase("record");
            let _vm = probe::phase_cpu("vm_execute");
            f(&mut recorder)
        };
        let trace = recorder.finish();
        self.timeline_tap(&trace, || format!("drive:{}", kind.name()));
        (out, self.replay_pass(&trace, sinks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_collected, run_control};
    use cachegc_analysis::{ActivityTracker, BlockTracker, SweepPlot};
    use cachegc_sim::{Cache, CacheConfig, SetAssocCache};
    use cachegc_workloads::Workload;

    fn grids_equal(a: &[crate::CacheCell], b: &[crate::CacheCell]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.config, y.config, "same grid order");
            assert_eq!(x.stats, y.stats, "{}: stats bit-identical", x.config);
        }
    }

    #[test]
    fn control_matches_sequential_at_every_worker_count() {
        let cfg = ExperimentConfig::quick();
        let w = Workload::Rewrite.scaled(1);
        let seq = run_control(w, &cfg).unwrap();
        for jobs in [1, 3, 4] {
            let par = Runner::new(EngineConfig::jobs(jobs))
                .control(w, &cfg)
                .unwrap();
            assert_eq!(seq.refs, par.refs, "jobs {jobs}");
            assert_eq!(seq.i_prog, par.i_prog, "jobs {jobs}");
            assert_eq!(seq.allocated, par.allocated, "jobs {jobs}");
            grids_equal(&seq.cells, &par.cells);
        }
    }

    #[test]
    fn parallel_collected_matches_sequential() {
        let cfg = ExperimentConfig::quick();
        let w = Workload::Compile.scaled(1);
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 512 << 10,
        };
        let seq = run_collected(w, &cfg, spec).unwrap();
        let par = Runner::new(EngineConfig::jobs(4))
            .collected(w, &cfg, spec)
            .unwrap();
        assert_eq!(seq.i_prog, par.i_prog);
        assert_eq!(seq.i_gc, par.i_gc);
        assert_eq!(seq.gc.collections, par.gc.collections);
        for (x, y) in seq.cells.iter().zip(&par.cells) {
            assert_eq!(x.config, y.config);
            assert_eq!((x.m_prog, x.m_gc), (y.m_prog, y.m_gc));
            assert_eq!(x.stats, y.stats);
        }
    }

    #[test]
    fn comparison_matches_sequential() {
        let cfg = ExperimentConfig::quick();
        let w = Workload::Rewrite.scaled(1);
        let spec = CollectorSpec::Generational {
            nursery_bytes: 128 << 10,
            old_bytes: 8 << 20,
        };
        let seq = GcComparison::run(w, &cfg, spec).unwrap();
        let par = Runner::new(EngineConfig::jobs(4))
            .comparison(w, &cfg, spec)
            .unwrap();
        grids_equal(&seq.control.cells, &par.control.cells);
        assert_eq!(
            seq.collected.gc.minor_collections,
            par.collected.gc.minor_collections
        );
        for (size, block) in [(32 << 10, 64), (256 << 10, 64)] {
            assert_eq!(
                seq.gc_overhead(size, block, &crate::FAST).to_bits(),
                par.gc_overhead(size, block, &crate::FAST).to_bits(),
                "overhead identical to the last bit"
            );
        }
    }

    fn mixed_instruments() -> Vec<Instrument> {
        let cfg = CacheConfig::direct_mapped(32 << 10, 64);
        vec![
            Cache::new(cfg).into(),
            SetAssocCache::new(cfg.with_assoc(2)).into(),
            BlockTracker::new(32 << 10, 64).into(),
            SweepPlot::new(cfg, 4096).into(),
            ActivityTracker::new(cfg).into(),
        ]
    }

    #[test]
    fn instruments_identical_at_every_worker_count() {
        let w = Workload::Rewrite.scaled(1);
        let (stats0, oracle) = Runner::sequential()
            .instruments(w, None, mixed_instruments())
            .unwrap();
        for jobs in [2, 3, 6] {
            let (stats, out) = Runner::new(EngineConfig::jobs(jobs))
                .instruments(w, None, mixed_instruments())
                .unwrap();
            assert_eq!(stats0.instructions.program(), stats.instructions.program());
            assert_eq!(oracle, out, "jobs {jobs}: instrument set bit-identical");
        }
    }

    #[test]
    fn sinks_under_a_collector_attributes_contexts() {
        let w = Workload::Rewrite.scaled(1);
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 512 << 10,
        };
        let sinks = vec![Cache::new(CacheConfig::direct_mapped(32 << 10, 64))];
        let (stats, out) = Runner::new(EngineConfig::jobs(2))
            .sinks(w, Some(spec), sinks)
            .unwrap();
        assert!(stats.gc.collections > 0, "heap small enough to force GC");
        assert!(
            out[0].stats().refs_by(cachegc_trace::Context::Collector) > 0,
            "collector references reach the sink"
        );
    }

    #[test]
    fn grid_matches_the_cache_oracles_on_every_path() {
        let cfg = ExperimentConfig::quick();
        let w = Workload::Rewrite.scaled(1);
        let two = EngineConfig::jobs(2);
        let oracle = run_control(w, &cfg).unwrap();
        let check = |tag: &str, got: ControlReport| {
            assert_eq!(oracle.refs, got.refs, "{tag}");
            assert_eq!(oracle.i_prog, got.i_prog, "{tag}");
            assert_eq!(oracle.allocated, got.allocated, "{tag}");
            grids_equal(&oracle.cells, &got.cells);
        };
        // No store: an ephemeral capture replays into GridCache shards.
        check("ephemeral", Runner::new(two).control(w, &cfg).unwrap());
        let store = crate::TraceStore::unbounded();
        let runner = Runner::new(two).with_store(&store);
        // Miss: the VM records the scenario, then the grid replays it.
        check("record", runner.control(w, &cfg).unwrap());
        // Hit on two workers: one GridSimulate packet per grid shard.
        check("packet replay", runner.control(w, &cfg).unwrap());
        // Hit on one worker: one in-thread decode pass for the whole grid.
        let seq = Runner::sequential().with_store(&store);
        check("in-thread replay", seq.control(w, &cfg).unwrap());
        let s = store.stats();
        assert_eq!(
            (s.misses, s.hits, s.entries, s.over_budget),
            (1, 2, 1, 0),
            "one recording, two replays"
        );
        assert!(s.bytes > 0 && s.events == oracle.refs);
        // A collected pass, recorded then replayed, against the
        // sequential `Vec<Cache>` oracle.
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 512 << 10,
        };
        let oracle = run_collected(w, &cfg, spec).unwrap();
        for tag in ["collected record", "collected replay"] {
            let got = runner.collected(w, &cfg, spec).unwrap();
            assert_eq!(
                (oracle.i_prog, oracle.i_gc),
                (got.i_prog, got.i_gc),
                "{tag}"
            );
            assert_eq!(oracle.gc.collections, got.gc.collections, "{tag}");
            assert_eq!(oracle.cells.len(), got.cells.len(), "{tag}");
            for (x, y) in oracle.cells.iter().zip(&got.cells) {
                assert_eq!(x.config, y.config, "{tag}");
                assert_eq!((x.m_prog, x.m_gc), (y.m_prog, y.m_gc), "{tag}");
                assert_eq!(x.stats, y.stats, "{tag}: {}", x.config);
            }
        }
        assert_eq!(
            store.stats().misses,
            2,
            "the collected scenario recorded once"
        );
    }

    #[test]
    fn over_budget_store_replays_each_pass_from_its_own_capture() {
        let cfg = ExperimentConfig::quick();
        let w = Workload::Rewrite.scaled(1);
        let store = crate::TraceStore::with_budget(64);
        let runner = Runner::new(EngineConfig::jobs(2)).with_store(&store);
        let a = runner.control(w, &cfg).unwrap();
        let b = runner.control(w, &cfg).unwrap();
        grids_equal(&run_control(w, &cfg).unwrap().cells, &a.cells);
        grids_equal(&a.cells, &b.cells);
        let s = store.stats();
        assert_eq!((s.entries, s.misses, s.over_budget), (0, 2, 2));
        assert_eq!(
            (s.reserved, s.bytes),
            (0, 0),
            "dropped captures hold nothing"
        );
    }

    #[test]
    fn a_failed_run_leaves_the_store_balanced() {
        // A semispace far too small for the program: the VM runs out of
        // memory mid-recording, the pass errors, and the cancelled flight
        // takes its miss back so the store's arrivals still balance.
        let w = Workload::Rewrite.scaled(1);
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 4096,
        };
        let store = crate::TraceStore::unbounded();
        let runner = Runner::new(EngineConfig::jobs(2)).with_store(&store);
        let sinks = vec![Cache::new(CacheConfig::direct_mapped(32 << 10, 64))];
        assert!(runner.sinks(w, Some(spec), sinks).is_err());
        let s = store.stats();
        assert_eq!(
            (s.misses, s.entries, s.over_budget, s.reserved),
            (0, 0, 0, 0)
        );
        assert!(!store.contains(w, Some(spec)));
    }

    #[test]
    fn comparison_reuses_a_prior_control_recording() {
        let cfg = ExperimentConfig::quick();
        let w = Workload::Rewrite.scaled(1);
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 512 << 10,
        };
        let store = crate::TraceStore::unbounded();
        let runner = Runner::new(EngineConfig::jobs(4)).with_store(&store);
        // An earlier experiment (e3-style) already recorded the control
        // scenario; the comparison's control pass must be a replay.
        runner.control(w, &cfg).unwrap();
        let cmp = runner.comparison(w, &cfg, spec).unwrap();
        let seq = GcComparison::run(w, &cfg, spec).unwrap();
        grids_equal(&seq.control.cells, &cmp.control.cells);
        for (x, y) in seq.collected.cells.iter().zip(&cmp.collected.cells) {
            assert_eq!((x.m_prog, x.m_gc), (y.m_prog, y.m_gc));
            assert_eq!(x.stats, y.stats);
        }
        assert_eq!(
            seq.gc_overhead(32 << 10, 64, &crate::FAST).to_bits(),
            cmp.gc_overhead(32 << 10, 64, &crate::FAST).to_bits(),
        );
        let s = store.stats();
        assert_eq!(s.misses, 2, "one VM run per unique scenario");
        assert_eq!(s.entries, 2);
        assert_eq!(s.hits, 1, "the comparison's control pass replayed");
    }

    #[test]
    fn map_preserves_order_and_covers_all() {
        let items: Vec<u64> = (0..37).collect();
        let runner = Runner::new(EngineConfig::jobs(5));
        let doubled = runner.map(&items, |_, &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // Inline path.
        assert_eq!(Runner::sequential().map(&items, |_, &x| x + 1)[36], 37);
        // More workers than items.
        let wide = Runner::new(EngineConfig::jobs(16));
        assert_eq!(wide.map(&[1u64, 2], |_, &x| x).len(), 2);
        let empty: [u64; 0] = [];
        assert!(wide.map(&empty, |_, &x| x).is_empty());
    }

    #[test]
    fn map_splits_the_worker_budget() {
        let r = Runner::new(EngineConfig::jobs(8));
        assert_eq!(r.split_jobs(5), (5, 1));
        assert_eq!(r.split_jobs(2), (2, 4));
        assert_eq!(Runner::new(EngineConfig::jobs(1)).split_jobs(5), (1, 1));
        // The derived runner inside `map` keeps the store attachment.
        let store = crate::TraceStore::unbounded();
        let r = Runner::new(EngineConfig::jobs(4)).with_store(&store);
        let stores = r.map(&[0u8, 1], |inner, _| inner.ctx().store.is_some());
        assert_eq!(stores, vec![true, true]);
    }

    #[test]
    fn drive_matches_the_sequential_fanout() {
        use cachegc_trace::{Access, Context};
        let stream: Vec<Access> = (0..20_000u32)
            .map(|i| Access::read(i.wrapping_mul(68) % (1 << 20), Context::Mutator))
            .collect();
        let grid = || {
            vec![
                Cache::new(CacheConfig::direct_mapped(32 << 10, 64)),
                Cache::new(CacheConfig::direct_mapped(64 << 10, 32)),
            ]
        };
        let mut oracle = Fanout::new(grid());
        for a in &stream {
            oracle.access(*a);
        }
        let expected = oracle.into_sinks();
        for jobs in [1, 2, 3] {
            let runner = Runner::new(EngineConfig::jobs(jobs));
            let (n, got) = runner.drive(PacketKind::VmExecute, grid(), |sink| {
                for a in &stream {
                    sink.access(*a);
                }
                stream.len()
            });
            assert_eq!(n, stream.len());
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.stats(), e.stats(), "jobs {jobs}");
            }
        }
    }

    #[test]
    fn timeline_taps_commit_identically_on_every_driver_path() {
        use crate::{TimelineRecorder, TimelineSpec};
        let cfg = ExperimentConfig::quick();
        let w = Workload::Rewrite.scaled(1);
        let spec = TimelineSpec {
            cache: CacheConfig::direct_mapped(16 << 10, 32),
            window_events: 4096,
        };
        // Sequential live oracle.
        let oracle = {
            let rec = TimelineRecorder::new(spec);
            Runner::sequential()
                .with_timeline(&rec)
                .control(w, &cfg)
                .unwrap();
            rec.runs()
        };
        assert_eq!(oracle.len(), 1);
        let report = &oracle[0].report;
        assert!(report.windows.len() > 1, "workload spans several windows");
        assert_eq!(
            report.windows_sum(),
            report.totals,
            "window sums reconstruct the aggregate"
        );
        // The ephemeral pass, the recording pass, and the sharded and
        // in-thread store hits all commit the same report.
        let store = crate::TraceStore::unbounded();
        for (tag, runner) in [
            ("ephemeral", Runner::new(EngineConfig::jobs(3))),
            (
                "record",
                Runner::new(EngineConfig::jobs(2)).with_store(&store),
            ),
            (
                "replay",
                Runner::new(EngineConfig::jobs(2)).with_store(&store),
            ),
            ("in-thread replay", Runner::sequential().with_store(&store)),
        ] {
            let rec = TimelineRecorder::new(spec);
            runner.with_timeline(&rec).control(w, &cfg).unwrap();
            let runs = rec.runs();
            assert_eq!(runs.len(), 1, "{tag}");
            assert_eq!(runs[0], oracle[0], "{tag}: timeline bit-identical");
        }
        // The escape-hatch driver commits under a kind tag.
        let rec = TimelineRecorder::new(spec);
        let runner = Runner::new(EngineConfig::jobs(2)).with_timeline(&rec);
        let sinks = vec![Cache::new(CacheConfig::direct_mapped(32 << 10, 64))];
        runner.drive(PacketKind::VmExecute, sinks, |sink| {
            for i in 0..10_000u32 {
                sink.access(cachegc_trace::Access::read(
                    i.wrapping_mul(68) % (1 << 18),
                    cachegc_trace::Context::Mutator,
                ));
            }
        });
        let runs = rec.runs();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "drive:vm_execute");
        assert_eq!(runs[0].report.windows_sum(), runs[0].report.totals);
    }
}
