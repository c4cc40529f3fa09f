//! The work-packet scheduler: typed packets in prioritized buckets,
//! drained by a crew of workers with per-worker deques and work-stealing.
//!
//! Modeled on mmtk-core's `scheduler` module: every unit of engine work —
//! a VM execution, a replay shard, a grid shard, a golden-check diff — is
//! a [`PacketKind`]-typed packet placed in a [`Stage`] bucket or pushed
//! onto a specific worker's deque. Workers prefer their own deque, then
//! drain the shared buckets in stage-priority order (`Prepare → Execute →
//! Simulate → Finalize`), then steal from sibling deques; claims from
//! shared buckets and sibling deques count as steals, so the per-worker
//! [`WorkerStats`] that flow into the telemetry manifest distinguish
//! static placement from dynamic balancing.
//!
//! Nothing streams between packets: the engine records a pass's trace
//! before any packet replays it, so replay shards are independent and
//! the crew needs no chunk queues or backpressure.
//!
//! # Crews, not a resident pool
//!
//! The workspace forbids `unsafe`, so worker threads cannot outlive the
//! data their packets borrow. [`Crews`] is therefore a cheap,
//! cloneable *policy* handle; each operation spins up a scoped **crew**
//! ([`Crews::run`]) whose workers live exactly as long as the
//! operation. Packets may borrow anything that outlives the `run` call.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cachegc_telemetry::{probe, Telemetry, WorkerStats};

fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Configuration of the packet-scheduled experiment engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads that replay each pass's capture. `1` is the
    /// sequential oracle configuration drivers may special-case.
    pub jobs: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { jobs: 1 }
    }
}

impl EngineConfig {
    /// An engine of `jobs` workers.
    pub fn jobs(jobs: usize) -> Self {
        EngineConfig { jobs }
    }

    /// True if this configuration buys nothing over the sequential path,
    /// so drivers should take their single-threaded oracle branch.
    pub fn is_sequential(&self) -> bool {
        self.jobs <= 1
    }
}

/// The prioritized bucket a packet is scheduled under. Workers drain
/// buckets in declaration order: all available `Prepare` work is claimed
/// before `Execute`, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Setup work that gates everything else (building shards, opening
    /// stores).
    Prepare,
    /// Producing work: VM executions and recordings.
    Execute,
    /// Consuming work: replaying the access stream into simulators and
    /// instruments.
    Simulate,
    /// Teardown work: result assembly, diffs, reporting.
    Finalize,
}

impl Stage {
    /// Number of stages (bucket array width).
    pub const COUNT: usize = 4;

    /// Every stage in drain-priority order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Prepare,
        Stage::Execute,
        Stage::Simulate,
        Stage::Finalize,
    ];

    /// Stable name used in docs and debug output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Prepare => "prepare",
            Stage::Execute => "execute",
            Stage::Simulate => "simulate",
            Stage::Finalize => "finalize",
        }
    }
}

/// What a work packet advances. Purely descriptive — the scheduler treats
/// every packet the same — but the typed vocabulary keeps submission sites
/// honest about what they put on the queue and gives debug output a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A whole pass (a control or collected run, VM and replay).
    VmExecute,
    /// Replaying a shard of a recorded trace into its sinks.
    ReplayShard,
    /// A generic driver task (one item of a `Runner::map`).
    Task,
    /// Diffing one produced table against its golden counterpart.
    GoldenDiff,
    /// One batched decode pass driving a shard of the configuration grid
    /// (`GridCache` lanes).
    GridSimulate,
}

impl PacketKind {
    /// Stable name used in docs and debug output.
    pub fn name(self) -> &'static str {
        match self {
            PacketKind::VmExecute => "vm_execute",
            PacketKind::ReplayShard => "replay_shard",
            PacketKind::Task => "task",
            PacketKind::GoldenDiff => "golden_diff",
            PacketKind::GridSimulate => "grid_simulate",
        }
    }
}

/// End-of-crew accounting: per-worker packet statistics. Drivers fold
/// this into the telemetry counters and the engine block of the run
/// manifest.
#[derive(Debug, Clone, Default)]
pub struct CrewReport {
    /// Per-worker events/steals/idle, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Packets executed by the crew in total.
    pub packets: u64,
}

/// A boxed work packet: the typed kind plus the closure that performs it.
struct Packet<'env> {
    /// Names the packet's span in the scheduler trace; the queue itself
    /// treats kinds uniformly.
    kind: PacketKind,
    job: Box<dyn FnOnce(&mut WorkerStats) + Send + 'env>,
}

/// Everything a crew's workers coordinate through, under one lock.
struct Queues<'env> {
    /// Per-worker deques; `submit` with a preferred worker lands here.
    deques: Vec<VecDeque<Packet<'env>>>,
    /// Shared stage buckets, drained in [`Stage`] priority order.
    buckets: [VecDeque<Packet<'env>>; Stage::COUNT],
    /// Packets submitted and not yet fully executed (stats merged).
    pending: usize,
    /// No further submissions; workers exit once the queues run dry.
    closed: bool,
    /// Packets executed so far.
    packets_done: u64,
    /// Per-worker accounting, merged after each packet.
    workers: Vec<WorkerStats>,
}

/// A scoped worker pool executing packets for one operation. Created by
/// [`Crews::run`]; submission is cheap (one lock, one notify).
pub struct Crew<'env> {
    q: Mutex<Queues<'env>>,
    work: Condvar,
}

impl<'env> Crew<'env> {
    fn new(jobs: usize) -> Crew<'env> {
        Crew {
            q: Mutex::new(Queues {
                deques: (0..jobs).map(|_| VecDeque::new()).collect(),
                buckets: [const { VecDeque::new() }; Stage::COUNT],
                pending: 0,
                closed: false,
                packets_done: 0,
                workers: vec![WorkerStats::default(); jobs],
            }),
            work: Condvar::new(),
        }
    }

    /// Number of workers in this crew.
    pub fn jobs(&self) -> usize {
        self.q.lock().expect("crew queue poisoned").deques.len()
    }

    /// Submit a packet. With `preferred` it lands on that worker's deque
    /// (modulo the crew width); otherwise it goes to the shared `stage`
    /// bucket, where any idle worker may claim it (counted as a steal).
    pub fn submit(
        &self,
        stage: Stage,
        kind: PacketKind,
        preferred: Option<usize>,
        job: impl FnOnce(&mut WorkerStats) + Send + 'env,
    ) {
        let packet = Packet {
            kind,
            job: Box::new(job),
        };
        let mut q = self.q.lock().expect("crew queue poisoned");
        assert!(!q.closed, "submit after crew close");
        match preferred {
            Some(i) => {
                let i = i % q.deques.len();
                q.deques[i].push_back(packet);
            }
            None => q.buckets[stage as usize].push_back(packet),
        }
        q.pending += 1;
        drop(q);
        self.work.notify_all();
    }

    /// Block until every submitted packet has executed and merged its
    /// statistics. Must be called from outside the crew (the coordinator);
    /// a packet waiting on its own crew would deadlock.
    pub fn wait_idle(&self) {
        let mut q = self.q.lock().expect("crew queue poisoned");
        while q.pending > 0 {
            q = self.work.wait(q).expect("crew queue poisoned");
        }
    }

    /// Snapshot of per-worker statistics (merged packets only).
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.q.lock().expect("crew queue poisoned").workers.clone()
    }

    fn close(&self) {
        self.q.lock().expect("crew queue poisoned").closed = true;
        self.work.notify_all();
    }

    /// Claim the next packet for worker `i`: own deque first (FIFO), then
    /// the stage buckets in priority order, then steal the *newest* packet
    /// from the longest sibling deque. Returns the packet and whether the
    /// claim counts as a steal.
    fn take(q: &mut Queues<'env>, i: usize) -> Option<(Packet<'env>, bool)> {
        if let Some(p) = q.deques[i].pop_front() {
            return Some((p, false));
        }
        for bucket in &mut q.buckets {
            if let Some(p) = bucket.pop_front() {
                return Some((p, true));
            }
        }
        let victim = (0..q.deques.len())
            .filter(|&j| j != i)
            .max_by_key(|&j| q.deques[j].len())?;
        q.deques[victim].pop_back().map(|p| (p, true))
    }

    fn worker_loop(&self, i: usize, sched: &Crews) {
        // Give the worker its own telemetry shard (and trace-timeline row)
        // for the crew's lifetime; successive crews reuse the row by name.
        let _shard = sched
            .telemetry
            .as_ref()
            .map(|t| t.attach_named(&format!("worker-{i}")));
        let mut q = self.q.lock().expect("crew queue poisoned");
        loop {
            if let Some((packet, stolen)) = Self::take(&mut q, i) {
                drop(q);
                let mut stats = WorkerStats::default();
                if stolen {
                    stats.steals += 1;
                    probe::instant("steal", "sched");
                }
                let t0 = probe::spans_active().then(Instant::now);
                (packet.job)(&mut stats);
                if let Some(t0) = t0 {
                    probe::span(packet.kind.name(), "packet", t0);
                }
                q = self.q.lock().expect("crew queue poisoned");
                q.workers[i].merge(&stats);
                q.pending -= 1;
                q.packets_done += 1;
                if q.pending == 0 {
                    // Wake both idle siblings and any `wait_idle` caller.
                    self.work.notify_all();
                }
                continue;
            }
            if q.closed {
                return;
            }
            let t0 = Instant::now();
            q = self.work.wait(q).expect("crew queue poisoned");
            q.workers[i].idle_ns += dur_ns(t0.elapsed());
            if probe::spans_active() {
                probe::span("idle", "sched", t0);
            }
        }
    }

    fn report(&self) -> CrewReport {
        let q = self.q.lock().expect("crew queue poisoned");
        CrewReport {
            workers: q.workers.clone(),
            packets: q.packets_done,
        }
    }
}

/// The scheduler handle: owns no threads, only the telemetry registry
/// crew workers report into.
/// Cloning is cheap; every operation materializes its own scoped crew via
/// [`Crews::run`].
#[derive(Debug, Clone, Default)]
pub struct Crews {
    /// When present, crew workers attach per-worker shards so counters,
    /// phases, and (if enabled) trace spans are attributed to
    /// `worker-{i}` timeline rows instead of vanishing unattached.
    telemetry: Option<Arc<Telemetry>>,
}

impl Crews {
    /// Same scheduler with crew workers attached to `telemetry`. Each
    /// worker holds a `worker-{i}` shard for the crew's lifetime, so
    /// packet/idle/steal spans land on stable per-worker timeline rows.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Crews {
        self.telemetry = Some(telemetry);
        self
    }

    /// Run one operation against a crew of `jobs` workers. `f` executes on
    /// the calling thread (the coordinator) and may submit packets that
    /// borrow anything outliving this call; the crew's workers drain them
    /// concurrently. Returns `f`'s result plus the crew's accounting once
    /// every worker has exited.
    pub fn run<'env, R>(&self, jobs: usize, f: impl FnOnce(&Crew<'env>) -> R) -> (R, CrewReport) {
        let jobs = jobs.max(1);
        let crew = Crew::new(jobs);
        let out = std::thread::scope(|s| {
            for i in 0..jobs {
                let crew = &crew;
                s.spawn(move || crew.worker_loop(i, self));
            }
            let out = f(&crew);
            crew.close();
            out
        });
        let report = crew.report();
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn every_packet_runs_and_is_counted() {
        let sched = Crews::default();
        let hits = AtomicUsize::new(0);
        let ((), report) = sched.run(3, |crew| {
            for i in 0..64 {
                let hits = &hits;
                crew.submit(Stage::Execute, PacketKind::Task, Some(i), move |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            crew.wait_idle();
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(report.packets, 64);
        assert_eq!(report.workers.len(), 3);
    }

    #[test]
    fn bucket_packets_drain_in_stage_priority_order() {
        // One worker, packets submitted while it is blocked on a gate
        // packet: the finalize packet must run after prepare/execute even
        // though it was submitted first.
        let sched = Crews::default();
        let order = Mutex::new(Vec::new());
        let ((), _) = sched.run(1, |crew| {
            let gate = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
            let g = gate.clone();
            crew.submit(Stage::Prepare, PacketKind::Task, None, move |_| {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
            for (stage, tag) in [
                (Stage::Finalize, "finalize"),
                (Stage::Simulate, "simulate"),
                (Stage::Execute, "execute"),
                (Stage::Prepare, "prepare"),
            ] {
                let order = &order;
                crew.submit(stage, PacketKind::Task, None, move |_| {
                    order.lock().unwrap().push(tag);
                });
            }
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            crew.wait_idle();
        });
        assert_eq!(
            *order.lock().unwrap(),
            vec!["prepare", "execute", "simulate", "finalize"]
        );
    }

    #[test]
    fn idle_workers_steal_from_loaded_deques() {
        // All packets pinned to worker 0's deque; with 4 workers the
        // others must steal to finish, and steals must be recorded.
        let sched = Crews::default();
        let ((), report) = sched.run(4, |crew| {
            for _ in 0..128 {
                crew.submit(
                    Stage::Simulate,
                    PacketKind::ReplayShard,
                    Some(0),
                    move |_| {
                        std::hint::black_box((0..512).sum::<u64>());
                    },
                );
            }
            crew.wait_idle();
        });
        assert_eq!(report.packets, 128);
        let steals: u64 = report.workers.iter().map(|w| w.steals).sum();
        // Worker 0 never steals from itself; any packet a sibling claimed
        // counts. The exact split is timing-dependent but the total is
        // bounded by the packet count.
        assert!(steals <= 128);
    }

    #[test]
    fn engine_config_is_sequential_at_one_worker() {
        assert!(EngineConfig::default().is_sequential());
        assert!(EngineConfig::jobs(1).is_sequential());
        assert!(!EngineConfig::jobs(4).is_sequential());
    }

    #[cfg(not(cachegc_probes_off))]
    #[test]
    fn crews_record_packet_spans_on_worker_rows() {
        let tele = Arc::new(Telemetry::with_spans());
        let sched = Crews::default().with_telemetry(Arc::clone(&tele));
        let ((), report) = sched.run(2, |crew| {
            for i in 0..8 {
                crew.submit(Stage::Execute, PacketKind::Task, Some(i), move |_| {
                    std::hint::black_box((0..256).sum::<u64>());
                });
            }
            crew.wait_idle();
        });
        assert_eq!(report.packets, 8);
        let snap = tele.snapshot();
        let packet_spans: Vec<_> = snap.spans.iter().filter(|s| s.cat == "packet").collect();
        assert_eq!(packet_spans.len(), 8);
        assert!(packet_spans.iter().all(|s| s.name == "task"));
        assert!(snap
            .spans
            .iter()
            .all(|s| (s.tid as usize) < snap.threads.len()));
        assert!(snap.threads.iter().any(|t| t == "worker-0"));
        assert!(snap.threads.iter().any(|t| t == "worker-1"));
    }

    #[test]
    fn stage_vocabulary_is_total() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert!(!s.name().is_empty());
        }
        for k in [
            PacketKind::VmExecute,
            PacketKind::ReplayShard,
            PacketKind::Task,
            PacketKind::GoldenDiff,
            PacketKind::GridSimulate,
        ] {
            assert!(!k.name().is_empty());
        }
    }
}
