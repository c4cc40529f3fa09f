//! [`PacketFanout`]: the packet-scheduled sink fanout.
//!
//! A drop-in replacement for sequential [`cachegc_trace::Fanout`] when the
//! attached sinks are independent (a cache grid, a set of analysis
//! instruments): the producer buffers accesses into fixed-size chunks and
//! broadcasts each full chunk to sink *shards*; a shard with unconsumed
//! chunks has exactly one drain packet in flight on the owning
//! [`Crew`](super::Crew), so each sink consumes chunks strictly in publish
//! order and per-sink results are bit-identical to the sequential oracle.
//! The property tests in the workspace root enforce this for both
//! policies.
//!
//! The two legacy engine schedules are bucket policies here:
//!
//! * [`Schedule::RoundRobin`] — `min(jobs, sinks)` shards, sink `i` on
//!   shard `i % k`, and shard `i`'s drain packets *prefer worker `i`'s
//!   deque*: static placement, zero coordination unless a worker falls
//!   behind (then siblings steal).
//! * [`Schedule::WorkStealing`] — one shard per sink, drain packets
//!   published to the shared `Simulate` bucket: any idle worker claims
//!   the next shard with work.
//!
//! Backpressure: each shard holds at most [`SHARD_DEPTH`] undrained
//! chunks; the producer blocks (and records the stall) when a shard falls
//! behind, bounding memory exactly like the old bounded channels.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use cachegc_telemetry::{probe, EngineReport, Telemetry};
use cachegc_trace::{Access, TraceSink};

use super::{dur_ns, Crew, EngineConfig, PacketKind, Schedule, Stage};

/// Chunks a shard may hold undrained before the producer blocks.
const SHARD_DEPTH: usize = 8;

/// One shard of sinks plus its chunk queue. `active` is true while a
/// drain packet for this shard is queued or running, so at most one
/// drainer ever touches the sinks and order is preserved.
struct Shard<S> {
    q: Mutex<ShardQueue<S>>,
    /// Signaled by the drainer after each pop, for producer backpressure.
    space: Condvar,
}

struct ShardQueue<S> {
    /// `(original index, sink)` pairs, taken out wholesale by the active
    /// drainer and restored when it goes idle.
    sinks: Vec<(usize, S)>,
    chunks: VecDeque<Arc<Vec<Access>>>,
    active: bool,
}

/// A [`TraceSink`] that broadcasts the stream to sink shards drained by
/// work packets on a [`Crew`]. See the module docs for the policy split.
pub struct PacketFanout<'c, 'env, S: TraceSink + Send> {
    crew: &'c Crew<'env>,
    shards: Vec<Arc<Shard<S>>>,
    buf: Vec<Access>,
    chunk_events: usize,
    total_sinks: usize,
    jobs: usize,
    schedule: Schedule,
    /// What flavor of work the drain packets advance (plain drains, a
    /// recording pass's drains, replay shards, ...).
    kind: PacketKind,
    /// Where the end-of-run [`EngineReport`] goes, if anyone is watching.
    telemetry: Option<Arc<Telemetry>>,
    chunks_published: u64,
    events_published: u64,
    backpressure_ns: u64,
    queue_depth_hwm: u64,
}

impl<'c, 'env, S: TraceSink + Send + 'env> PacketFanout<'c, 'env, S> {
    /// Shard `sinks` over `crew` according to `engine`'s schedule, with
    /// drain packets typed `kind`. The crew must be dedicated to this
    /// fanout for the duration of the run ([`PacketFanout::into_sinks`]
    /// waits for the whole crew to go idle).
    pub fn new(
        crew: &'c Crew<'env>,
        sinks: Vec<S>,
        engine: &EngineConfig,
        kind: PacketKind,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Self {
        let jobs = crew.jobs();
        let total_sinks = sinks.len();
        let n_shards = match engine.schedule {
            // Static placement: one shard per worker (capped by sinks).
            Schedule::RoundRobin => jobs.min(total_sinks),
            // Dynamic balancing: shard per sink, finest stealable grain.
            Schedule::WorkStealing => total_sinks,
        };
        let mut shard_sinks: Vec<Vec<(usize, S)>> = (0..n_shards).map(|_| Vec::new()).collect();
        for (i, sink) in sinks.into_iter().enumerate() {
            shard_sinks[i % n_shards.max(1)].push((i, sink));
        }
        let shards = shard_sinks
            .into_iter()
            .map(|sinks| {
                Arc::new(Shard {
                    q: Mutex::new(ShardQueue {
                        sinks,
                        chunks: VecDeque::new(),
                        active: false,
                    }),
                    space: Condvar::new(),
                })
            })
            .collect();
        PacketFanout {
            crew,
            shards,
            buf: Vec::with_capacity(engine.chunk_events),
            chunk_events: engine.chunk_events.max(1),
            total_sinks,
            jobs,
            schedule: engine.schedule,
            kind,
            telemetry,
            chunks_published: 0,
            events_published: 0,
            backpressure_ns: 0,
            queue_depth_hwm: 0,
        }
    }

    /// Queue one drain packet for shard `i`. Round-robin pins it to
    /// worker `i`'s deque; work-stealing publishes it to the `Simulate`
    /// bucket.
    fn submit_drain(&self, i: usize) {
        let shard = Arc::clone(&self.shards[i]);
        let preferred = match self.schedule {
            Schedule::RoundRobin => Some(i % self.jobs),
            Schedule::WorkStealing => None,
        };
        self.crew
            .submit(Stage::Simulate, self.kind, preferred, move |stats| {
                let mut q = shard.q.lock().expect("shard queue poisoned");
                let mut sinks = std::mem::take(&mut q.sinks);
                loop {
                    let Some(chunk) = q.chunks.pop_front() else {
                        q.sinks = sinks;
                        q.active = false;
                        break;
                    };
                    shard.space.notify_all();
                    drop(q);
                    for (_, sink) in &mut sinks {
                        for access in chunk.iter() {
                            sink.access(*access);
                        }
                    }
                    stats.chunks += 1;
                    stats.events += chunk.len() as u64 * sinks.len() as u64;
                    q = shard.q.lock().expect("shard queue poisoned");
                }
            });
    }

    /// Publish the buffered chunk to every shard, blocking on shards that
    /// are [`SHARD_DEPTH`] behind, and queue a drain packet for each shard
    /// that does not already have one in flight.
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let chunk = Arc::new(std::mem::replace(
            &mut self.buf,
            Vec::with_capacity(self.chunk_events),
        ));
        self.chunks_published += 1;
        self.events_published += chunk.len() as u64;
        for i in 0..self.shards.len() {
            let shard = &self.shards[i];
            let mut q = shard.q.lock().expect("shard queue poisoned");
            if q.chunks.len() >= SHARD_DEPTH {
                let t0 = Instant::now();
                while q.chunks.len() >= SHARD_DEPTH {
                    q = shard.space.wait(q).expect("shard queue poisoned");
                }
                self.backpressure_ns += dur_ns(t0.elapsed());
                if probe::spans_active() {
                    probe::span("backpressure", "sched", t0);
                }
            }
            q.chunks.push_back(Arc::clone(&chunk));
            self.queue_depth_hwm = self.queue_depth_hwm.max(q.chunks.len() as u64);
            let needs_drain = !q.active;
            if needs_drain {
                q.active = true;
            }
            drop(q);
            if needs_drain {
                self.submit_drain(i);
            }
        }
    }

    /// Events broadcast so far (one per [`TraceSink::access`] call that
    /// has reached a published chunk, regardless of sink count).
    pub fn events_published(&self) -> u64 {
        self.events_published + self.buf.len() as u64
    }

    /// Flush the tail, wait for every drain packet to finish, and return
    /// the sinks in their original order. Reports an [`EngineReport`] to
    /// the attached telemetry, if any.
    pub fn into_sinks(mut self) -> Vec<S> {
        self.flush();
        self.crew.wait_idle();
        let mut out: Vec<Option<S>> = (0..self.total_sinks).map(|_| None).collect();
        for shard in &self.shards {
            let mut q = shard.q.lock().expect("shard queue poisoned");
            debug_assert!(!q.active && q.chunks.is_empty());
            for (i, sink) in std::mem::take(&mut q.sinks) {
                out[i] = Some(sink);
            }
        }
        if let Some(t) = &self.telemetry {
            t.record_engine(&EngineReport {
                schedule: self.schedule.name(),
                jobs: self.jobs,
                sinks: self.total_sinks,
                chunks_published: self.chunks_published,
                events_published: self.events_published,
                backpressure_ns: self.backpressure_ns,
                queue_depth_hwm: self.queue_depth_hwm,
                workers: self.crew.worker_stats(),
            });
        }
        out.into_iter()
            .map(|s| s.expect("every sink accounted for"))
            .collect()
    }
}

impl<'env, S: TraceSink + Send + 'env> TraceSink for PacketFanout<'_, 'env, S> {
    #[inline]
    fn access(&mut self, access: Access) {
        self.buf.push(access);
        if self.buf.len() >= self.chunk_events {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{PacketKind, Scheduler};
    use super::*;
    use cachegc_trace::{Context, Fanout, RefCounter};

    fn stream(n: u32) -> Vec<Access> {
        (0..n)
            .map(|i| {
                let addr = i.wrapping_mul(68) ^ (i >> 3);
                let ctx = if i % 7 == 0 {
                    Context::Collector
                } else {
                    Context::Mutator
                };
                match i % 5 {
                    0 => Access::write(addr, ctx),
                    1 => Access::alloc_write(addr, ctx),
                    _ => Access::read(addr, ctx),
                }
            })
            .collect()
    }

    fn drive(engine: EngineConfig, kind: PacketKind, events: u32) -> Vec<RefCounter> {
        let sinks: Vec<RefCounter> = (0..5).map(|_| RefCounter::new()).collect();
        let sched = Scheduler::default();
        let (out, report) = sched.run(engine.jobs, |crew| {
            let mut fan = PacketFanout::new(crew, sinks, &engine, kind, None);
            for a in stream(events) {
                fan.access(a);
            }
            fan.into_sinks()
        });
        assert!(report.packets > 0 || events == 0);
        out
    }

    #[test]
    fn both_policies_match_the_sequential_fanout() {
        let mut oracle = Fanout::new((0..5).map(|_| RefCounter::new()).collect::<Vec<_>>());
        for a in stream(10_000) {
            oracle.access(a);
        }
        let expected = oracle.into_sinks();
        for schedule in [Schedule::RoundRobin, Schedule::WorkStealing] {
            for jobs in [1, 2, 3] {
                let engine = EngineConfig::jobs(jobs)
                    .with_schedule(schedule)
                    .with_chunk(64);
                let got = drive(engine, PacketKind::SinkDrain, 10_000);
                assert_eq!(got, expected, "{schedule:?} jobs={jobs}");
            }
        }
    }

    #[test]
    fn an_empty_stream_returns_the_sinks_untouched() {
        let engine = EngineConfig::jobs(3).with_schedule(Schedule::WorkStealing);
        let got = drive(engine, PacketKind::SinkDrain, 0);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|c| c.total() == 0));
    }
}
