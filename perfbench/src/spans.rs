//! Spans recorded from the benchmark's own code around calls into each
//! layer, and the two wrappers that place them inside a VM run.
//!
//! A span has a layer, a start, an end, the span that was open when it
//! began (its parent), the scenario it belongs to, and a work count (refs,
//! or refs × consumers for a fan-out). Spans are kept in a per-thread
//! buffer and collected when the thread's work is done; nothing is written
//! until the benchmark ends. A layer's self time is its spans' durations
//! minus the part their child spans cover.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use cachegc_gc::{Collector, GcStats, Roots};
use cachegc_heap::{Heap, Value};
use cachegc_trace::{Access, Counters, TraceSink};

/// The layers a span can be charged to, named by module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `WorkloadInstance::run`: interpretation, allocation and the barrier.
    Vm,
    /// `Collector::collect`.
    Gc,
    /// Batches handed to a `Recorder`.
    Encode,
    /// `RecordedTrace::replay`, less the consumers it feeds.
    Decode,
    /// `TraceStore::acquire`.
    Acquire,
    /// `RecordTicket::offer`: sealing the capture and the spill write.
    Offer,
    /// Batches handed to `Cache` grids.
    Sim,
    /// Batches handed to the §7 instruments.
    Analysis,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Vm,
        Layer::Gc,
        Layer::Encode,
        Layer::Decode,
        Layer::Acquire,
        Layer::Offer,
        Layer::Sim,
        Layer::Analysis,
    ];

    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Vm => "vm.run",
            Layer::Gc => "gc.collect",
            Layer::Encode => "trace.encode",
            Layer::Decode => "trace.decode",
            Layer::Acquire => "store.acquire",
            Layer::Offer => "store.offer",
            Layer::Sim => "sim.batch",
            Layer::Analysis => "analysis.batch",
        }
    }
}

/// One recorded span. Times are nanoseconds since the process's trace
/// epoch; `parent` is 0 for a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique across the process, never 0.
    pub id: u64,
    /// The span open on this thread when this one began, or 0.
    pub parent: u64,
    /// Spans of one scenario share this id.
    pub scenario: u32,
    /// Which layer the span times.
    pub layer: Layer,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Refs (or refs × consumers) the span processed.
    pub work: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct ThreadTrace {
    scenario: u32,
    open: Vec<u64>,
    spans: Vec<Span>,
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Mark the spans this thread records from now on as `scenario`'s.
pub fn set_scenario(scenario: u32) {
    TRACE.with(|t| t.borrow_mut().scenario = scenario);
}

/// Take every span this thread has recorded so far.
pub fn take_spans() -> Vec<Span> {
    TRACE.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Run `f` inside a span of `layer` whose work count `f` returns
/// alongside its result.
pub fn span_work<R>(layer: Layer, f: impl FnOnce() -> (R, u64)) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, scenario) = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.open.last().copied().unwrap_or(0);
        t.open.push(id);
        (parent, t.scenario)
    });
    let start_ns = now_ns();
    let (out, work) = f();
    let end_ns = now_ns();
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.open.pop();
        t.spans.push(Span {
            id,
            parent,
            scenario,
            layer,
            start_ns,
            end_ns,
            work,
        });
    });
    out
}

/// Run `f` inside a span of `layer` with no work count.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    span_work(layer, || (f(), 0))
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// durations of its direct children. Spans must all be closed.
pub fn self_times(spans: &[Span]) -> Vec<(Layer, u64)> {
    let mut child_ns = std::collections::HashMap::<u64, u64>::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    Layer::ALL
        .iter()
        .map(|&layer| {
            let ns = spans
                .iter()
                .filter(|s| s.layer == layer)
                .map(|s| {
                    s.dur_ns()
                        .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
                })
                .sum();
            (layer, ns)
        })
        .collect()
}

/// Events a [`SpanSink`] holds before handing them on in one span.
pub const SPAN_BATCH: usize = 1 << 16;

/// A [`TraceSink`] that buffers events and hands each full buffer to the
/// wrapped sink inside one span of `layer`. Every consumer sees the same
/// events in the same order as without the wrapper; only the moment it
/// sees them moves. `width` is the number of consumers the wrapped sink
/// fans out to, so a span's work is `events × width`. Untraced, the
/// wrapper forwards each event at once and records nothing.
pub struct SpanSink<S> {
    inner: S,
    layer: Layer,
    width: u64,
    traced: bool,
    buf: Vec<Access>,
    events: u64,
}

impl<S: TraceSink> SpanSink<S> {
    /// Wrap `inner`, charging its work to `layer`.
    pub fn new(inner: S, layer: Layer, width: usize, traced: bool) -> Self {
        SpanSink {
            inner,
            layer,
            width: width as u64,
            traced,
            buf: Vec::with_capacity(if traced { SPAN_BATCH } else { 0 }),
            events: 0,
        }
    }

    /// Events received so far, buffered or handed on.
    pub fn events(&self) -> u64 {
        self.events
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let (inner, buf) = (&mut self.inner, &mut self.buf);
        let work = buf.len() as u64 * self.width;
        span_work(self.layer, || {
            for a in buf.drain(..) {
                inner.access(a);
            }
            ((), work)
        });
    }

    /// Hand on whatever is still buffered and return the wrapped sink.
    pub fn finish(mut self) -> S {
        self.flush();
        self.inner
    }
}

impl<S: TraceSink> TraceSink for SpanSink<S> {
    #[inline]
    fn access(&mut self, access: Access) {
        self.events += 1;
        if !self.traced {
            self.inner.access(access);
            return;
        }
        self.buf.push(access);
        if self.buf.len() == SPAN_BATCH {
            self.flush();
        }
    }
}

/// A [`Collector`] that times each `collect()` of the wrapped collector
/// as a [`Layer::Gc`] span and forwards every other call unchanged.
pub struct TimedCollector<C> {
    inner: C,
    traced: bool,
}

impl<C: Collector> TimedCollector<C> {
    /// Wrap `inner`; untraced, `collect` records no span.
    pub fn new(inner: C, traced: bool) -> Self {
        TimedCollector { inner, traced }
    }
}

impl<C: Collector> Collector for TimedCollector<C> {
    fn install(&mut self, heap: &mut Heap) {
        self.inner.install(heap);
    }

    fn collect<S: TraceSink>(
        &mut self,
        heap: &mut Heap,
        roots: &mut Roots<'_>,
        counters: &mut Counters,
        sink: &mut S,
    ) {
        if self.traced {
            span(Layer::Gc, || {
                self.inner.collect(heap, roots, counters, sink)
            });
        } else {
            self.inner.collect(heap, roots, counters, sink);
        }
    }

    fn prepare_alloc<S: TraceSink>(&mut self, heap: &mut Heap, bytes: u32, sink: &mut S) -> bool {
        self.inner.prepare_alloc(heap, bytes, sink)
    }

    #[inline]
    fn note_store(&mut self, addr: u32, val: Value) {
        self.inner.note_store(addr, val);
    }

    fn barrier_cost(&self) -> u64 {
        self.inner.barrier_cost()
    }

    fn stats(&self) -> &GcStats {
        self.inner.stats()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let s = |id, parent, layer, start_ns, end_ns| Span {
            id,
            parent,
            scenario: 0,
            layer,
            start_ns,
            end_ns,
            work: 0,
        };
        let spans = [
            s(1, 0, Layer::Vm, 0, 100),
            s(2, 1, Layer::Gc, 10, 40),
            s(3, 2, Layer::Sim, 20, 30),
            s(4, 1, Layer::Sim, 50, 60),
        ];
        let times = self_times(&spans);
        let of = |l| times.iter().find(|(x, _)| *x == l).unwrap().1;
        assert_eq!(of(Layer::Vm), 60);
        assert_eq!(of(Layer::Gc), 20);
        assert_eq!(of(Layer::Sim), 20);
        assert_eq!(of(Layer::Decode), 0);
    }

    #[test]
    fn nested_spans_record_their_parent_and_scenario() {
        take_spans();
        set_scenario(7);
        span(Layer::Vm, || span_work(Layer::Sim, || ((), 5)));
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        let (sim, vm) = (spans[0], spans[1]);
        assert_eq!((sim.layer, vm.layer), (Layer::Sim, Layer::Vm));
        assert_eq!((sim.parent, vm.parent), (vm.id, 0));
        assert_eq!((sim.scenario, vm.scenario, sim.work), (7, 7, 5));
        assert!(vm.start_ns <= sim.start_ns && sim.end_ns <= vm.end_ns);
    }
}
