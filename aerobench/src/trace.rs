//! Spans recorded around the benchmark's calls into the detector, and a
//! counting allocator for the per-operation heap-allocation count.
//!
//! Spans live in a buffer allocated before the measured phase and are
//! written out when the run ends. With tracing off, `begin`/`end` return
//! without reading the clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::json;
use crate::stats::percentile;

/// One recorded span: `[start, end)` in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, `NO_PARENT` for a
    /// root.
    pub parent: u32,
    /// Frame (or repetition) the span worked on.
    pub frame: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Span buffer of one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

/// Spans a traced run can hold; later spans are counted as dropped.
const CAPACITY: usize = 1 << 18;

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::with_capacity(if on { CAPACITY } else { 0 }),
            open: Vec::with_capacity(if on { 64 } else { 0 }),
            dropped: 0,
        }
    }

    pub fn begin(&mut self, name: &'static str, frame: u64) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id.0 as usize].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id.0) {
            self.open.truncate(pos);
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's spans (same epoch) as additional roots.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    /// Measured cost of one `begin`/`end` pair, in nanoseconds.
    pub fn pair_cost_ns() -> f64 {
        let mut t = Tracer::new(true, Instant::now());
        let n = 20_000u32;
        let t0 = Instant::now();
        for i in 0..n {
            let id = t.begin("calibrate", u64::from(i));
            t.end(id);
        }
        t0.elapsed().as_nanos() as f64 / f64::from(n)
    }

    /// Self time of every span: its duration minus the time its children
    /// cover.
    fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per-name rows: count, total self time, p50 and p99 duration.
    pub fn table(&self) -> Vec<TableRow> {
        let selfs = self.self_times_ns();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0.push((s.end_ns - s.start_ns) as f64 / 1e6);
            e.1 += self_ns;
        }
        by_name
            .into_iter()
            .map(|(name, (durs, self_ns))| TableRow {
                name,
                count: durs.len(),
                self_ms: self_ns as f64 / 1e6,
                p50_ms: percentile(&durs, 0.5),
                p99_ms: percentile(&durs, 0.99),
            })
            .collect()
    }

    /// The trace document: host facts, the per-name table and every span.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 4096);
        out.push_str("{\"run\":");
        out.push_str(header);
        out.push_str(&format!(",\"dropped_spans\":{},\"table\":[", self.dropped));
        for (i, r) in self.table().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"count\":{},\"self_ms\":{},\"p50_ms\":{},\"p99_ms\":{}}}",
                json::string(r.name),
                r.count,
                json::num(r.self_ms),
                json::num(r.p50_ms),
                json::num(r.p99_ms)
            ));
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            out.push_str(&format!(
                "{{\"name\":{},\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"frame\":{}}}",
                json::string(s.name),
                json::num(s.start_ns as f64 / 1e3),
                json::num(s.end_ns as f64 / 1e3),
                s.frame
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// One row of the per-layer span table.
pub struct TableRow {
    pub name: &'static str,
    pub count: usize,
    pub self_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts heap allocations while [`count_allocs`] is on; otherwise a plain
/// pass-through to the system allocator.
pub struct CountingAlloc;

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter update
// with no other side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's guarantees for `layout` pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` above with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged from the caller, who upholds
        // `GlobalAlloc::realloc`'s contract for `ptr`, `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off (process-wide).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
