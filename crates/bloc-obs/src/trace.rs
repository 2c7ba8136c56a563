//! Span-edge timeline tracing: a bounded lock-free ring buffer of
//! begin/end edges exported as Chrome trace-event JSON.
//!
//! Metrics aggregate; a trace *sequences*. When the question is "where
//! did this round's wall time go, and on which worker thread?", the
//! histograms in [`crate::report::RunReport`] can say how long each stage
//! took in total but not how the stages interleaved. The [`Tracer`]
//! answers that: every [`crate::span::SpanGuard`] (and every
//! `bloc_num::par` shard) records an open edge and a close edge — interned
//! name id, a small per-thread id, and a monotonic nanosecond timestamp —
//! into a fixed-capacity ring of atomic slots. Recording is lock-free
//! (one `fetch_add` to claim a slot plus three relaxed stores) and free
//! when tracing is disabled (one relaxed load), so the tracer can stay
//! compiled into the hot path.
//!
//! [`Tracer::write_chrome_trace`] exports the ring as Chrome trace-event
//! JSON (`{"traceEvents": [...]}`), loadable in Perfetto or
//! `chrome://tracing`. The exporter pairs edges per thread with a stack
//! (RAII spans nest properly per thread by construction), so the emitted
//! `"B"`/`"E"` events are always balanced even when ring wrap-around
//! dropped one side of a pair; unmatched edges are counted, not emitted.
//!
//! The ring deliberately overwrites the oldest edges when full: a soak
//! that runs for hours keeps the most recent window, which is the one a
//! post-mortem wants. Capacity is fixed at the first [`Tracer::enable`]
//! for the life of the process (slots are read lock-free and cannot be
//! reallocated under concurrent writers without unsafe code).

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Default ring capacity (edges) when [`Tracer::enable`] picks the size:
/// 65 536 edges ≈ 32 768 spans ≈ 1.5 MiB of slots.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// One recorded begin or end edge, as read back out of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TraceEdge {
    /// Global claim order (0-based); per-thread order follows it.
    pub ticket: u64,
    /// Nanoseconds since the tracer's time origin.
    pub ts_ns: u64,
    /// Interned span name id (resolve with [`Tracer::name_of`]).
    pub name_id: u32,
    /// Small dense per-thread id (assigned on each thread's first edge).
    pub tid: u32,
    /// True for a begin edge, false for an end edge.
    pub begin: bool,
}

/// What an export wrote: sizing for logs and gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceExport {
    /// Matched begin/end pairs emitted (2× this many JSON events).
    pub spans: usize,
    /// Distinct thread lanes in the timeline.
    pub threads: usize,
    /// Edges whose partner was lost (ring wrap-around) and were dropped
    /// to keep the emitted stream balanced.
    pub unmatched: usize,
    /// Edges overwritten by wrap-around before export.
    pub wrapped: u64,
}

struct Slot {
    /// `ticket + 1` of the edge stored here; 0 = never written. Written
    /// last with `Release` so a reader that observes it sees the fields.
    seq: AtomicU64,
    ts_ns: AtomicU64,
    /// `name_id << 32 | tid << 1 | begin`.
    packed: AtomicU64,
}

struct Ring {
    mask: usize,
    cursor: AtomicU64,
    slots: Box<[Slot]>,
}

#[derive(Default)]
struct Interner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

/// The edge recorder. One process-wide instance ([`Tracer::global`])
/// backs every span and executor shard; private instances exist for
/// tests.
#[derive(Default)]
pub struct Tracer {
    enabled: AtomicBool,
    ring: OnceLock<Ring>,
    names: Mutex<Interner>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// This thread's small dense trace id (assigned on first use, starting
/// at 1 — the first thread to record, normally `main`, gets 1).
pub(crate) fn thread_tid() -> u32 {
    TID.with(|cell| {
        let mut tid = cell.get();
        if tid == 0 {
            tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(tid);
        }
        tid
    })
}

fn time_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn ns_since_origin() -> u64 {
    time_origin().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

impl Tracer {
    /// An empty, disabled tracer (no ring allocated yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide tracer every span and executor shard records to.
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(Tracer::new)
    }

    /// Starts recording, allocating a ring of at least `capacity` edges
    /// (rounded up to a power of two) on the first call. Later calls
    /// reuse the first ring whatever their `capacity` — slots are read
    /// lock-free and cannot be swapped under concurrent writers.
    pub fn enable(&self, capacity: usize) {
        self.ring.get_or_init(|| {
            let cap = capacity.max(8).next_power_of_two();
            Ring {
                mask: cap - 1,
                cursor: AtomicU64::new(0),
                slots: (0..cap)
                    .map(|_| Slot {
                        seq: AtomicU64::new(0),
                        ts_ns: AtomicU64::new(0),
                        packed: AtomicU64::new(0),
                    })
                    .collect(),
            }
        });
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops recording. The ring's contents stay readable.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// True while edges are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The id for `name`, interned on first use. `None` while disabled,
    /// so callers can skip building span names nobody will see.
    pub fn intern(&self, name: &str) -> Option<u32> {
        if !self.is_enabled() {
            return None;
        }
        let mut interner = self.names.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = interner.ids.get(name) {
            return Some(id);
        }
        let id = interner.names.len() as u32;
        interner.names.push(name.to_string());
        interner.ids.insert(name.to_string(), id);
        Some(id)
    }

    /// The interned name behind `id`, if any.
    pub(crate) fn name_of(&self, id: u32) -> Option<String> {
        let interner = self.names.lock().unwrap_or_else(|e| e.into_inner());
        interner.names.get(id as usize).cloned()
    }

    /// Interns `name` and records its begin edge, returning the id to
    /// pass to [`Tracer::end`]. `None` while disabled.
    pub fn begin(&self, name: &str) -> Option<u32> {
        let id = self.intern(name)?;
        self.record(id, true);
        Some(id)
    }

    /// Records a begin edge for an already-interned name.
    pub fn begin_id(&self, id: u32) {
        if self.is_enabled() {
            self.record(id, true);
        }
    }

    /// Records the end edge matching a begin of the same name on this
    /// thread.
    pub fn end(&self, id: u32) {
        if self.is_enabled() {
            self.record(id, false);
        }
    }

    fn record(&self, name_id: u32, begin: bool) {
        let Some(ring) = self.ring.get() else {
            return;
        };
        let ticket = ring.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[(ticket as usize) & ring.mask];
        slot.ts_ns.store(ns_since_origin(), Ordering::Relaxed);
        let packed =
            ((name_id as u64) << 32) | (((thread_tid() & 0x7FFF_FFFF) as u64) << 1) | begin as u64;
        slot.packed.store(packed, Ordering::Relaxed);
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// Edges retained? `(claimed, capacity)` — claimed may exceed
    /// capacity when the ring has wrapped.
    pub fn len(&self) -> (u64, usize) {
        match self.ring.get() {
            Some(ring) => (ring.cursor.load(Ordering::Acquire), ring.mask + 1),
            None => (0, 0),
        }
    }

    /// The retained edges in claim order. Meant to run after writers
    /// quiesce; edges claimed concurrently with the read may be skipped
    /// but are never returned torn (the `seq` word is published last).
    pub(crate) fn edges(&self) -> Vec<TraceEdge> {
        let Some(ring) = self.ring.get() else {
            return Vec::new();
        };
        let total = ring.cursor.load(Ordering::Acquire);
        let cap = ring.mask + 1;
        let oldest = total.saturating_sub(cap as u64);
        let mut out = Vec::with_capacity(cap.min(total as usize));
        for slot in ring.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let ticket = seq - 1;
            if ticket < oldest || ticket >= total {
                continue; // overwritten or claimed-but-unpublished
            }
            let packed = slot.packed.load(Ordering::Relaxed);
            out.push(TraceEdge {
                ticket,
                ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                name_id: (packed >> 32) as u32,
                tid: ((packed >> 1) & 0x7FFF_FFFF) as u32,
                begin: packed & 1 == 1,
            });
        }
        out.sort_by_key(|e| e.ticket);
        out
    }

    /// Renders the retained edges as a Chrome trace-event document.
    ///
    /// Edges are paired per thread with a stack (RAII spans nest per
    /// thread by construction); only matched pairs are emitted, so the
    /// `"B"`/`"E"` stream is balanced per `(pid, tid)` even when ring
    /// wrap-around lost one side of a pair. Timestamps are microseconds
    /// with nanosecond fraction.
    pub(crate) fn chrome_trace(&self) -> (Json, TraceExport) {
        let edges = self.edges();
        let (total, cap) = self.len();
        let mut stats = TraceExport {
            wrapped: total.saturating_sub(cap as u64),
            ..TraceExport::default()
        };
        let mut per_tid: BTreeMap<u32, Vec<&TraceEdge>> = BTreeMap::new();
        for e in &edges {
            per_tid.entry(e.tid).or_default().push(e);
        }
        stats.threads = per_tid.len();
        // (ts_ns, ticket, event) so the final stream is time-ordered and
        // ties resolve in claim order (outer B before inner B).
        let mut events: Vec<(u64, u64, Json)> = Vec::new();
        let emit = |e: &TraceEdge| {
            let name = self
                .name_of(e.name_id)
                .unwrap_or_else(|| format!("?{}", e.name_id));
            let obj = Json::obj([
                ("name", Json::Str(name)),
                ("cat", Json::Str("bloc".into())),
                ("ph", Json::Str(if e.begin { "B" } else { "E" }.into())),
                ("ts", Json::Num(e.ts_ns as f64 / 1_000.0)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(e.tid as f64)),
            ]);
            (e.ts_ns, e.ticket, obj)
        };
        for seq in per_tid.values() {
            let mut stack: Vec<&TraceEdge> = Vec::new();
            for e in seq {
                if e.begin {
                    stack.push(e);
                } else {
                    match stack.last() {
                        Some(b) if b.name_id == e.name_id => {
                            let b = stack.pop().unwrap_or(e);
                            events.push(emit(b));
                            events.push(emit(e));
                            stats.spans += 1;
                        }
                        _ => stats.unmatched += 1, // begin lost to wrap
                    }
                }
            }
            stats.unmatched += stack.len(); // ends lost to wrap / still open
        }
        events.sort_by_key(|&(ts, ticket, _)| (ts, ticket));
        let doc = Json::obj([
            (
                "traceEvents",
                Json::Arr(events.into_iter().map(|(_, _, j)| j).collect()),
            ),
            ("displayTimeUnit", Json::Str("ms".into())),
        ]);
        (doc, stats)
    }

    /// Writes `Tracer::chrome_trace` to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<TraceExport> {
        let (doc, stats) = self.chrome_trace();
        let mut file = std::fs::File::create(path)?;
        file.write_all(doc.render().as_bytes())?;
        file.flush()?;
        Ok(stats)
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (claimed, cap) = self.len();
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("claimed", &claimed)
            .field("capacity", &cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.begin("x"), None);
        t.end(0);
        assert_eq!(t.len().0, 0);
        assert!(t.edges().is_empty());
        let (doc, stats) = t.chrome_trace();
        assert_eq!(stats, TraceExport::default());
        assert_eq!(doc.get("traceEvents").and_then(Json::as_arr).unwrap(), &[]);
    }

    #[test]
    fn edges_round_trip_in_claim_order() {
        let t = Tracer::new();
        t.enable(64);
        let a = t.begin("alpha").unwrap();
        let b = t.begin("beta").unwrap();
        t.end(b);
        t.end(a);
        let edges = t.edges();
        assert_eq!(edges.len(), 4);
        assert!(edges.windows(2).all(|w| w[0].ticket < w[1].ticket));
        assert!(edges.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(t.name_of(edges[0].name_id).as_deref(), Some("alpha"));
        assert_eq!(
            edges.iter().map(|e| e.begin).collect::<Vec<_>>(),
            [true, true, false, false]
        );
        // Same thread, same tid.
        assert!(edges.iter().all(|e| e.tid == edges[0].tid));
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest_edges() {
        let t = Tracer::new();
        t.enable(8); // power of two already
        for k in 0..20u32 {
            let id = t.intern(&format!("s{k}")).unwrap();
            t.begin_id(id);
            t.end(id);
        }
        let (claimed, cap) = t.len();
        assert_eq!(claimed, 40);
        assert_eq!(cap, 8);
        let edges = t.edges();
        assert_eq!(edges.len(), 8);
        assert!(edges.iter().all(|e| e.ticket >= 32));
        let (_, stats) = t.chrome_trace();
        assert_eq!(stats.wrapped, 32);
        // 8 retained edges = 4 whole spans (begin+end adjacent pairs).
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.unmatched, 0);
    }

    #[test]
    fn chrome_export_is_balanced_per_thread_even_after_wrap() {
        let t = Tracer::new();
        t.enable(16);
        // An outer span whose begin will be overwritten by the ring.
        let outer = t.begin("outer").unwrap();
        for k in 0..12u32 {
            let id = t.intern(&format!("inner{k}")).unwrap();
            t.begin_id(id);
            t.end(id);
        }
        t.end(outer);
        let (doc, stats) = t.chrome_trace();
        assert!(stats.unmatched >= 1, "outer begin was wrapped away");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Validate balance the way scripts/check.sh does: stack per tid.
        let mut depth: HashMap<String, i64> = HashMap::new();
        for e in events {
            let tid = format!("{:?}", e.get("tid"));
            let d = depth.entry(tid).or_insert(0);
            match e.get("ph").and_then(Json::as_str) {
                Some("B") => *d += 1,
                Some("E") => {
                    *d -= 1;
                    assert!(*d >= 0, "E without matching B");
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced B/E: {depth:?}");
        // And it parses back through the hand-rolled JSON layer.
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn concurrent_recording_loses_no_retained_edge() {
        let t = Tracer::new();
        t.enable(1 << 12);
        let per_thread = 128u32;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for k in 0..per_thread {
                        let id = t.intern(&format!("w{}", k % 5)).unwrap();
                        t.begin_id(id);
                        t.end(id);
                    }
                });
            }
        });
        let edges = t.edges();
        assert_eq!(edges.len(), 4 * per_thread as usize * 2);
        let (_, stats) = t.chrome_trace();
        assert_eq!(stats.spans, 4 * per_thread as usize);
        assert_eq!(stats.unmatched, 0);
        assert_eq!(stats.threads, 4);
    }

    #[test]
    fn interning_is_stable() {
        let t = Tracer::new();
        t.enable(8);
        let a = t.intern("same").unwrap();
        let b = t.intern("same").unwrap();
        let c = t.intern("other").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.name_of(a).as_deref(), Some("same"));
        assert_eq!(t.name_of(c).as_deref(), Some("other"));
    }
}
