//! `eos-trace` — zero-dependency observability for the EOS stack.
//!
//! Three primitives behind one global registry:
//!
//! - **Spans** ([`span`]): RAII wall-clock timers that aggregate into a
//!   tree keyed by `(parent span, name)`. Nesting is tracked per thread,
//!   so `span("train.batch")` inside `span("train.epoch")` inside
//!   `span("eos.phase1")` produces the path
//!   `eos.phase1/train.epoch/train.batch`.
//! - **Counters** ([`count!`] / [`counter`]): named monotonic `u64`s.
//! - **Histograms** ([`hist!`] / [`histogram`]): log2-bucketed `u64`
//!   distributions with exact count/sum/min/max.
//!
//! Tracing is **off by default**. Enable at runtime with
//! [`set_enabled`]`(true)` or the `EOS_TRACE=1` environment variable;
//! compile it out entirely with the `off` cargo feature (every recording
//! path becomes a constant-false branch). When disabled, the only cost
//! on a hot path is one relaxed atomic load — no allocation, no locking,
//! no clock reads — which is what keeps the training step's
//! zero-allocation audit intact.
//!
//! Results are exported by [`write_trace`] as `results/TRACE_<tag>.json`
//! (summary: span tree, counters, histograms) plus a `.jsonl` event log
//! of individual span completions.

pub mod codec;
mod json;
mod registry;

pub use json::{escape, validate, write_atomic, write_results, JsonRecord};
pub use registry::{Counter, HistSnapshot, Histogram, Snapshot, SpanSnapshot, HIST_BUCKETS};

use registry::{Event, CURRENT};
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// on/off switch
// ---------------------------------------------------------------------------

fn enabled_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let env_on = std::env::var("EOS_TRACE").is_ok_and(|v| v != "0" && !v.is_empty());
        AtomicBool::new(env_on)
    })
}

/// Is tracing currently recording? With the `off` feature this is a
/// compile-time `false`, so the optimiser deletes guarded call sites.
#[inline(always)]
pub fn enabled() -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    enabled_flag().load(Ordering::Relaxed)
}

/// Turns recording on or off at runtime. A no-op under the `off`
/// feature. Flipping the switch does not clear prior aggregates — call
/// [`reset`] for a clean slate.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

/// RAII guard returned by [`span`]; records elapsed time into the span
/// tree on drop. `!Send` — a span measures one thread's stack frame, and
/// the nesting bookkeeping is thread-local.
pub struct SpanGuard {
    /// `None` when tracing was disabled at entry: the guard is inert.
    live: Option<LiveSpan>,
    _not_send: PhantomData<*const ()>,
}

struct LiveSpan {
    stat: &'static registry::SpanStat,
    prev: usize,
    start: Instant,
}

/// Opens a span named `name` under the innermost span currently open on
/// this thread. Returns an inert guard when tracing is disabled; hold
/// the guard for the extent of the region being timed:
///
/// ```
/// let _epoch = eos_trace::span("train.epoch");
/// // ... the timed work ...
/// ```
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            live: None,
            _not_send: PhantomData,
        };
    }
    let parent = CURRENT.with(|c| c.get());
    let stat = registry::intern_span(parent, name);
    CURRENT.with(|c| c.set(stat.id));
    SpanGuard {
        live: Some(LiveSpan {
            stat,
            prev: parent,
            start: Instant::now(),
        }),
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur = live.start.elapsed();
        let dur_ns = dur.as_nanos() as u64;
        live.stat.record(dur_ns);
        CURRENT.with(|c| c.set(live.prev));
        registry::push_event(Event {
            span: live.stat.id,
            start_ns: registry::since_epoch_ns(live.start),
            dur_ns,
            thread: registry::thread_ordinal(),
        });
    }
}

// ---------------------------------------------------------------------------
// counters and histograms
// ---------------------------------------------------------------------------

/// Resolves (interning on first use) the counter `name`. The returned
/// handle is `'static`; cache it where a name lookup per call would
/// matter. Prefer [`count!`] at ordinary call sites — it caches the
/// handle and skips everything when tracing is disabled.
pub fn counter(name: &str) -> &'static Counter {
    registry::intern_counter(name)
}

/// Resolves (interning on first use) the histogram `name`. See
/// [`counter`] for the caching contract; prefer [`hist!`].
pub fn histogram(name: &str) -> &'static Histogram {
    registry::intern_hist(name)
}

/// Adds `$delta` to the counter `$name` when tracing is enabled. The
/// handle is resolved once per call site and cached in a static, so a
/// hot loop pays one relaxed load (disabled) or two (enabled) — never a
/// registry lookup.
#[macro_export]
macro_rules! count {
    ($name:expr, $delta:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            HANDLE.get_or_init(|| $crate::counter($name)).add($delta);
        }
    }};
}

/// Records `$value` into the histogram `$name` when tracing is enabled.
/// Same per-call-site handle caching as [`count!`].
#[macro_export]
macro_rules! hist {
    ($name:expr, $value:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::histogram($name))
                .record($value);
        }
    }};
}

// ---------------------------------------------------------------------------
// snapshot / reset / export
// ---------------------------------------------------------------------------

/// Point-in-time copy of all aggregates. Tests assert on this; the
/// exporters render it.
pub fn snapshot() -> Snapshot {
    registry::take_snapshot()
}

/// Zeroes every span/counter/histogram, clears the event buffer, and
/// restarts the event epoch. `'static` handles stay valid.
pub fn reset() {
    registry::reset_all();
}

/// Renders the summary (span tree, counters, histograms) as one JSON
/// object.
pub fn summary_json() -> String {
    let snap = snapshot();
    let mut spans = String::from("[");
    for (i, s) in snap.spans.iter().enumerate() {
        if i > 0 {
            spans.push_str(", ");
        }
        let mut r = JsonRecord::new();
        r.str("path", &s.path)
            .str("name", &s.name)
            .int("count", s.count)
            .int("total_ns", s.total_ns)
            .int("min_ns", s.min_ns)
            .int("max_ns", s.max_ns);
        match &s.parent {
            Some(p) => r.str("parent", p),
            None => r.raw("parent", "null"),
        };
        spans.push_str(r.render().trim_end());
    }
    spans.push(']');

    let mut counters = String::from("{");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            counters.push_str(", ");
        }
        counters.push_str(&format!("\"{}\": {}", escape(name), value));
    }
    counters.push('}');

    let mut hists = String::from("[");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            hists.push_str(", ");
        }
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .map(|&(b, n)| format!("[{b}, {n}]"))
            .collect();
        let mut r = JsonRecord::new();
        r.str("name", &h.name)
            .int("count", h.count)
            .int("sum", h.sum)
            .int("min", h.min)
            .int("max", h.max)
            .num("mean", h.mean())
            .raw("buckets", &format!("[{}]", buckets.join(", ")));
        hists.push_str(r.render().trim_end());
    }
    hists.push(']');

    let mut root = JsonRecord::new();
    root.str("schema", "eos-trace/1")
        .bool("enabled", enabled())
        .int("events_dropped", snap.events_dropped)
        .raw("spans", &spans)
        .raw("counters", &counters)
        .raw("histograms", &hists);
    root.render()
}

/// Renders the event log as JSONL: one JSON object per completed span
/// occurrence, in completion order.
pub fn events_jsonl() -> String {
    let mut out = String::new();
    for (path, start_ns, dur_ns, thread) in registry::take_events() {
        out.push_str(&format!(
            "{{\"span\": \"{}\", \"start_ns\": {start_ns}, \"dur_ns\": {dur_ns}, \"thread\": {thread}}}\n",
            escape(&path)
        ));
    }
    out
}

/// Writes the summary to `results/TRACE_<tag>.json` and the event log to
/// `results/TRACE_<tag>.jsonl`. Returns both paths, or `None` if either
/// write failed (a warning is printed; the computation is not aborted).
pub fn write_trace(tag: &str) -> Option<(PathBuf, PathBuf)> {
    let summary = write_results(&format!("TRACE_{tag}.json"), &summary_json())?;
    let events = write_results(&format!("TRACE_{tag}.jsonl"), &events_jsonl())?;
    Some((summary, events))
}

// ---------------------------------------------------------------------------
// duration formatting (shared with the bench harness)
// ---------------------------------------------------------------------------

/// Human-readable duration: `1.234 ms`, `56.7 µs`, `2.345 s`.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; tests that reset and assert on it
    /// must not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        g
    }

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed() < Duration::from_micros(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_aggregate_hierarchically() {
        let _g = guard();
        for _ in 0..3 {
            let _outer = span("outer");
            spin(50);
            for _ in 0..2 {
                let _inner = span("inner");
                spin(20);
            }
        }
        let snap = snapshot();
        let outer = snap.span("outer").expect("outer recorded");
        assert_eq!(outer.count, 3);
        assert!(outer.parent.is_none());
        let inner = snap.span("outer/inner").expect("inner nested under outer");
        assert_eq!(inner.count, 6);
        assert_eq!(inner.parent.as_deref(), Some("outer"));
        assert!(
            outer.total_ns >= inner.total_ns,
            "parent time {} must cover child time {}",
            outer.total_ns,
            inner.total_ns
        );
        assert!(outer.min_ns <= outer.max_ns);
        assert_eq!(snap.children_of("outer").len(), 1);
        set_enabled(false);
    }

    #[test]
    fn same_name_under_different_parents_is_two_nodes() {
        let _g = guard();
        {
            let _a = span("phase_a");
            let _s = span("step");
        }
        {
            let _b = span("phase_b");
            let _s = span("step");
        }
        let snap = snapshot();
        assert!(snap.span("phase_a/step").is_some());
        assert!(snap.span("phase_b/step").is_some());
        assert!(snap.span("step").is_none(), "no root-level `step` node");
        set_enabled(false);
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        set_enabled(false);
        {
            let _s = span("ghost");
            count!("ghost.counter", 5);
            hist!("ghost.hist", 42);
        }
        let snap = snapshot();
        assert!(snap.span("ghost").is_none());
        assert_eq!(snap.counter("ghost.counter"), 0);
        assert!(snap.histogram("ghost.hist").is_none());
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let _g = guard();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        count!("xthread.total", 2);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(snapshot().counter("xthread.total"), 8000);
        set_enabled(false);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let _g = guard();
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for v in [0u64, 1, 3, 4, 1000] {
            hist!("bits", v);
        }
        let snap = snapshot();
        let h = snap.histogram("bits").expect("recorded");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1008);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        let total: u64 = h.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 5);
        assert!(h.buckets.iter().any(|&(b, n)| b == 10 && n == 1)); // 1000
        assert!((h.mean() - 201.6).abs() < 1e-9);
        set_enabled(false);
    }

    #[test]
    fn reset_zeroes_but_handles_survive() {
        let _g = guard();
        let c = counter("reset.me");
        c.add(7);
        let _s = span("reset.span");
        drop(_s);
        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("reset.me"), 0);
        assert!(snap.span("reset.span").is_none());
        c.add(3);
        assert_eq!(snapshot().counter("reset.me"), 3);
        set_enabled(false);
    }

    #[test]
    fn summary_and_events_are_valid_json() {
        let _g = guard();
        {
            let _p = span("json.outer \"quoted\"");
            let _q = span("json.inner");
            count!("json.counter", 1);
            hist!("json.hist", 123);
        }
        let summary = summary_json();
        validate(&summary).expect("summary must be valid JSON");
        assert!(summary.contains("eos-trace/1"));
        let events = events_jsonl();
        assert!(!events.is_empty());
        for line in events.lines() {
            validate(line).expect("every JSONL line must be valid JSON");
        }
        set_enabled(false);
    }

    #[test]
    fn events_nest_plausibly() {
        let _g = guard();
        {
            let _outer = span("ev.outer");
            spin(30);
            let _inner = span("ev.inner");
            spin(30);
        }
        let events = registry::take_events();
        let outer = events.iter().find(|e| e.0 == "ev.outer").unwrap();
        let inner = events.iter().find(|e| e.0 == "ev.outer/ev.inner").unwrap();
        assert!(inner.1 >= outer.1, "inner starts after outer");
        assert!(
            inner.1 + inner.2 <= outer.1 + outer.2,
            "inner ends before outer"
        );
        set_enabled(false);
    }

    #[test]
    fn format_duration_picks_units() {
        assert_eq!(format_duration(Duration::from_nanos(999)), "999 ns");
        assert_eq!(format_duration(Duration::from_micros(5)), "5.0 µs");
        assert_eq!(format_duration(Duration::from_millis(12)), "12.000 ms");
        assert_eq!(format_duration(Duration::from_secs(3)), "3.000 s");
    }
}
