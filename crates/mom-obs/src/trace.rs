//! Scoped span tracing with Chrome trace-event export.
//!
//! Tracing is off by default.  A disabled [`span`] costs one relaxed
//! atomic load and allocates nothing, which is what keeps instrumented
//! store/fill paths timing-neutral for the cycle-accurate benchmarks.
//! Once [`enable_tracing`] is called, each dropped [`Span`] records a
//! complete event (category, name, start offset, duration, thread id)
//! into a bounded ring buffer; when the buffer is full the oldest events
//! are overwritten and a dropped-event count is kept.
//!
//! [`export_chrome_trace`] serializes the buffer as Chrome trace-event
//! JSON (the `traceEvents` array form with `ph: "X"` complete events),
//! loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).

use crate::json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring-buffer capacity in events.  At ~100 bytes per event this bounds
/// trace memory to a few megabytes regardless of run length.
pub const RING_CAPACITY: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// One completed span in the ring.
#[derive(Debug, Clone)]
struct Event {
    cat: &'static str,
    name: String,
    start_micros: u64,
    dur_micros: u64,
    tid: u64,
}

struct Ring {
    events: Vec<Event>,
    /// Next write position once the ring has wrapped.
    head: usize,
    wrapped: bool,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            events: Vec::new(),
            head: 0,
            wrapped: false,
        })
    })
}

/// The zero point for span timestamps: set on first use (normally at
/// [`enable_tracing`]), so exported timestamps start near zero.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|tid| *tid)
}

/// Turns span recording on for the rest of the process lifetime.
pub fn enable_tracing() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of events currently held in the ring buffer.
pub fn trace_event_count() -> usize {
    let ring = ring().lock().expect("trace ring");
    ring.events.len()
}

/// A scoped timer.  Records a complete trace event when dropped; inert
/// (and allocation-free) when tracing is disabled.
#[derive(Debug)]
pub struct Span {
    active: Option<SpanData>,
}

#[derive(Debug)]
struct SpanData {
    cat: &'static str,
    name: String,
    start: Instant,
}

/// Opens a span in category `cat` named `name`.  The name is cloned only
/// when tracing is enabled.
pub fn span(cat: &'static str, name: &str) -> Span {
    if !tracing_enabled() {
        return Span { active: None };
    }
    Span {
        active: Some(SpanData {
            cat,
            name: name.to_string(),
            start: Instant::now(),
        }),
    }
}

/// Opens a span whose name is built lazily — the closure runs only when
/// tracing is enabled, so formatting costs nothing on the common path.
pub fn span_fmt<F: FnOnce() -> String>(cat: &'static str, name: F) -> Span {
    if !tracing_enabled() {
        return Span { active: None };
    }
    Span {
        active: Some(SpanData {
            cat,
            name: name(),
            start: Instant::now(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.active.take() else {
            return;
        };
        let end = Instant::now();
        let start_micros = data.start.duration_since(epoch()).as_micros() as u64;
        let dur_micros = end.duration_since(data.start).as_micros() as u64;
        let event = Event {
            cat: data.cat,
            name: data.name,
            start_micros,
            dur_micros,
            tid: thread_id(),
        };
        let mut ring = ring().lock().expect("trace ring");
        if ring.events.len() < RING_CAPACITY {
            ring.events.push(event);
        } else {
            let head = ring.head;
            ring.events[head] = event;
            ring.head = (head + 1) % RING_CAPACITY;
            ring.wrapped = true;
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Serializes the ring buffer as Chrome trace-event JSON.  Events are
/// emitted oldest-first; if the ring wrapped, a `momsim_dropped_events`
/// metadata count records how many were lost.
pub fn export_chrome_trace() -> String {
    let ring = ring().lock().expect("trace ring");
    let mut out = String::with_capacity(ring.events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    let order: Box<dyn Iterator<Item = &Event>> = if ring.wrapped {
        Box::new(
            ring.events[ring.head..]
                .iter()
                .chain(ring.events[..ring.head].iter()),
        )
    } else {
        Box::new(ring.events.iter())
    };
    let mut first = true;
    for event in order {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":");
        json::write_string(&mut out, &event.name);
        out.push_str(",\"cat\":");
        json::write_string(&mut out, event.cat);
        out.push_str(",\"ph\":\"X\",\"ts\":");
        out.push_str(&event.start_micros.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&event.dur_micros.to_string());
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&event.tid.to_string());
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"momsim_dropped_events\":");
    out.push_str(&DROPPED.load(Ordering::Relaxed).to_string());
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        // Tracing starts disabled; other tests in this module enable it,
        // so only assert the inert-span shape, not global counts.
        let span = Span { active: None };
        drop(span);
    }

    #[test]
    fn spans_record_and_export() {
        enable_tracing();
        let before = trace_event_count();
        {
            let _span = span("test", "unit-span");
            std::hint::black_box(());
        }
        {
            let _span = span_fmt("test", || format!("fmt-{}", 7));
        }
        assert!(trace_event_count() >= before + 2);
        let json = export_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"name\":\"unit-span\""), "{json}");
        assert!(json.contains("\"name\":\"fmt-7\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"displayTimeUnit\":\"ms\""), "{json}");
    }

    #[test]
    fn names_escape_into_valid_json() {
        enable_tracing();
        {
            let _span = span("test", "quote\"back\\slash\nline");
        }
        let json = export_chrome_trace();
        assert!(json.contains("quote\\\"back\\\\slash\\nline"), "{json}");
    }
}
