//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each crate's public functions: name, start, end, parent span, request id
//! and recording thread. They stay in memory until the run ends, are then
//! written out as one tab-separated line per span, and reduced to per-layer
//! self times (a span's duration minus the part its child spans cover).
//!
//! With tracing off, [`Tracer::span`] only calls the closure, so the
//! untraced end-to-end run pays one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans on this thread (innermost last): the parent of the next.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Small per-thread ordinal so lanes can be told apart in the output.
    static THREAD: RefCell<u64> = const { RefCell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_ordinal() -> u64 {
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        if *t == 0 {
            *t = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        }
        *t
    })
}

/// Span and counter sink shared by every thread of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Run `f` inside a span named `name` (`layer.call`) for `request`.
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter(name, request);
        f()
    }

    /// Open a span that closes when the guard drops (for calls whose
    /// result borrows from the caller, which a closure cannot return).
    pub fn enter(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanGuard {
            open: Some((self, id, parent, name, request, start_ns)),
        }
    }

    /// Add `n` to the counter `name` (recorded only when tracing).
    pub fn count(&self, name: &'static str, n: u64) {
        if self.enabled {
            *self
                .counters
                .lock()
                .expect("counter lock")
                .entry(name)
                .or_insert(0) += n;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("counter lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Write every span as `id parent thread request name start_ns end_ns`.
    pub fn write_out(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tthread\trequest\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.thread, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An open span; recorded when dropped.
pub struct SpanGuard<'t> {
    open: Option<(&'t Tracer, u64, u64, &'static str, u64, u64)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((tracer, id, parent, name, request, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = tracer.epoch.elapsed().as_nanos() as u64;
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            request,
            thread: thread_ordinal(),
            start_ns,
            end_ns,
        };
        if let Ok(mut spans) = tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time per span: its duration minus the time its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_insert(0) += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.clone(), s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Summed self time, in seconds, of every span named `name`.
pub fn self_secs(selfs: &[(Span, u64)], name: &str) -> f64 {
    selfs
        .iter()
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| *ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Self time on the blocking path of a run: spans on the calling thread
/// count in full, and of the worker threads only the busiest lane counts
/// (the parallel phase ends when its slowest worker does). `root` names
/// the benchmark's own enclosing spans, which are excluded.
pub fn blocking_path_secs(selfs: &[(Span, u64)], main_thread: u64, root: &str) -> f64 {
    let mut main = 0u64;
    let mut lanes: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, ns) in selfs {
        if s.name == root {
            continue;
        }
        if s.thread == main_thread {
            main += ns;
        } else {
            *lanes.entry(s.thread).or_insert(0) += ns;
        }
    }
    (main + lanes.values().copied().max().unwrap_or(0)) as f64 / 1e9
}

/// The calling thread's ordinal (for [`blocking_path_secs`]).
pub fn current_thread() -> u64 {
    thread_ordinal()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("outer", 0, || {
            t.span("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let selfs = self_times(&spans);
        let inner = self_secs(&selfs, "inner");
        let outer = self_secs(&selfs, "outer");
        assert!(inner >= 0.02);
        assert!(outer < inner, "outer self {outer} vs inner {inner}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 1, || 7), 7);
        t.count("c", 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0);
    }
}
