//! Structured span/event tracer: one JSON object per line to an installed
//! sink.
//!
//! Every emitted line carries:
//!
//! * `ts_us` — microseconds since the process's first trace activity
//!   (monotonic, from a single [`Instant`] epoch, so timestamps across
//!   threads are directly comparable),
//! * `thread` — a small stable per-thread ID,
//! * `ev` — `"event"`, `"span_start"` or `"span_end"`,
//! * `kind` — the dotted event name (`gc.private`, `scheme.launch`, …),
//! * the ambient [`Context`] — `pair`, `pair_name`, `scheme` and the
//!   enclosing span ID as `parent` — plus any call-site fields.
//!
//! Spans are RAII guards: [`span`] emits `span_start` and returns a
//! [`Span`] whose [`end`](Span::end) (or drop) emits `span_end` with
//! `dur_us`. The guard also installs itself as the thread's `parent` so
//! nested spans and events correlate without plumbing. Cross-thread nesting
//! is explicit: capture [`current_context`] on the spawning thread and
//! install it with [`with_context`] inside the worker.
//!
//! When no sink is installed ([`enabled`] is false) every entry point
//! reduces to one relaxed atomic load and a branch. The writer is a global
//! mutex — coarse, but tracing is opt-in and line-buffered writes under the
//! lock keep lines whole under concurrency.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn sink() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static SINK: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static CTX: RefCell<Context> = RefCell::new(Context::default());
}

/// Is a trace sink installed? One relaxed load — the only cost the
/// instrumented hot paths pay when tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs a JSONL sink and enables tracing. Replaces (and flushes) any
/// previous sink.
pub fn install_writer(writer: Box<dyn Write + Send>) {
    epoch(); // pin the timestamp epoch no later than the first sink
    let mut guard = sink().lock().unwrap_or_else(|p| p.into_inner());
    if let Some(mut old) = guard.take() {
        let _ = old.flush();
    }
    *guard = Some(writer);
    ENABLED.store(true, Ordering::Release);
}

/// Opens `path` for writing (truncating) and installs it as the trace sink.
pub fn install_file(path: &Path) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    install_writer(Box::new(BufWriter::new(file)));
    Ok(())
}

/// Disables tracing, flushes and returns the sink (tests inspect buffers
/// this way). No-op returning `None` when tracing was not enabled.
pub fn uninstall() -> Option<Box<dyn Write + Send>> {
    ENABLED.store(false, Ordering::Release);
    let mut guard = sink().lock().unwrap_or_else(|p| p.into_inner());
    let mut writer = guard.take()?;
    let _ = writer.flush();
    Some(writer)
}

/// Flushes the sink if one is installed.
pub fn flush() {
    if let Some(writer) = sink().lock().unwrap_or_else(|p| p.into_inner()).as_mut() {
        let _ = writer.flush();
    }
}

/// One field value on a trace line. Build via the `From` impls:
/// `("reclaimed", n.into())`.
#[derive(Debug, Clone)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float — non-finite values are emitted as `null` (valid JSON always).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Borrowed static string.
    Str(&'static str),
    /// Owned string.
    String(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::String(v)
    }
}
impl From<Duration> for FieldValue {
    /// Durations are emitted as integer microseconds.
    fn from(v: Duration) -> Self {
        FieldValue::U64(v.as_micros() as u64)
    }
}

/// The ambient correlation IDs attached to every line a thread emits.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// Batch pair index this thread is working on.
    pub pair: Option<u64>,
    /// Human-readable pair name (shared, cloning is one refcount).
    pub pair_name: Option<Arc<str>>,
    /// Scheme the thread is executing.
    pub scheme: Option<&'static str>,
    /// Enclosing span ID (maintained by [`Span`] guards on this thread, or
    /// inherited explicitly across a spawn).
    pub parent: Option<u64>,
}

impl Context {
    /// This context with the scheme replaced — for handing to a worker.
    pub fn with_scheme(mut self, scheme: &'static str) -> Context {
        self.scheme = Some(scheme);
        self
    }
}

/// Snapshot of the calling thread's current context (to hand to a worker
/// thread via [`with_context`]).
pub fn current_context() -> Context {
    CTX.with(|ctx| ctx.borrow().clone())
}

/// Installs `context` on the calling thread until the guard drops (the
/// previous context is restored).
pub fn with_context(context: Context) -> ContextGuard {
    let previous = CTX.with(|ctx| std::mem::replace(&mut *ctx.borrow_mut(), context));
    ContextGuard { previous }
}

/// Restores the previous [`Context`] on drop.
#[must_use = "dropping the guard immediately restores the previous context"]
pub struct ContextGuard {
    previous: Context,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let previous = std::mem::take(&mut self.previous);
        let _ = CTX.try_with(|ctx| *ctx.borrow_mut() = previous);
    }
}

fn push_json_str(line: &mut String, value: &str) {
    line.push('"');
    for c in value.chars() {
        match c {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            '\n' => line.push_str("\\n"),
            '\r' => line.push_str("\\r"),
            '\t' => line.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(line, "\\u{:04x}", c as u32);
            }
            c => line.push(c),
        }
    }
    line.push('"');
}

fn push_field(line: &mut String, key: &str, value: &FieldValue) {
    line.push(',');
    push_json_str(line, key);
    line.push(':');
    match value {
        FieldValue::U64(v) => {
            let _ = write!(line, "{v}");
        }
        FieldValue::I64(v) => {
            let _ = write!(line, "{v}");
        }
        FieldValue::F64(v) if v.is_finite() => {
            let _ = write!(line, "{v}");
        }
        FieldValue::F64(_) => line.push_str("null"),
        FieldValue::Bool(v) => {
            let _ = write!(line, "{v}");
        }
        FieldValue::Str(v) => push_json_str(line, v),
        FieldValue::String(v) => push_json_str(line, v),
    }
}

fn emit_line(
    ev: &str,
    kind: &str,
    span_id: Option<u64>,
    parent_override: Option<u64>,
    fields: &[(&'static str, FieldValue)],
) {
    let ts_us = now_us();
    let thread = THREAD_ID.try_with(|id| *id).unwrap_or(0);
    let mut line = String::with_capacity(128);
    let _ = write!(line, "{{\"ts_us\":{ts_us},\"thread\":{thread},\"ev\":");
    push_json_str(&mut line, ev);
    line.push_str(",\"kind\":");
    push_json_str(&mut line, kind);
    if let Some(id) = span_id {
        let _ = write!(line, ",\"span\":{id}");
    }
    let _ = CTX.try_with(|ctx| {
        let ctx = ctx.borrow();
        if let Some(pair) = ctx.pair {
            let _ = write!(line, ",\"pair\":{pair}");
        }
        if let Some(name) = &ctx.pair_name {
            line.push_str(",\"pair_name\":");
            push_json_str(&mut line, name);
        }
        if let Some(scheme) = ctx.scheme {
            line.push_str(",\"scheme\":");
            push_json_str(&mut line, scheme);
        }
        let parent = parent_override.or(ctx.parent);
        if let Some(parent) = parent {
            if Some(parent) != span_id {
                let _ = write!(line, ",\"parent\":{parent}");
            }
        }
    });
    for (key, value) in fields {
        push_field(&mut line, key, value);
    }
    line.push_str("}\n");

    let mut guard = sink().lock().unwrap_or_else(|p| p.into_inner());
    if let Some(writer) = guard.as_mut() {
        if writer.write_all(line.as_bytes()).is_err() {
            // A dead sink (closed pipe, full disk) disables tracing instead
            // of failing every subsequent event.
            ENABLED.store(false, Ordering::Release);
            *guard = None;
        }
    }
}

/// Emits a point event. No-op (one load + branch) when tracing is off.
#[inline]
pub fn event(kind: &'static str, fields: &[(&'static str, FieldValue)]) {
    if !enabled() {
        return;
    }
    emit_line("event", kind, None, None, fields);
}

/// Starts a span: emits `span_start`, installs the span as the thread's
/// parent, and returns the guard. No-op guard when tracing is off.
#[inline]
pub fn span(kind: &'static str, fields: &[(&'static str, FieldValue)]) -> Span {
    if !enabled() {
        return Span {
            id: 0,
            kind,
            start_us: 0,
            prev_parent: None,
            armed: false,
        };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let prev_parent = CTX
        .try_with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let prev = ctx.parent;
            ctx.parent = Some(id);
            prev
        })
        .unwrap_or(None);
    let start_us = now_us();
    emit_line("span_start", kind, Some(id), prev_parent, fields);
    Span {
        id,
        kind,
        start_us,
        prev_parent,
        armed: true,
    }
}

/// RAII span guard: emits `span_end` (with `dur_us`) on [`end`](Span::end)
/// or drop, restoring the thread's previous parent span.
#[must_use = "dropping the span immediately ends it"]
pub struct Span {
    id: u64,
    kind: &'static str,
    start_us: u64,
    prev_parent: Option<u64>,
    armed: bool,
}

impl Span {
    /// The span's ID (0 for a disabled no-op span) — to hand to workers via
    /// [`Context::parent`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ends the span with extra fields on the `span_end` line.
    pub fn end(mut self, fields: &[(&'static str, FieldValue)]) {
        self.finish(fields);
    }

    fn finish(&mut self, fields: &[(&'static str, FieldValue)]) {
        if !self.armed {
            return;
        }
        self.armed = false;
        let _ = CTX.try_with(|ctx| ctx.borrow_mut().parent = self.prev_parent);
        let dur_us = now_us().saturating_sub(self.start_us);
        let mut all: Vec<(&'static str, FieldValue)> = Vec::with_capacity(fields.len() + 1);
        all.push(("dur_us", FieldValue::U64(dur_us)));
        all.extend_from_slice(fields);
        emit_line("span_end", self.kind, Some(self.id), self.prev_parent, &all);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish(&[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracing_emits_nothing_and_spans_are_inert() {
        // No sink installed in this process at this point: enabled() must be
        // false and all entry points must be no-ops.
        assert!(!enabled());
        event("test.event", &[("n", 1u64.into())]);
        let span = span("test.span", &[]);
        assert_eq!(span.id(), 0);
        span.end(&[("ok", true.into())]);
        assert!(uninstall().is_none());
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        let mut line = String::new();
        push_json_str(&mut line, "a\"b\\c\nd\te\u{1}");
        assert_eq!(line, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }
}
