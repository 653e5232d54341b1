//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Nothing inside the program is instrumented: a span wraps one call the
//! benchmark makes into a crate (encode, socket read, `schedule_request`,
//! `SlottedRun::run`, ...). Spans nest per thread, so a layer's self time
//! is its span time minus the time of the spans opened inside it (the sim
//! engine's self time excludes the `core` calls it makes through the
//! benchmark's protocol wrapper). Each thread keeps its spans in memory
//! and hands them over when it ends; nothing is written until the run is
//! over. With tracing off a span is one relaxed load and a direct call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static DONE: Mutex<Vec<ThreadSpans>> = Mutex::new(Vec::new());
static RAW: Mutex<Vec<(String, Vec<Span>)>> = Mutex::new(Vec::new());

/// Raw spans kept per thread and in all for the span file; the aggregates
/// cover every span.
const RAW_CAP: usize = 20_000;
const RAW_TOTAL_CAP: usize = 50_000;

/// One recorded span: which call, when, and the span it ran inside.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span in the same thread's raw list.
    pub parent: Option<usize>,
}

/// Totals for one `(layer, call)` pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64
    }
}

#[derive(Debug, Default)]
pub struct ThreadSpans {
    pub thread: String,
    pub raw: Vec<Span>,
    pub agg: BTreeMap<(&'static str, &'static str), Agg>,
}

struct Open {
    raw_idx: Option<usize>,
    child_ns: u64,
}

#[derive(Default)]
struct Local {
    spans: ThreadSpans,
    stack: Vec<Open>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span of `layer`/`name` when tracing is on.
#[inline]
pub fn span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let epoch = *EPOCH.get().expect("epoch set by enable");
    let start = Instant::now();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().and_then(|o| o.raw_idx);
        let raw_idx = (l.spans.raw.len() < RAW_CAP).then(|| {
            l.spans.raw.push(Span {
                layer,
                name,
                start_ns: start.duration_since(epoch).as_nanos() as u64,
                dur_ns: 0,
                parent,
            });
            l.spans.raw.len() - 1
        });
        l.stack.push(Open {
            raw_idx,
            child_ns: 0,
        });
    });
    let out = f();
    let dur = start.elapsed().as_nanos() as u64;
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let open = l.stack.pop().expect("span stack balanced");
        if let Some(parent) = l.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.raw_idx {
            l.spans.raw[i].dur_ns = dur;
        }
        let agg = l.spans.agg.entry((layer, name)).or_default();
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
    });
    out
}

/// Hands this thread's spans to the run; call once when a traced thread ends.
pub fn flush_thread() {
    if !enabled() {
        return;
    }
    let mut spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if spans.agg.is_empty() {
        return;
    }
    spans.thread = std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_owned();
    DONE.lock().expect("span list lock").push(spans);
}

/// Every thread's span totals since the last call, after [`flush_thread`]
/// ran on each. Raw spans move to the list [`write_raw`] writes out.
pub fn take_all() -> Vec<ThreadSpans> {
    flush_thread();
    let mut threads = std::mem::take(&mut *DONE.lock().expect("span list lock"));
    let mut raw = RAW.lock().expect("raw span lock");
    for t in &mut threads {
        let kept: usize = raw.iter().map(|(_, spans)| spans.len()).sum();
        let mut spans = std::mem::take(&mut t.raw);
        spans.truncate(RAW_TOTAL_CAP.saturating_sub(kept));
        if !spans.is_empty() {
            raw.push((t.thread.clone(), spans));
        }
    }
    threads
}

/// Writes every kept raw span as one JSON object per line.
pub fn write_raw(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in RAW.lock().expect("raw span lock").iter() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"call\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.layer, s.name, s.start_ns, s.dur_ns
            )?;
        }
    }
    out.flush()
}

/// Totals per `(layer, call)` across threads.
pub fn aggregate(threads: &[ThreadSpans]) -> BTreeMap<(&'static str, &'static str), Agg> {
    let mut out: BTreeMap<_, Agg> = BTreeMap::new();
    for t in threads {
        for (key, a) in &t.agg {
            let e = out.entry(*key).or_default();
            e.calls += a.calls;
            e.total_ns += a.total_ns;
            e.self_ns += a.self_ns;
        }
    }
    out
}

/// Totals of one call across threads.
pub fn call(aggs: &BTreeMap<(&'static str, &'static str), Agg>, layer: &str, name: &str) -> Agg {
    aggs.iter()
        .find(|((l, n), _)| *l == layer && *n == name)
        .map(|(_, a)| *a)
        .unwrap_or_default()
}
