//! Streaming telemetry for the CONGEST engine and the DHC runners.
//!
//! The crate defines the **pure-observation** side of the workspace: a
//! [`Collector`] receives per-round engine events and span open/close
//! notifications, and may aggregate them into histograms, heartbeat
//! lines, or JSONL run records — but it can never influence the
//! simulation. The engine drives a collector only from its commit-fold
//! bookkeeping (the same contract as the k-machine accounting layer), so
//! a collector-attached run is **bit-identical** to a detached one. At
//! Phase-1 `parallelism` above 1, class networks on several threads
//! drive one collector at once, and its deterministic aggregates are
//! still identical at every level; `crates/core/tests/obs_equivalence.rs`
//! pins both.
//!
//! Determinism is split deliberately:
//!
//! * **Deterministic**: everything derived from engine events — counts,
//!   [`Hist`] log2-bucketed histograms and their integer-rank
//!   percentiles (`p50`/`p90`/`p99`), span parentage, span
//!   round/message/word totals. These are pure functions of the run.
//! * **Wall-clock only**: span `wall_ns` timings, heartbeat pacing, and
//!   JSONL `elapsed_ms` fields. They live strictly outside the
//!   determinism-checked state and never feed back into it.
//!
//! # Example
//!
//! ```
//! use dhc_obs::{Collector, CollectorHandle, RoundObs, Span};
//!
//! #[derive(Default)]
//! struct CountRounds(u64);
//! impl Collector for CountRounds {
//!     fn on_round(&mut self, _round: &RoundObs<'_>) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let handle = CollectorHandle::new(CountRounds::default());
//! let mut span = Span::root(Some(&handle), "run", "demo");
//! span.add(3, 120, 480); // rounds, messages, words
//! drop(span);            // closes the span on the collector
//! assert!(handle.with(|_c| true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
pub mod json;
pub mod schema;
mod sink;

pub use hist::Hist;
pub use sink::{Manifest, ObsCounters, RunObserver};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Realized fault activity of one committed round (all zero on clean
/// runs): per-delivery fates as drawn by the adversary layer, plus the
/// round's crash/restart schedule events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultObs {
    /// Deliveries the adversary dropped: charged to the sender, lost in
    /// transit.
    pub dropped: u64,
    /// Deliveries duplicated in transit (staged twice).
    pub duplicated: u64,
    /// Deliveries parked in the delay queue for a later round.
    pub delayed: u64,
    /// Nodes that crashed at the start of this round.
    pub crashes: u64,
    /// Nodes that restarted at the start of this round.
    pub restarts: u64,
}

impl FaultObs {
    /// Whether any fault was realized this round.
    pub fn any(&self) -> bool {
        self.dropped + self.duplicated + self.delayed + self.crashes + self.restarts > 0
    }
}

/// One committed engine round, as observed by the commit fold.
///
/// Every field is a pure function of the simulated execution (the
/// engine computes them from state it maintains anyway), so any
/// aggregate a collector derives from these events is deterministic.
/// Round `0` is the `init` phase; it has no deliveries.
#[derive(Debug, Clone, Copy)]
pub struct RoundObs<'a> {
    /// The simulated round number (`0` = the `init` phase).
    pub round: usize,
    /// Nodes that executed their callback this round (activated nodes
    /// minus halted/crashed ones, which consume mail without running).
    pub executed: usize,
    /// Messages delivered into inboxes at the start of this round.
    pub delivered: u64,
    /// `(node, inbox length)` for every activated node, ascending by
    /// node id — the raw material of the inbox-size histogram. Empty
    /// for round 0.
    pub inbox: &'a [(u32, usize)],
    /// Per-executed-node protocol compute charges (`ctx.charge`) in
    /// `executed` order. Empty when no collector pre-pass ran.
    pub compute: &'a [u64],
    /// Unicast send *operations* committed this round.
    pub unicast_ops: u64,
    /// Broadcast *operations* (`send_all` / `send_all_except`) committed
    /// this round — payloads, not per-edge copies.
    pub broadcast_ops: u64,
    /// Per-directed-edge messages charged this round (broadcasts count
    /// once per addressed neighbor).
    pub messages: u64,
    /// Message-words charged this round.
    pub words: u64,
    /// Wake-ups scheduled by this round's callbacks.
    pub wakes_scheduled: u64,
    /// Nodes that halted this round.
    pub halts: u64,
    /// Realized fault activity (all zero on clean runs).
    pub faults: FaultObs,
    /// This round's directed machine-pair link loads
    /// (`(link index, words)`, ascending) when the k-machine accounting
    /// layer is attached; empty otherwise.
    pub machine_links: &'a [(u32, u64)],
}

/// Identity of one span: spans form the `run → phase → class /
/// merge-level → round window` hierarchy via [`parent`](Self::parent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanObs {
    /// Unique id within the [`CollectorHandle`]'s lifetime (allocation
    /// order; concurrent opens race for ids but parentage is explicit).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Span kind: `"run"`, `"phase"`, `"class"`, `"merge-level"`, or a
    /// caller-defined kind.
    pub kind: &'static str,
    /// Human-readable label (e.g. `"class 3 n=120"`).
    pub label: String,
}

/// Closing summary of a span. `wall_ns` is wall-clock (measured by the
/// [`Span`] guard, outside all determinism-checked state); the totals
/// are simulated quantities supplied by the runner via [`Span::add`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanClose {
    /// Wall-clock duration between open and close, in nanoseconds.
    pub wall_ns: u64,
    /// Simulated rounds attributed to this span.
    pub rounds: u64,
    /// Messages attributed to this span.
    pub messages: u64,
    /// Message-words attributed to this span.
    pub words: u64,
}

/// A telemetry consumer. All methods default to no-ops so a collector
/// implements only what it needs.
///
/// Collectors are driven from the engine's round bookkeeping and from
/// runner span guards; they observe the execution but can
/// never influence it. Implementations must be `Send` (Phase-1 class
/// simulations may run on worker threads, sharing one collector behind
/// the handle's mutex).
pub trait Collector: Send {
    /// One committed engine round (round 0 is `init`).
    fn on_round(&mut self, round: &RoundObs<'_>) {
        let _ = round;
    }
    /// A span opened.
    fn on_span_open(&mut self, span: &SpanObs) {
        let _ = span;
    }
    /// A span closed.
    fn on_span_close(&mut self, span: &SpanObs, close: &SpanClose) {
        let _ = (span, close);
    }
    /// Flush any buffered output (JSONL sinks write their histogram
    /// records here).
    fn flush(&mut self) {}
}

/// Delegating impl so a run can share its collector with the caller:
/// build an `Arc<Mutex<RunObserver>>`, hand a clone to
/// [`CollectorHandle::new`], and read the aggregates back out after the
/// run through the other clone.
impl<C: Collector> Collector for Arc<Mutex<C>> {
    fn on_round(&mut self, round: &RoundObs<'_>) {
        self.lock().unwrap_or_else(PoisonError::into_inner).on_round(round);
    }
    fn on_span_open(&mut self, span: &SpanObs) {
        self.lock().unwrap_or_else(PoisonError::into_inner).on_span_open(span);
    }
    fn on_span_close(&mut self, span: &SpanObs, close: &SpanClose) {
        self.lock().unwrap_or_else(PoisonError::into_inner).on_span_close(span, close);
    }
    fn flush(&mut self) {
        self.lock().unwrap_or_else(PoisonError::into_inner).flush();
    }
}

struct HandleInner {
    next_span: AtomicU64,
    collector: Mutex<Box<dyn Collector>>,
}

/// A cloneable, thread-safe handle to one [`Collector`].
///
/// The handle is what configurations carry: it is `Clone` (shared
/// reference), and `PartialEq`/`Eq` compare **identity** (two handles
/// are equal iff they share the same collector), so config structs that
/// derive `Eq` keep deriving it.
#[derive(Clone)]
pub struct CollectorHandle {
    inner: Arc<HandleInner>,
}

impl CollectorHandle {
    /// Wraps a collector for sharing.
    pub fn new(collector: impl Collector + 'static) -> Self {
        CollectorHandle {
            inner: Arc::new(HandleInner {
                next_span: AtomicU64::new(1),
                collector: Mutex::new(Box::new(collector)),
            }),
        }
    }

    /// Runs `f` with exclusive access to the collector. A poisoned lock
    /// (a collector panicked) is recovered — telemetry must never take
    /// the simulation down with it.
    pub fn with<R>(&self, f: impl FnOnce(&mut dyn Collector) -> R) -> R {
        let mut guard = self.inner.collector.lock().unwrap_or_else(PoisonError::into_inner);
        f(guard.as_mut())
    }

    /// Flushes the collector's buffered output.
    pub fn flush(&self) {
        self.with(|c| c.flush());
    }

    fn next_span_id(&self) -> u64 {
        self.inner.next_span.fetch_add(1, Ordering::Relaxed)
    }
}

impl PartialEq for CollectorHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for CollectorHandle {}

impl std::fmt::Debug for CollectorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CollectorHandle({:p})", Arc::as_ptr(&self.inner))
    }
}

/// RAII span guard: opens on construction, closes (with wall-clock
/// duration and accumulated totals) on drop. A disabled span — built
/// from a `None` handle — is a zero-cost no-op, so runners open spans
/// unconditionally.
#[derive(Debug)]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    handle: CollectorHandle,
    obs: SpanObs,
    start: Instant,
    rounds: u64,
    messages: u64,
    words: u64,
}

impl Span {
    /// Opens a root span on `handle` (disabled when `handle` is `None`).
    pub fn root(
        handle: Option<&CollectorHandle>,
        kind: &'static str,
        label: impl Into<String>,
    ) -> Span {
        Span::open(handle.cloned(), None, kind, label.into())
    }

    /// A permanently disabled span (for callers without a collector).
    pub fn disabled() -> Span {
        Span { active: None }
    }

    /// Opens a child of this span (disabled when this span is).
    pub fn child(&self, kind: &'static str, label: impl Into<String>) -> Span {
        match &self.active {
            Some(a) => Span::open(Some(a.handle.clone()), Some(a.obs.id), kind, label.into()),
            None => Span::disabled(),
        }
    }

    fn open(
        handle: Option<CollectorHandle>,
        parent: Option<u64>,
        kind: &'static str,
        label: String,
    ) -> Span {
        let Some(handle) = handle else { return Span::disabled() };
        let obs = SpanObs { id: handle.next_span_id(), parent, kind, label };
        handle.with(|c| c.on_span_open(&obs));
        Span {
            active: Some(ActiveSpan {
                handle,
                obs,
                start: Instant::now(),
                rounds: 0,
                messages: 0,
                words: 0,
            }),
        }
    }

    /// Adds simulated totals to the span's closing summary.
    pub fn add(&mut self, rounds: u64, messages: u64, words: u64) {
        if let Some(a) = &mut self.active {
            a.rounds += rounds;
            a.messages += messages;
            a.words += words;
        }
    }

    /// The span id, when enabled.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.obs.id)
    }

    /// Whether the span reports to a collector.
    pub fn is_enabled(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let close = SpanClose {
                wall_ns: a.start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                rounds: a.rounds,
                messages: a.messages,
                words: a.words,
            };
            a.handle.with(|c| c.on_span_close(&a.obs, &close));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Opens = Arc<Mutex<Vec<(u64, Option<u64>, &'static str, String)>>>;
    type Closes = Arc<Mutex<Vec<(u64, u64, u64, u64)>>>;

    #[derive(Clone, Default)]
    struct Recorder {
        opens: Opens,
        closes: Closes,
    }

    impl Collector for Recorder {
        fn on_span_open(&mut self, span: &SpanObs) {
            self.opens.lock().unwrap().push((span.id, span.parent, span.kind, span.label.clone()));
        }
        fn on_span_close(&mut self, span: &SpanObs, close: &SpanClose) {
            self.closes.lock().unwrap().push((span.id, close.rounds, close.messages, close.words));
        }
    }

    #[test]
    fn spans_nest_and_close_with_totals() {
        let rec = Recorder::default();
        let handle = CollectorHandle::new(rec.clone());
        {
            let mut run = Span::root(Some(&handle), "run", "dra");
            run.add(10, 100, 400);
            let mut phase = run.child("phase", "phase1");
            phase.add(7, 70, 280);
            let class = phase.child("class", "class 0");
            assert!(class.is_enabled());
            assert_ne!(class.id(), phase.id());
        }
        let opens = rec.opens.lock().unwrap().clone();
        assert_eq!(opens.len(), 3);
        let (run_id, run_parent, run_kind, _) = opens[0].clone();
        let (phase_id, phase_parent, ..) = opens[1];
        let (_, class_parent, class_kind, class_label) = opens[2].clone();
        assert_eq!(run_parent, None);
        assert_eq!(run_kind, "run");
        assert_eq!(phase_parent, Some(run_id));
        assert_eq!(class_parent, Some(phase_id));
        assert_eq!(class_kind, "class");
        assert_eq!(class_label, "class 0");

        // Spans close innermost-first, carrying the totals from add().
        let closes = rec.closes.lock().unwrap().clone();
        assert_eq!(closes.len(), 3);
        assert_eq!(closes[1], (phase_id, 7, 70, 280));
        assert_eq!(closes[2], (run_id, 10, 100, 400));
    }

    #[test]
    fn disabled_spans_are_free_and_inert() {
        let mut s = Span::root(None, "run", "nothing");
        assert!(!s.is_enabled());
        assert_eq!(s.id(), None);
        s.add(1, 2, 3);
        let child = s.child("phase", "still nothing");
        assert!(!child.is_enabled());
    }

    #[test]
    fn handle_equality_is_identity() {
        let a = CollectorHandle::new(Recorder::default());
        let b = a.clone();
        let c = CollectorHandle::new(Recorder::default());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(format!("{a:?}").starts_with("CollectorHandle("));
    }
}
