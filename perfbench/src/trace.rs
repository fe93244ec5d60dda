//! The traced run: a collector that keeps span and round events in
//! memory, and the per-layer split derived from them once a call ends.
//!
//! The benchmark is single-threaded, so the order of span open/close and
//! `on_round` events attributes every engine step to exactly one phase:
//! the innermost open `phase` or `merge-level` span. A *step* is the gap
//! between two successive `on_round` events of one network; round 0
//! (`init`) starts a network, and the time before it (construction plus
//! init) counts as network overhead, not as a step.

use dhc_obs::{Collector, RoundObs, SpanClose, SpanObs};
use std::time::Instant;

/// The phases the per-layer metrics are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1: the per-class DRA runs (DHC1 and DHC2).
    Phase1,
    /// The DHC1 hypernode stitch.
    Stitch,
    /// All DHC2 merge levels together.
    Merge,
    /// The Upcast run.
    Upcast,
}

impl Phase {
    /// Every phase, in metric order.
    pub const ALL: [Phase; 4] = [Phase::Phase1, Phase::Stitch, Phase::Merge, Phase::Upcast];

    /// The name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Phase1 => "phase1",
            Phase::Stitch => "stitch",
            Phase::Merge => "merge",
            Phase::Upcast => "upcast",
        }
    }

    /// The phase a span stands for, from its kind and label; `None` for
    /// run and class spans.
    fn of(kind: &str, label: &str) -> Option<Phase> {
        match kind {
            "merge-level" => Some(Phase::Merge),
            "phase" if label.starts_with("phase1") => Some(Phase::Phase1),
            "phase" if label.starts_with("hypernode-stitch") => Some(Phase::Stitch),
            "phase" if label == "upcast" => Some(Phase::Upcast),
            _ => None,
        }
    }
}

/// One recorded telemetry event.
#[derive(Debug)]
pub enum Event {
    /// A span opened.
    Open {
        /// Span id.
        id: u64,
        /// Enclosing span id.
        parent: Option<u64>,
        /// Span kind (`run`, `phase`, `class`, `merge-level`).
        kind: &'static str,
        /// Span label.
        label: String,
    },
    /// A span closed with its wall time and simulated totals.
    Close {
        /// Span id.
        id: u64,
        /// The closing summary.
        close: SpanClose,
    },
    /// One committed engine round.
    Round {
        /// Nanoseconds since the recorder was created.
        at_ns: u64,
        /// Simulated round number (0 = `init`).
        round: usize,
        /// Callbacks executed.
        executed: usize,
        /// Messages delivered.
        delivered: u64,
        /// Unicast send operations.
        unicast_ops: u64,
        /// Broadcast send operations.
        broadcast_ops: u64,
    },
}

/// A collector that records every event in memory and does nothing else.
#[derive(Debug)]
pub struct Recorder {
    start: Instant,
    /// Events in the order the program emitted them.
    pub events: Vec<Event>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { start: Instant::now(), events: Vec::new() }
    }
}

impl Collector for Recorder {
    fn on_round(&mut self, r: &RoundObs<'_>) {
        let at_ns = self.start.elapsed().as_nanos() as u64;
        self.events.push(Event::Round {
            at_ns,
            round: r.round,
            executed: r.executed,
            delivered: r.delivered,
            unicast_ops: r.unicast_ops,
            broadcast_ops: r.broadcast_ops,
        });
    }

    fn on_span_open(&mut self, span: &SpanObs) {
        self.events.push(Event::Open {
            id: span.id,
            parent: span.parent,
            kind: span.kind,
            label: span.label.clone(),
        });
    }

    fn on_span_close(&mut self, span: &SpanObs, close: &SpanClose) {
        self.events.push(Event::Close { id: span.id, close: *close });
    }
}

/// Simulated totals of a span: rounds, messages, words.
pub type Totals = [u64; 3];

/// What one phase did, summed over every span of that phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseSplit {
    /// Wall time of the phase spans.
    pub span_ns: u64,
    /// Simulated totals from span close.
    pub totals: Totals,
    /// Duration of every step.
    pub steps_ns: Vec<u64>,
    /// Callbacks executed, over all rounds including `init`.
    pub callbacks: u64,
    /// Messages delivered.
    pub deliveries: u64,
    /// Unicast send operations.
    pub unicast_ops: u64,
    /// Broadcast send operations.
    pub broadcast_ops: u64,
}

impl PhaseSplit {
    /// Total step time.
    pub fn step_ns(&self) -> u64 {
        self.steps_ns.iter().sum()
    }

    /// Phase time outside steps: network construction, init, finish and
    /// the runner's work between networks.
    pub fn overhead_ns(&self) -> u64 {
        self.span_ns - self.step_ns()
    }

    fn absorb(&mut self, other: &PhaseSplit) {
        self.span_ns += other.span_ns;
        for (a, b) in self.totals.iter_mut().zip(other.totals) {
            *a += b;
        }
        self.steps_ns.extend_from_slice(&other.steps_ns);
        self.callbacks += other.callbacks;
        self.deliveries += other.deliveries;
        self.unicast_ops += other.unicast_ops;
        self.broadcast_ops += other.broadcast_ops;
    }
}

/// The per-layer split of one or more traced calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Split {
    /// Traced calls absorbed.
    pub calls: u64,
    /// Per phase, indexed like [`Phase::ALL`].
    pub phases: [PhaseSplit; 4],
    /// Wall time of the run spans.
    pub run_ns: u64,
    /// Run spans minus their phase and merge-level children.
    pub run_self_ns: u64,
    /// Phase-1 spans minus their class children.
    pub phase1_self_ns: u64,
    /// Wall time of every class span.
    pub class_ns: Vec<u64>,
    /// Per call, the longest Upcast step with exactly one executed
    /// callback (the root's local Pósa solve), summed over calls.
    pub root_solve_ns: u64,
    /// Simulated totals of the run spans.
    pub run_totals: Totals,
}

impl Split {
    /// The split of one phase.
    pub fn phase(&self, p: Phase) -> &PhaseSplit {
        &self.phases[p as usize]
    }

    /// Adds another split (of further calls) to this one.
    pub fn absorb(&mut self, other: &Split) {
        self.calls += other.calls;
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            a.absorb(b);
        }
        self.run_ns += other.run_ns;
        self.run_self_ns += other.run_self_ns;
        self.phase1_self_ns += other.phase1_self_ns;
        self.class_ns.extend_from_slice(&other.class_ns);
        self.root_solve_ns += other.root_solve_ns;
        for (a, b) in self.run_totals.iter_mut().zip(other.run_totals) {
            *a += b;
        }
    }
}

/// A span still open while the events are replayed.
struct OpenSpan {
    id: u64,
    kind: &'static str,
    phase: Option<Phase>,
    /// Wall time of the closed direct children.
    children_ns: u64,
    /// Simulated totals of the closed phase and merge-level children.
    children_totals: Totals,
    /// Step time attributed to this span (phase spans only).
    step_ns: u64,
}

/// Replays the events of one traced call into its per-layer split, and
/// checks that the pieces close:
///
/// * spans nest: each opens inside its parent and closes before it;
/// * for every span, its children fit inside it, so child time plus self
///   time equals the span;
/// * for every phase span, its step time fits inside it, so step time
///   plus network overhead equals the span;
/// * every round falls inside a phase, and every step inside one network;
/// * the run span's simulated totals equal the sum over its phases.
///
/// # Errors
///
/// A description of the first check that fails.
pub fn split(events: &[Event]) -> Result<Split, String> {
    let mut out = Split { calls: 1, ..Split::default() };
    let mut stack: Vec<OpenSpan> = Vec::new();
    let mut last_round_ns: Option<u64> = None;
    for event in events {
        match event {
            Event::Open { id, parent, kind, label } => {
                if *parent != stack.last().map(|s| s.id) {
                    return Err(format!("span {id} ({label}) opened outside its parent"));
                }
                stack.push(OpenSpan {
                    id: *id,
                    kind,
                    phase: Phase::of(kind, label),
                    children_ns: 0,
                    children_totals: [0; 3],
                    step_ns: 0,
                });
            }
            Event::Close { id, close } => {
                let span = stack
                    .pop()
                    .filter(|s| s.id == *id)
                    .ok_or_else(|| format!("span {id} closed while another span was innermost"))?;
                let wall = close.wall_ns;
                if span.children_ns > wall {
                    return Err(format!(
                        "{} span {id}: children take {} ns of its {wall} ns",
                        span.kind, span.children_ns
                    ));
                }
                if span.step_ns > wall {
                    return Err(format!(
                        "{} span {id}: steps take {} ns of its {wall} ns",
                        span.kind, span.step_ns
                    ));
                }
                let totals = [close.rounds, close.messages, close.words];
                match (span.kind, span.phase) {
                    ("run", _) => {
                        if span.children_totals != totals {
                            return Err(format!(
                                "run totals {totals:?} differ from the sum of its phases {:?}",
                                span.children_totals
                            ));
                        }
                        out.run_ns += wall;
                        out.run_self_ns += wall - span.children_ns;
                        out.run_totals = totals;
                    }
                    ("class", _) => out.class_ns.push(wall),
                    (_, Some(p)) => {
                        let ps = &mut out.phases[p as usize];
                        ps.span_ns += wall;
                        for (a, b) in ps.totals.iter_mut().zip(totals) {
                            *a += b;
                        }
                        if p == Phase::Phase1 {
                            out.phase1_self_ns += wall - span.children_ns;
                        }
                    }
                    _ => {}
                }
                if let Some(parent) = stack.last_mut() {
                    parent.children_ns += wall;
                    if span.phase.is_some() {
                        for (a, b) in parent.children_totals.iter_mut().zip(totals) {
                            *a += b;
                        }
                    }
                }
            }
            Event::Round { at_ns, round, executed, delivered, unicast_ops, broadcast_ops } => {
                let Some(span) = stack.iter_mut().rev().find(|s| s.phase.is_some()) else {
                    return Err(format!("round {round} ran outside any phase span"));
                };
                let phase = span.phase.expect("found by its phase");
                let ps = &mut out.phases[phase as usize];
                // Round 0 (`init`) starts a network: the gap before it is
                // network overhead, not a step.
                if *round > 0 {
                    let prev = last_round_ns
                        .ok_or_else(|| format!("round {round} ran before any network's init"))?;
                    let step = at_ns - prev;
                    ps.steps_ns.push(step);
                    span.step_ns += step;
                    if phase == Phase::Upcast && *executed == 1 {
                        out.root_solve_ns = out.root_solve_ns.max(step);
                    }
                }
                last_round_ns = Some(*at_ns);
                ps.callbacks += *executed as u64;
                ps.deliveries += delivered;
                ps.unicast_ops += unicast_ops;
                ps.broadcast_ops += broadcast_ops;
            }
        }
    }
    if let Some(span) = stack.last() {
        return Err(format!("{} span {} never closed", span.kind, span.id));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(id: u64, parent: Option<u64>, kind: &'static str, label: &str) -> Event {
        Event::Open { id, parent, kind, label: label.to_string() }
    }

    fn close(id: u64, wall_ns: u64, totals: Totals) -> Event {
        let [rounds, messages, words] = totals;
        Event::Close { id, close: SpanClose { wall_ns, rounds, messages, words } }
    }

    fn round(at_ns: u64, round: usize, executed: usize) -> Event {
        Event::Round { at_ns, round, executed, delivered: 10, unicast_ops: 2, broadcast_ops: 1 }
    }

    /// A DHC2-shaped call: run → phase1 → two classes, then two merge
    /// levels, each with its own network.
    fn dhc2_like() -> Vec<Event> {
        vec![
            open(1, None, "run", "dhc2 n=8 k=2"),
            open(2, Some(1), "phase", "phase1 classes=2"),
            open(3, Some(2), "class", "class 0 n=4"),
            round(100, 0, 4),
            round(130, 1, 2),
            round(150, 2, 1),
            close(3, 80, [2, 20, 40]),
            open(4, Some(2), "class", "class 1 n=4"),
            round(300, 0, 4),
            round(340, 1, 3),
            close(4, 70, [1, 10, 20]),
            close(2, 400, [2, 38, 68]),
            open(5, Some(1), "merge-level", "merge-level-0 cycles=2"),
            round(600, 0, 8),
            round(610, 1, 8),
            round(700, 5, 1),
            close(5, 200, [5, 50, 90]),
            close(1, 900, [7, 88, 158]),
        ]
    }

    #[test]
    fn steps_are_attributed_to_the_innermost_phase() {
        let s = split(&dhc2_like()).unwrap();
        let p1 = s.phase(Phase::Phase1);
        // Each class network's first gap (construction + init) is not a step.
        assert_eq!(p1.steps_ns, vec![30, 20, 40]);
        assert_eq!(p1.callbacks, 4 + 2 + 1 + 4 + 3);
        assert_eq!(p1.deliveries, 50);
        assert_eq!(p1.unicast_ops, 10);
        assert_eq!(p1.broadcast_ops, 5);
        let merge = s.phase(Phase::Merge);
        assert_eq!(merge.steps_ns, vec![10, 90]);
        assert_eq!(s.phase(Phase::Stitch), &PhaseSplit::default());
        assert_eq!(s.phase(Phase::Upcast), &PhaseSplit::default());
        assert_eq!(s.root_solve_ns, 0);
    }

    #[test]
    fn self_time_and_overhead_close_the_spans() {
        let s = split(&dhc2_like()).unwrap();
        assert_eq!(s.run_ns, 900);
        assert_eq!(s.run_self_ns, 900 - 400 - 200);
        assert_eq!(s.phase1_self_ns, 400 - 80 - 70);
        assert_eq!(s.class_ns, vec![80, 70]);
        let p1 = s.phase(Phase::Phase1);
        assert_eq!(p1.span_ns, 400);
        assert_eq!(p1.step_ns() + p1.overhead_ns(), p1.span_ns);
        assert_eq!(p1.overhead_ns(), 400 - 90);
        assert_eq!(p1.totals, [2, 38, 68]);
        assert_eq!(s.phase(Phase::Merge).overhead_ns(), 100);
        assert_eq!(s.run_totals, [7, 88, 158]);
    }

    #[test]
    fn upcast_root_solve_is_the_longest_single_callback_step() {
        let events = vec![
            open(1, None, "run", "upcast n=4"),
            open(2, Some(1), "phase", "upcast"),
            round(0, 0, 4),
            round(10, 1, 4),
            round(510, 2, 1),
            round(530, 3, 1),
            round(1530, 4, 3),
            close(2, 2000, [4, 9, 9]),
            close(1, 2100, [4, 9, 9]),
        ];
        let s = split(&events).unwrap();
        // The 1000 ns step ran three callbacks, so it is not the solve.
        assert_eq!(s.root_solve_ns, 500);
        assert_eq!(s.phase(Phase::Upcast).steps_ns, vec![10, 500, 20, 1000]);
    }

    #[test]
    fn broken_closures_are_reported() {
        // Children longer than their parent.
        let mut events = dhc2_like();
        events[11] = close(2, 100, [2, 38, 68]);
        assert!(split(&events).unwrap_err().contains("children take"));

        // Steps longer than their phase span.
        let mut events = dhc2_like();
        events[16] = close(5, 50, [5, 50, 90]);
        assert!(split(&events).unwrap_err().contains("steps take"));

        // Run totals that are not the sum of the phases.
        let mut events = dhc2_like();
        events[17] = close(1, 900, [7, 89, 158]);
        assert!(split(&events).unwrap_err().contains("sum of its phases"));

        // A round outside every phase.
        let events = vec![open(1, None, "run", "x"), round(5, 0, 1), close(1, 9, [0; 3])];
        assert!(split(&events).unwrap_err().contains("outside any phase"));

        // Mis-nested and unclosed spans.
        let events = vec![open(1, None, "run", "x"), open(2, Some(7), "phase", "upcast")];
        assert!(split(&events).unwrap_err().contains("outside its parent"));
        let events = vec![open(1, None, "run", "x")];
        assert!(split(&events).unwrap_err().contains("never closed"));
    }

    #[test]
    fn splits_of_several_calls_add_up() {
        let one = split(&dhc2_like()).unwrap();
        let mut two = one.clone();
        two.absorb(&one);
        assert_eq!(two.calls, 2);
        assert_eq!(two.run_ns, 2 * one.run_ns);
        assert_eq!(two.phase(Phase::Phase1).steps_ns.len(), 6);
        assert_eq!(two.class_ns.len(), 4);
        assert_eq!(two.run_totals, [14, 176, 316]);
    }
}
