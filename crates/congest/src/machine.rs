//! The **k-machine accounting layer** (Klauck–Nanongkai–Pandurangan–
//! Robinson, SODA 2015): measures what a CONGEST execution costs when its
//! `n` nodes are hosted by `k` machines connected pairwise by
//! bandwidth-limited links.
//!
//! In the k-machine model every pair of machines shares one link that
//! carries at most `B = O(polylog n)` words per k-machine round, nodes are
//! assigned to machines by a random vertex partition, and a machine
//! simulates all of its hosted nodes locally. Simulating one CONGEST round
//! therefore costs:
//!
//! * **nothing per intra-machine message** — both endpoints live on the
//!   same machine, the payload never crosses a link;
//! * **one link transfer per (sender, receiving machine) payload** — a
//!   broadcast addressed to many nodes hosted by the same machine crosses
//!   the link **once** (the engine's payload arena makes this literal:
//!   one shared record serves every receiver);
//! * **`max(1, ⌈max directed-link load / B⌉)` k-machine rounds** — the
//!   round's messages are scheduled onto each link in deterministic order
//!   (ascending sender id, then the sender's op order — exactly the
//!   engine's commit-fold order), `B` words per link per k-machine round,
//!   so the most loaded link dictates the dilation; the floor of one
//!   round is the synchronization barrier every executed CONGEST round
//!   needs. See [`link_schedule`] for the packing rule.
//!
//! The layer is **pure accounting**: it observes the commit fold and never
//! influences scheduling, delivery, bandwidth checks, or protocol state,
//! so a machine-instrumented run produces bit-identical outcomes, CONGEST
//! [`Metrics`](crate::Metrics), and traces to the plain run. Because it
//! runs inside the commit fold, its numbers are as deterministic as the
//! run itself.
//!
//! Per-round link loads are retained in a [`MachineRoundLog`] (sparse:
//! only touched links) rather than folded immediately, because phases of
//! one algorithm may execute **concurrently in simulated time** — e.g. the
//! per-partition Phase-1 DRA instances of DHC1/DHC2 — and their round-`r`
//! messages share the physical links. [`MachineRoundLog::absorb_parallel`]
//! merges such logs round-by-round before
//! [`finalize`](MachineRoundLog::finalize) turns the union into a
//! [`MachineMetrics`]; sequential phases compose with
//! [`MachineMetrics::merge_sequential`].

use crate::NodeId;

/// Largest supported machine count `k`. A directed link's index
/// `from * k + to` is stored as a `u32`, so `k²` must not exceed `2³²`.
///
/// Memory grows as `k²`: every machine-instrumented network keeps one
/// `u64` counter per directed link, and every [`MachineMetrics`] two
/// more tables of that size. At `k = 1024` one table is 8 MiB; at this
/// bound it would be 32 GiB.
pub const MAX_MACHINES: usize = 1 << 16;

/// Assignment of a network's nodes to `k` machines (`node id → machine`).
///
/// The node-id space is the network's own — for a whole-graph simulation
/// that is the global id space, for a Phase-1 class subgraph it is the
/// class-local one (build the map through the class member list).
///
/// # Example
///
/// ```
/// use dhc_congest::MachineMap;
///
/// let map = MachineMap::new(vec![0, 1, 0, 2], 3);
/// assert_eq!(map.machine_of(2), 0);
/// assert_eq!(map.machine_count(), 3);
/// assert_eq!(map.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineMap {
    machine_of: Vec<usize>,
    k: usize,
}

impl MachineMap {
    /// Builds the map from an explicit assignment vector. A network
    /// instrumented with it allocates `k²` link counters (see
    /// [`MAX_MACHINES`]).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k >` [`MAX_MACHINES`], or any entry is `>= k`.
    pub fn new(machine_of: Vec<usize>, k: usize) -> Self {
        assert!(k > 0, "need at least one machine");
        assert!(k <= MAX_MACHINES, "at most {MAX_MACHINES} machines (u32 link indices)");
        assert!(
            machine_of.iter().all(|&m| m < k),
            "machine assignment out of range (must be < {k})"
        );
        MachineMap { machine_of, k }
    }

    /// The machine hosting node `v`.
    pub fn machine_of(&self, v: NodeId) -> usize {
        self.machine_of[(v) as usize]
    }

    /// Number of machines `k`.
    pub fn machine_count(&self) -> usize {
        self.k
    }

    /// Number of mapped nodes.
    pub fn len(&self) -> usize {
        self.machine_of.len()
    }

    /// Whether the map covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.machine_of.is_empty()
    }
}

/// One executed CONGEST round's cross-machine traffic: the words each
/// touched directed machine-pair link carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineRound {
    /// The simulated CONGEST round number (0 is the `init` phase).
    pub round: usize,
    /// `(link index, words)` for every touched link, ascending by link
    /// index; link index = `from_machine * k + to_machine`.
    pub links: Vec<(u32, u64)>,
}

impl MachineRound {
    /// The heaviest directed-link load of this round (0 when no message
    /// crossed a machine boundary).
    pub fn max_link_words(&self) -> u64 {
        self.links.iter().map(|&(_, w)| w).max().unwrap_or(0)
    }
}

/// Per-round cross-machine traffic of one network execution, plus phase
/// totals — the raw material [`finalize`](MachineRoundLog::finalize)
/// turns into a [`MachineMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineRoundLog {
    k: usize,
    /// Executed rounds, ascending by round number.
    rounds: Vec<MachineRound>,
    machine_sent_words: Vec<u64>,
    machine_recv_words: Vec<u64>,
    intra_words: u64,
    cross_messages: u64,
}

impl MachineRoundLog {
    /// An empty log for `k` machines.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn empty(k: usize) -> Self {
        assert!(k > 0, "need at least one machine");
        MachineRoundLog {
            k,
            rounds: Vec::new(),
            machine_sent_words: vec![0; k],
            machine_recv_words: vec![0; k],
            intra_words: 0,
            cross_messages: 0,
        }
    }

    /// Number of machines `k`.
    pub fn machine_count(&self) -> usize {
        self.k
    }

    /// The executed rounds, ascending by round number.
    pub fn rounds(&self) -> &[MachineRound] {
        &self.rounds
    }

    /// Words that never crossed a machine boundary (free in the model).
    pub fn intra_words(&self) -> u64 {
        self.intra_words
    }

    /// Cross-machine payload transfers (a broadcast counts once per
    /// receiving machine).
    pub fn cross_messages(&self) -> u64 {
        self.cross_messages
    }

    /// Records one `words`-word payload from machine `from` to machine
    /// `to` in `round` — the hook for traffic that is *accounted* rather
    /// than simulated (e.g. the Phase-1 cross-partition color exchange,
    /// which the partitioned runner resolves up front). `from == to` is
    /// an intra-machine (free) transfer.
    ///
    /// # Panics
    ///
    /// Panics if a machine index is out of range.
    pub fn charge(&mut self, round: usize, from: usize, to: usize, words: u64) {
        assert!(from < self.k && to < self.k, "machine index out of range");
        if from == to {
            self.record_intra(words);
            return;
        }
        self.record_cross_volume(from, to, words);
        let link = (from * self.k + to) as u32;
        let idx = match self.rounds.binary_search_by_key(&round, |r| r.round) {
            Ok(i) => i,
            Err(i) => {
                self.rounds.insert(i, MachineRound { round, links: Vec::new() });
                i
            }
        };
        let links = &mut self.rounds[idx].links;
        match links.binary_search_by_key(&link, |&(l, _)| l) {
            Ok(i) => links[i].1 += words,
            Err(i) => links.insert(i, (link, words)),
        }
    }

    /// One intra-machine (free) payload: the volume bookkeeping shared
    /// by [`charge`](Self::charge) and the live [`MachineLayer`].
    fn record_intra(&mut self, words: u64) {
        self.intra_words += words;
    }

    /// One cross-machine payload's volume counters (sender/receiver
    /// machine words, transfer count) — shared by [`charge`](Self::charge)
    /// and the live [`MachineLayer`], so the two construction paths
    /// cannot drift.
    fn record_cross_volume(&mut self, from: usize, to: usize, words: u64) {
        self.machine_sent_words[from] += words;
        self.machine_recv_words[to] += words;
        self.cross_messages += 1;
    }

    /// Merges a log of a network that executed **concurrently in
    /// simulated time** with this one (e.g. another Phase-1 partition
    /// class): round-`r` link loads add because the concurrent rounds
    /// share the physical links; totals add.
    ///
    /// # Panics
    ///
    /// Panics if the machine counts differ.
    pub fn absorb_parallel(&mut self, other: &MachineRoundLog) {
        assert_eq!(self.k, other.k, "cannot merge logs for different machine counts");
        let mut merged = Vec::with_capacity(self.rounds.len().max(other.rounds.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.rounds.len() || j < other.rounds.len() {
            match (self.rounds.get(i), other.rounds.get(j)) {
                (Some(a), Some(b)) if a.round == b.round => {
                    merged.push(MachineRound {
                        round: a.round,
                        links: merge_links(&a.links, &b.links),
                    });
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a.round < b.round => {
                    merged.push(a.clone());
                    i += 1;
                }
                (Some(_), Some(b)) => {
                    merged.push(b.clone());
                    j += 1;
                }
                (Some(a), None) => {
                    merged.push(a.clone());
                    i += 1;
                }
                (None, Some(b)) => {
                    merged.push(b.clone());
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        self.rounds = merged;
        for m in 0..self.k {
            self.machine_sent_words[m] += other.machine_sent_words[m];
            self.machine_recv_words[m] += other.machine_recv_words[m];
        }
        self.intra_words += other.intra_words;
        self.cross_messages += other.cross_messages;
    }

    /// Folds the log into a [`MachineMetrics`] under a per-link
    /// per-round budget of `link_bandwidth_words`: every executed round
    /// dilates into `max(1, ⌈max link load / B⌉)` k-machine rounds
    /// (equivalently, the length of its [`link_schedule`]).
    ///
    /// # Panics
    ///
    /// Panics if `link_bandwidth_words == 0`.
    pub fn finalize(&self, link_bandwidth_words: usize) -> MachineMetrics {
        assert!(link_bandwidth_words > 0, "link bandwidth must be at least one word");
        let b = link_bandwidth_words as u64;
        let kk = self.k * self.k;
        let mut m = MachineMetrics {
            k: self.k,
            link_bandwidth_words,
            kmachine_rounds: 0,
            congest_rounds: self.rounds.len(),
            max_dilation: 0,
            link_total_words: vec![0; kk],
            link_peak_round_words: vec![0; kk],
            machine_nodes: Vec::new(),
            machine_sent_words: self.machine_sent_words.clone(),
            machine_recv_words: self.machine_recv_words.clone(),
            intra_words: self.intra_words,
            cross_messages: self.cross_messages,
        };
        for round in &self.rounds {
            let mut max_load = 0u64;
            for &(link, words) in &round.links {
                let link = link as usize;
                m.link_total_words[link] += words;
                if words > m.link_peak_round_words[link] {
                    m.link_peak_round_words[link] = words;
                }
                max_load = max_load.max(words);
            }
            let dilation = (max_load.div_ceil(b) as usize).max(1);
            m.kmachine_rounds += dilation;
            m.max_dilation = m.max_dilation.max(dilation);
        }
        m
    }
}

/// Merges two ascending sparse `(link, words)` lists, adding loads of
/// shared links.
fn merge_links(a: &[(u32, u64)], b: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(la, wa)), Some(&(lb, wb))) if la == lb => {
                out.push((la, wa + wb));
                i += 1;
                j += 1;
            }
            (Some(&(la, wa)), Some(&(lb, _))) if la < lb => {
                out.push((la, wa));
                i += 1;
            }
            (Some(_), Some(&(lb, wb))) => {
                out.push((lb, wb));
                j += 1;
            }
            (Some(&x), None) => {
                out.push(x);
                i += 1;
            }
            (None, Some(&x)) => {
                out.push(x);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    out
}

/// The deterministic word schedule of one CONGEST round's link loads
/// under a per-link budget of `bandwidth` words per k-machine round.
///
/// Each link transmits its queued words FIFO — the queue order is the
/// commit fold's: ascending sender id, then the sender's op order — `B`
/// words per k-machine round, so link load `w` occupies `⌈w/B⌉`
/// consecutive sub-rounds: full `B`-word slots followed by the `w mod B`
/// remainder. Returns `(dilation, per-link sub-round loads)` where
/// `dilation = max(1, max ⌈w/B⌉)` is what
/// [`MachineRoundLog::finalize`] charges for the round; no sub-round
/// load ever exceeds `bandwidth` (pinned by
/// `crates/core/tests/kmachine_equivalence.rs`).
///
/// # Panics
///
/// Panics if `bandwidth == 0`.
pub fn link_schedule(links: &[(u32, u64)], bandwidth: usize) -> (usize, Vec<(u32, Vec<u64>)>) {
    assert!(bandwidth > 0, "link bandwidth must be at least one word");
    let b = bandwidth as u64;
    let mut dilation = 1usize;
    let mut schedule = Vec::with_capacity(links.len());
    for &(link, words) in links {
        let full = (words / b) as usize;
        let rem = words % b;
        let mut slots = vec![b; full];
        if rem > 0 {
            slots.push(rem);
        }
        dilation = dilation.max(slots.len());
        schedule.push((link, slots));
    }
    (dilation, schedule)
}

/// Measured cost of an execution under k-machine semantics — the
/// counterpart the KNPR conversion theorem's `Õ(M/k² + T·Δ'/k)` bound is
/// compared against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineMetrics {
    /// Number of machines `k`.
    pub k: usize,
    /// Per-directed-link, per-k-machine-round budget in words.
    pub link_bandwidth_words: usize,
    /// Measured k-machine rounds: every executed CONGEST round costs
    /// `max(1, ⌈max link load / B⌉)`.
    pub kmachine_rounds: usize,
    /// Executed CONGEST rounds accounted (quiescent fast-forwarded
    /// rounds cost nothing and are not counted here).
    pub congest_rounds: usize,
    /// Largest single-round dilation observed.
    pub max_dilation: usize,
    /// Total words per directed link (`k*k`, index `from * k + to`;
    /// the diagonal is always 0 — intra-machine traffic is free).
    pub link_total_words: Vec<u64>,
    /// Largest words any one CONGEST round put on each directed link.
    pub link_peak_round_words: Vec<u64>,
    /// Nodes hosted per machine (set by the runner from the random
    /// vertex partition; empty when unknown).
    pub machine_nodes: Vec<usize>,
    /// Cross-machine words sent per machine.
    pub machine_sent_words: Vec<u64>,
    /// Cross-machine words received per machine.
    pub machine_recv_words: Vec<u64>,
    /// Words exchanged between co-hosted nodes (free in the model).
    pub intra_words: u64,
    /// Cross-machine payload transfers (a broadcast counts once per
    /// receiving machine).
    pub cross_messages: u64,
}

impl MachineMetrics {
    /// Total words over a directed link.
    pub fn link_total(&self, from: usize, to: usize) -> u64 {
        self.link_total_words[from * self.k + to]
    }

    /// Heaviest total load of any directed link.
    pub fn max_link_total(&self) -> u64 {
        self.link_total_words.iter().copied().max().unwrap_or(0)
    }

    /// Heaviest single-round load of any directed link.
    pub fn max_link_peak(&self) -> u64 {
        self.link_peak_round_words.iter().copied().max().unwrap_or(0)
    }

    /// Total cross-machine words.
    pub fn cross_words(&self) -> u64 {
        self.machine_sent_words.iter().sum()
    }

    /// Accumulates a phase that executed **after** this one in simulated
    /// time: rounds add, link totals add, peaks take the max.
    ///
    /// # Panics
    ///
    /// Panics if `k` or the link bandwidth differ.
    pub fn merge_sequential(&mut self, other: &MachineMetrics) {
        assert_eq!(self.k, other.k, "cannot merge metrics for different machine counts");
        assert_eq!(
            self.link_bandwidth_words, other.link_bandwidth_words,
            "cannot merge metrics with different link bandwidths"
        );
        self.kmachine_rounds += other.kmachine_rounds;
        self.congest_rounds += other.congest_rounds;
        self.max_dilation = self.max_dilation.max(other.max_dilation);
        for i in 0..self.link_total_words.len() {
            self.link_total_words[i] += other.link_total_words[i];
            self.link_peak_round_words[i] =
                self.link_peak_round_words[i].max(other.link_peak_round_words[i]);
        }
        for m in 0..self.k {
            self.machine_sent_words[m] += other.machine_sent_words[m];
            self.machine_recv_words[m] += other.machine_recv_words[m];
        }
        self.intra_words += other.intra_words;
        self.cross_messages += other.cross_messages;
    }
}

/// The live accounting hook the commit fold drives; owns the
/// [`MachineMap`] and the per-round scratch, and grows a
/// [`MachineRoundLog`].
#[derive(Debug)]
pub(crate) struct MachineLayer {
    map: MachineMap,
    /// Per-link words accumulated this round (`k*k`, cleared via
    /// `touched` at round end).
    round_words: Vec<u64>,
    /// Links touched this round (unsorted, duplicate-free).
    touched: Vec<u32>,
    /// Per-machine epoch marks for O(1) broadcast dedup.
    seen_epoch: Vec<u64>,
    epoch: u64,
    /// Sender machine and payload words of the broadcast currently being
    /// committed.
    bcast_from: usize,
    bcast_words: u64,
    log: MachineRoundLog,
}

impl MachineLayer {
    pub(crate) fn new(map: MachineMap) -> Self {
        let k = map.machine_count();
        MachineLayer {
            map,
            round_words: vec![0; k * k],
            touched: Vec::new(),
            seen_epoch: vec![0; k],
            epoch: 0,
            bcast_from: 0,
            bcast_words: 0,
            log: MachineRoundLog::empty(k),
        }
    }

    fn add_link(&mut self, from_m: usize, to_m: usize, words: u64) {
        self.log.record_cross_volume(from_m, to_m, words);
        let idx = from_m * self.map.k + to_m;
        if self.round_words[idx] == 0 {
            self.touched.push(idx as u32);
        }
        self.round_words[idx] += words;
    }

    /// One committed unicast send.
    pub(crate) fn unicast(&mut self, from: NodeId, to: NodeId, words: usize) {
        let (mf, mt) = (self.map.machine_of(from), self.map.machine_of(to));
        if mf == mt {
            self.log.record_intra(words as u64);
        } else {
            self.add_link(mf, mt, words as u64);
        }
    }

    /// Starts committing one broadcast op; follow with one
    /// [`broadcast_dest`](Self::broadcast_dest) per addressed neighbor.
    /// The payload crosses each link (and stays on the sender's machine)
    /// **once**, no matter how many addressed neighbors a machine hosts.
    pub(crate) fn begin_broadcast(&mut self, from: NodeId, words: usize) {
        self.epoch += 1;
        self.bcast_from = self.map.machine_of(from);
        self.bcast_words = words as u64;
    }

    /// One addressed neighbor of the current broadcast.
    pub(crate) fn broadcast_dest(&mut self, to: NodeId) {
        let m = self.map.machine_of(to);
        if self.seen_epoch[m] == self.epoch {
            return; // this machine already carries the payload
        }
        self.seen_epoch[m] = self.epoch;
        if m == self.bcast_from {
            self.log.record_intra(self.bcast_words);
        } else {
            self.add_link(self.bcast_from, m, self.bcast_words);
        }
    }

    /// Closes the round's accounting: records the touched links (sorted)
    /// under the given round number and clears the scratch. Called once
    /// per executed phase (init = round 0), so the log's round list is
    /// exactly the executed schedule.
    pub(crate) fn end_round(&mut self, round: usize) {
        self.touched.sort_unstable();
        let links: Vec<(u32, u64)> =
            self.touched.iter().map(|&i| (i, self.round_words[i as usize])).collect();
        for &i in &self.touched {
            self.round_words[i as usize] = 0;
        }
        self.touched.clear();
        self.log.rounds.push(MachineRound { round, links });
    }

    /// The just-closed round's sorted directed link loads — valid after
    /// [`end_round`](Self::end_round), which pushes one entry per
    /// executed round (so the log's last entry *is* the current round).
    /// Read by the engine's telemetry emission; never mutated by it.
    pub(crate) fn last_round_links(&self) -> &[(u32, u64)] {
        self.log.rounds.last().map_or(&[], |r| &r.links[..])
    }

    /// Consumes the layer, returning its log.
    pub(crate) fn into_log(self) -> MachineRoundLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_validates() {
        let map = MachineMap::new(vec![0, 1, 1], 2);
        assert_eq!((map.machine_of(0), map.machine_of(2)), (0, 1));
        assert!(!map.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn map_rejects_bad_assignment() {
        MachineMap::new(vec![0, 3], 2);
    }

    #[test]
    #[should_panic(expected = "u32 link indices")]
    fn map_rejects_more_machines_than_link_indices_address() {
        MachineMap::new(Vec::new(), MAX_MACHINES + 1);
    }

    #[test]
    fn unicast_accounting_splits_intra_and_cross() {
        let mut l = MachineLayer::new(MachineMap::new(vec![0, 0, 1], 2));
        l.unicast(0, 1, 3); // intra
        l.unicast(0, 2, 2); // cross 0 -> 1
        l.unicast(2, 1, 1); // cross 1 -> 0
        l.end_round(1);
        let log = l.into_log();
        assert_eq!(log.intra_words(), 3);
        assert_eq!(log.cross_messages(), 2);
        assert_eq!(log.rounds().len(), 1);
        // Links: 0->1 (idx 1) carries 2 words, 1->0 (idx 2) carries 1.
        assert_eq!(log.rounds()[0].links, vec![(1, 2), (2, 1)]);
        assert_eq!(log.machine_sent_words, vec![2, 1]);
        assert_eq!(log.machine_recv_words, vec![1, 2]);
    }

    #[test]
    fn broadcast_crosses_each_link_once() {
        // Machines: node 0 on m0; nodes 1, 2 on m1; node 3 on m2; node 4
        // on m0 (co-hosted with the sender).
        let mut l = MachineLayer::new(MachineMap::new(vec![0, 1, 1, 2, 0], 3));
        l.begin_broadcast(0, 5);
        for to in [1, 2, 3, 4] {
            l.broadcast_dest(to);
        }
        l.end_round(1);
        let log = l.into_log();
        // m1 hosts two receivers but the payload crossed once; m0's
        // receiver is intra (free).
        assert_eq!(log.cross_messages(), 2);
        assert_eq!(log.intra_words(), 5);
        assert_eq!(log.rounds()[0].links, vec![(1, 5), (2, 5)]);
    }

    #[test]
    fn end_round_clears_scratch_between_rounds() {
        let mut l = MachineLayer::new(MachineMap::new(vec![0, 1], 2));
        l.unicast(0, 1, 4);
        l.end_round(1);
        l.unicast(0, 1, 2);
        l.end_round(2);
        let log = l.into_log();
        assert_eq!(log.rounds()[0].links, vec![(1, 4)]);
        assert_eq!(log.rounds()[1].links, vec![(1, 2)]);
    }

    #[test]
    fn quiet_rounds_are_recorded_with_no_links() {
        let mut l = MachineLayer::new(MachineMap::new(vec![0, 0], 1));
        l.unicast(0, 1, 1);
        l.end_round(1);
        let log = l.into_log();
        assert_eq!(log.rounds().len(), 1);
        assert!(log.rounds()[0].links.is_empty());
        let m = log.finalize(4);
        // An all-intra round still costs the one-round barrier.
        assert_eq!(m.kmachine_rounds, 1);
        assert_eq!(m.max_dilation, 1);
    }

    #[test]
    fn finalize_dilates_by_max_link_load() {
        let mut log = MachineRoundLog::empty(2);
        log.charge(1, 0, 1, 9);
        log.charge(1, 1, 0, 3);
        log.charge(2, 0, 1, 4);
        let m = log.finalize(4);
        // Round 1: max load 9 -> ceil(9/4) = 3; round 2: 4 -> 1.
        assert_eq!(m.kmachine_rounds, 4);
        assert_eq!(m.congest_rounds, 2);
        assert_eq!(m.max_dilation, 3);
        assert_eq!(m.link_total(0, 1), 13);
        assert_eq!(m.link_peak_round_words[1], 9);
        assert_eq!(m.max_link_total(), 13);
        assert_eq!(m.max_link_peak(), 9);
        assert_eq!(m.cross_words(), 16);
    }

    #[test]
    fn charge_intra_is_free() {
        let mut log = MachineRoundLog::empty(2);
        log.charge(0, 1, 1, 7);
        assert_eq!(log.intra_words(), 7);
        assert!(log.rounds().is_empty());
        assert_eq!(log.finalize(1).kmachine_rounds, 0);
    }

    #[test]
    fn absorb_parallel_adds_overlapping_round_loads() {
        let mut a = MachineRoundLog::empty(2);
        a.charge(0, 0, 1, 2);
        a.charge(1, 0, 1, 3);
        let mut b = MachineRoundLog::empty(2);
        b.charge(1, 0, 1, 5);
        b.charge(1, 1, 0, 1);
        b.charge(3, 1, 0, 2);
        a.absorb_parallel(&b);
        assert_eq!(a.rounds().len(), 3);
        assert_eq!(a.rounds()[0].links, vec![(1, 2)]);
        assert_eq!(a.rounds()[1].links, vec![(1, 8), (2, 1)]);
        assert_eq!(a.rounds()[2].links, vec![(2, 2)]);
        assert_eq!(a.cross_messages(), 5);
        // Dilation at B = 4: rounds cost 1, 2, 1.
        assert_eq!(a.finalize(4).kmachine_rounds, 4);
    }

    #[test]
    fn merge_sequential_adds_rounds_and_maxes_peaks() {
        let mut a = MachineRoundLog::empty(2);
        a.charge(1, 0, 1, 6);
        let mut b = MachineRoundLog::empty(2);
        b.charge(1, 0, 1, 2);
        b.charge(2, 1, 0, 1);
        let mut ma = a.finalize(2);
        let mb = b.finalize(2);
        ma.merge_sequential(&mb);
        assert_eq!(ma.kmachine_rounds, 3 + 2);
        assert_eq!(ma.congest_rounds, 3);
        assert_eq!(ma.link_total(0, 1), 8);
        assert_eq!(ma.link_peak_round_words[1], 6);
        assert_eq!(ma.max_dilation, 3);
    }

    #[test]
    fn schedule_never_exceeds_bandwidth() {
        let links = vec![(1u32, 9u64), (2, 4), (3, 1)];
        let (dilation, schedule) = link_schedule(&links, 4);
        assert_eq!(dilation, 3);
        for (link, slots) in &schedule {
            assert!(slots.iter().all(|&w| w <= 4), "link {link} oversubscribed");
            let total = links.iter().find(|&&(l, _)| l == *link).unwrap().1;
            assert_eq!(slots.iter().sum::<u64>(), total);
        }
        // An idle round still schedules the barrier round.
        assert_eq!(link_schedule(&[], 4).0, 1);
    }
}
