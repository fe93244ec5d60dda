//! The rotation-path data structure.
//!
//! The path lives in a circular array of `n` slots, one per node of the
//! universe: logical position `i` sits at slot `base + i` (mod `n`), or
//! at `base − i` once the orientation has flipped, and the `n − len`
//! slots after the head are free. A rotation at `j` must reverse the
//! suffix after `j`. It can do that in place (`h − j` moves), or it can
//! reverse the other arc of the circle, the free slots and the prefix
//! `[0, j]` (`j + 1 + n − len` moves), and flip the orientation: read
//! the other way round, the circle then holds the same path. It takes
//! the shorter of the two.

use dhc_graph::NodeId;

/// Marks a node that is not on the path.
const OFF: u32 = u32::MAX;

/// A simple path under construction, supporting Pósa rotations.
///
/// Maintains the visiting order and each node's position (the paper's
/// `cycindex`, here 0-based). A rotation at path position `j` — triggered
/// by an edge from the head to the node at `j` — reverses the segment
/// `j+1 ..= h`, matching the paper's renumbering rule `i ← h + j + 1 − i`
/// (1-based).
///
/// The nodes sit in a circular array of `n` `u32` slots with a base slot
/// and an orientation bit. A rotation either reverses the suffix in place
/// or reverses the other arc, the free slots and the prefix `[0, j]`, and
/// flips the orientation; both leave the same path. It takes the shorter
/// arc, so it costs `min(h − j, j + 1 + n − len)` moves, and
/// [`order`](Self::order) reads the path out into a new `Vec`.
///
/// # Example
///
/// ```
/// use dhc_rotation::RotationPath;
///
/// let mut p = RotationPath::new(6, 0);
/// p.extend(3);
/// p.extend(5);
/// p.extend(1);
/// assert_eq!(p.head(), 1);
/// // Edge (1, 0): rotation at position 0 reverses [3, 5, 1] -> new head 3.
/// p.rotate(0);
/// assert_eq!(p.order(), [0, 1, 5, 3]);
/// assert_eq!(p.head(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RotationPath {
    /// The circular array: `slots[self.slot(i)]` is the node at logical
    /// position `i < len`; the other slots are free.
    slots: Vec<NodeId>,
    /// `slot_of[v]` is the slot holding `v`, or [`OFF`].
    slot_of: Vec<u32>,
    /// The slot of logical position 0 (the tail).
    base: usize,
    /// Whether logical positions run down the slots instead of up.
    reversed: bool,
    len: usize,
    rotations: usize,
}

impl RotationPath {
    /// Creates a path over a universe of `n` nodes, containing only `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= n`.
    pub fn new(n: usize, start: NodeId) -> Self {
        assert!(start < (n) as u32, "start {start} out of range for {n} nodes");
        let mut slot_of = vec![OFF; n];
        slot_of[(start) as usize] = 0;
        let mut slots = vec![0; n];
        slots[0] = start;
        RotationPath { slots, slot_of, base: 0, reversed: false, len: 1, rotations: 0 }
    }

    /// The slot of logical position `i`, for `i < 2n`.
    fn slot(&self, i: usize) -> usize {
        let n = self.slots.len();
        let i = if i >= n { i - n } else { i };
        if self.reversed {
            if i > self.base {
                self.base + n - i
            } else {
                self.base - i
            }
        } else if self.base + i >= n {
            self.base + i - n
        } else {
            self.base + i
        }
    }

    /// Current head (last node of the path).
    pub fn head(&self) -> NodeId {
        self.slots[self.slot(self.len - 1)]
    }

    /// First node of the path (the paper's `v₁`).
    pub fn tail(&self) -> NodeId {
        self.slots[self.base]
    }

    /// Number of nodes on the path.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false; a path contains at least its start node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `v` is on the path.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the universe.
    pub fn contains(&self, v: NodeId) -> bool {
        self.slot_of[(v) as usize] != OFF
    }

    /// Position of `v` on the path, if present.
    pub fn position_of(&self, v: NodeId) -> Option<usize> {
        let s = self.slot_of[(v) as usize];
        if s == OFF {
            return None;
        }
        let (s, n) = (s as usize, self.slots.len());
        let (from, to) = if self.reversed { (s, self.base) } else { (self.base, s) };
        Some(if to >= from { to - from } else { to + n - from })
    }

    /// The visiting order, tail first.
    pub fn order(&self) -> Vec<NodeId> {
        (0..self.len).map(|i| self.slots[self.slot(i)]).collect()
    }

    /// Number of rotations performed so far.
    pub fn rotation_count(&self) -> usize {
        self.rotations
    }

    /// Appends `v` as the new head.
    ///
    /// # Panics
    ///
    /// Panics if `v` is already on the path or outside the universe.
    pub fn extend(&mut self, v: NodeId) {
        assert!(self.slot_of[(v) as usize] == OFF, "node {v} already on path");
        // `v` is off the path, so a free slot is left.
        let s = self.slot(self.len);
        self.slots[s] = v;
        self.slot_of[(v) as usize] = s as u32;
        self.len += 1;
    }

    /// Pósa rotation for a discovered edge `(head, order[j])`: reverses the
    /// segment after `j`, making the old `order[j + 1]` the new head.
    ///
    /// If `j` is the head's own position this is a no-op; if `j` is the
    /// position just before the head, the path is unchanged too (the
    /// reversed segment has length 1).
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()`.
    pub fn rotate(&mut self, j: usize) {
        let h = self.len - 1;
        assert!(j <= h, "rotation position {j} out of range");
        self.rotations += 1;
        if j + 1 >= h {
            // Segment of length <= 1: nothing moves.
            return;
        }
        let n = self.slots.len();
        if h - j <= j + 1 + n - self.len {
            // Reverse the suffix (j, h] in place.
            let (lo, count) = self.arc(j + 1, h);
            self.reverse_slots(lo, count);
            self.place_slots(lo, count);
        } else {
            // Reverse the free slots and the prefix [0, j], the logical
            // range [len, n + j]. The old tail lands at position len + j,
            // which becomes the new base; read the other way round, the
            // prefix keeps its positions and the suffix its slots.
            let base = self.slot(self.len + j);
            let (lo, count) = self.arc(self.len, n + j);
            self.reverse_slots(lo, count);
            self.base = base;
            self.reversed = !self.reversed;
            let (lo, count) = self.arc(0, j);
            self.place_slots(lo, count);
        }
    }

    /// The slots of logical positions `[a, b]`, `b < 2n`, as the first
    /// slot in slot order and the count.
    fn arc(&self, a: usize, b: usize) -> (usize, usize) {
        (if self.reversed { self.slot(b) } else { self.slot(a) }, b - a + 1)
    }

    /// Reverses the `count <= n` slots from slot `lo` on, wrapping past
    /// the end of the array.
    fn reverse_slots(&mut self, lo: usize, count: usize) {
        let n = self.slots.len();
        if lo + count <= n {
            self.slots[lo..lo + count].reverse();
            return;
        }
        // `a` slots at the end of the array, then `e` at its start: swap
        // pairs across the wrap, then reverse what is left in one piece.
        let (a, e) = (n - lo, lo + count - n);
        let pairs = a.min(e);
        let (front, back) = self.slots.split_at_mut(lo);
        for (x, y) in back[..pairs].iter_mut().zip(front[e - pairs..e].iter_mut().rev()) {
            std::mem::swap(x, y);
        }
        if a > e {
            back[pairs..].reverse();
        } else {
            front[..e - pairs].reverse();
        }
    }

    /// Records the slot of every node in the `count` slots from slot `lo`
    /// on, wrapping past the end of the array.
    fn place_slots(&mut self, lo: usize, count: usize) {
        let n = self.slots.len();
        let end = (lo + count).min(n);
        for (s, &v) in self.slots[lo..end].iter().enumerate() {
            self.slot_of[(v) as usize] = (lo + s) as u32;
        }
        for (s, &v) in self.slots[..lo + count - end].iter().enumerate() {
            self.slot_of[(v) as usize] = s as u32;
        }
    }

    /// Consumes the path, returning the visiting order.
    pub fn into_order(self) -> Vec<NodeId> {
        self.order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_path_is_single_node() {
        let p = RotationPath::new(4, 2);
        assert_eq!(p.head(), 2);
        assert_eq!(p.tail(), 2);
        assert_eq!(p.len(), 1);
        assert!(p.contains(2));
        assert!(!p.contains(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_bad_start() {
        RotationPath::new(3, 3);
    }

    #[test]
    fn extend_tracks_positions() {
        let mut p = RotationPath::new(5, 0);
        p.extend(4);
        p.extend(2);
        assert_eq!(p.order(), [0, 4, 2]);
        assert_eq!(p.position_of(4), Some(1));
        assert_eq!(p.head(), 2);
    }

    #[test]
    #[should_panic(expected = "already on path")]
    fn extend_rejects_duplicate() {
        let mut p = RotationPath::new(3, 0);
        p.extend(1);
        p.extend(1);
    }

    #[test]
    fn rotation_matches_paper_renumbering() {
        // Paper figure 2: path v1..vh, edge (vh, vj); nodes j+1..h reverse.
        // 1-based formula i <- h + j + 1 - i; 0-based equivalent below.
        let mut p = RotationPath::new(8, 0);
        for v in 1..8 {
            p.extend(v);
        }
        // Edge (7, 2): j = position of 2 = 2 (0-based). New order:
        // 0 1 2 | 7 6 5 4 3.
        p.rotate(2);
        assert_eq!(p.order(), [0, 1, 2, 7, 6, 5, 4, 3]);
        assert_eq!(p.head(), 3);
        // Check the renumbering formula: for old position i (0-based) in
        // j+1..=h, new position = h + j + 1 - i.
        let (h, j) = (7usize, 2usize);
        for old_i in (j + 1)..=h {
            let node = old_i as u32; // nodes were laid out in order initially
            assert_eq!(p.position_of(node), Some(h + j + 1 - old_i));
        }
    }

    #[test]
    fn rotation_at_predecessor_is_noop() {
        let mut p = RotationPath::new(4, 0);
        p.extend(1);
        p.extend(2);
        p.extend(3);
        let before = p.order();
        p.rotate(2); // predecessor of head
        assert_eq!(p.order(), before);
        assert_eq!(p.rotation_count(), 1);
    }

    #[test]
    fn rotation_preserves_vertex_set() {
        let mut p = RotationPath::new(10, 0);
        for v in [5, 3, 8, 1, 9, 2] {
            p.extend(v);
        }
        let mut before = p.order();
        before.sort_unstable();
        p.rotate(1);
        let mut after = p.order();
        after.sort_unstable();
        assert_eq!(before, after);
        // Positions stay consistent.
        for (i, &v) in p.order().iter().enumerate() {
            assert_eq!(p.position_of(v), Some(i));
        }
    }

    #[test]
    fn rotation_near_the_tail_reverses_the_other_arc() {
        // Full path over 8 nodes: the suffix after 1 has 6 nodes, the
        // prefix [0, 1] and the (empty) free arc only 2, so the prefix
        // moves and the orientation flips.
        let mut p = RotationPath::new(8, 0);
        for v in 1..8 {
            p.extend(v);
        }
        p.rotate(1);
        assert!(p.reversed);
        assert_eq!(p.order(), [0, 1, 7, 6, 5, 4, 3, 2]);
        for (i, v) in p.order().into_iter().enumerate() {
            assert_eq!(p.position_of(v), Some(i));
        }
        // A path with free slots wraps the prefix around them.
        let mut q = RotationPath::new(10, 4);
        for v in [6, 8, 9, 1, 2, 3] {
            q.extend(v);
        }
        q.rotate(0);
        assert!(q.reversed);
        assert_eq!(q.order(), [4, 3, 2, 1, 9, 8, 6]);
        q.extend(0);
        q.rotate(5);
        assert_eq!(q.order(), [4, 3, 2, 1, 9, 8, 0, 6]);
        assert_eq!((q.head(), q.tail(), q.position_of(0)), (6, 4, Some(6)));
    }

    #[test]
    fn into_order_returns_final_order() {
        let mut p = RotationPath::new(3, 1);
        p.extend(0);
        p.extend(2);
        assert_eq!(p.into_order(), vec![1, 0, 2]);
    }
}
