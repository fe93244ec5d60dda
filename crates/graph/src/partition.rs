//! Random vertex partitions (Phase 1 of DHC1/DHC2).
//!
//! Each node independently picks a uniform color in `0..k`; the color
//! classes are the parallel DRA instances' vertex sets. Lemmas 4 and 7 of
//! the paper show every class has size within `[½, 3/2]` of the mean whp —
//! experiment E2 measures exactly this.
//!
//! Class membership is stored flat, CSR-style (one offsets array plus one
//! member array), so a `k`-class partition of `n` nodes costs `n + k + 1`
//! words regardless of `k`, and every class is a contiguous ascending
//! slice: the member list that maps a class subgraph's local ids back to
//! global ones ([`Graph::class_subgraphs`](crate::Graph::class_subgraphs)).

use crate::NodeId;
use rand::Rng;

/// A partition of `0..n` into `k` color classes.
///
/// # Example
///
/// ```
/// use dhc_graph::Partition;
/// use dhc_graph::rng::rng_from_seed;
///
/// let p = Partition::random(100, 4, &mut rng_from_seed(0));
/// assert_eq!(p.class_count(), 4);
/// assert_eq!(p.classes().map(<[u32]>::len).sum::<usize>(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    color: Vec<u32>,
    /// `offsets[c]..offsets[c + 1]` indexes `members` for class `c`.
    offsets: Vec<usize>,
    /// Class member lists, concatenated; ascending within each class.
    members: Vec<NodeId>,
}

impl Partition {
    /// Colors each of `n` nodes independently and uniformly with one of
    /// `k` colors (the paper's Phase-1 step `v.color ← random[1..k]`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn random<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Self {
        assert!(k > 0, "partition needs at least one class");
        let mut color = Vec::with_capacity(n);
        for _ in 0..n {
            color.push(rng.gen_range(0..k) as u32);
        }
        Self::from_checked_colors(color, k)
    }

    /// Builds a partition from an explicit color assignment.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or any color is `>= k`.
    pub fn from_colors(color: Vec<u32>, k: usize) -> Self {
        assert!(k > 0, "partition needs at least one class");
        for &c in &color {
            assert!((c as usize) < k, "color {c} out of range for {k} classes");
        }
        Self::from_checked_colors(color, k)
    }

    /// Counting-sort the (validated) colors into the flat class storage.
    fn from_checked_colors(color: Vec<u32>, k: usize) -> Self {
        let n = color.len();
        let mut offsets = vec![0usize; k + 1];
        for &c in &color {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..k {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut members = vec![0 as NodeId; n];
        for (v, &c) in color.iter().enumerate() {
            members[cursor[c as usize]] = v as NodeId;
            cursor[c as usize] += 1;
        }
        Partition { color, offsets, members }
    }

    /// The color of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn color(&self, v: NodeId) -> u32 {
        self.color[v as usize]
    }

    /// Per-node colors.
    pub fn colors(&self) -> &[u32] {
        &self.color
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.color.len()
    }

    /// Number of classes `k` (some may be empty).
    pub fn class_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Iterates over the node list of every class, each a contiguous
    /// ascending slice.
    pub fn classes(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        (0..self.class_count()).map(move |c| self.class(c))
    }

    /// The nodes of class `c`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `c >= k`.
    pub fn class(&self, c: usize) -> &[NodeId] {
        &self.members[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Sizes of all classes.
    pub fn class_sizes(&self) -> Vec<usize> {
        self.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Smallest and largest class size.
    pub fn size_extremes(&self) -> (usize, usize) {
        let sizes = self.class_sizes();
        let min = sizes.iter().copied().min().unwrap_or(0);
        let max = sizes.iter().copied().max().unwrap_or(0);
        (min, max)
    }

    /// Whether event **A** of the paper (Definition 1 / Lemma 7) holds:
    /// every class size lies in `[mean/2, 3·mean/2]` where
    /// `mean = n / k`.
    pub fn is_balanced(&self) -> bool {
        let n = self.color.len() as f64;
        let k = self.class_count() as f64;
        let mean = n / k;
        let (lo, hi) = (mean / 2.0, 1.5 * mean);
        self.classes().all(|c| (c.len() as f64) >= lo && (c.len() as f64) <= hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn covers_all_nodes_disjointly() {
        let p = Partition::random(200, 7, &mut rng_from_seed(1));
        let mut seen = [false; 200];
        for (c, class) in p.classes().enumerate() {
            for &v in class {
                assert!(!seen[v as usize], "node {v} in two classes");
                seen[v as usize] = true;
                assert_eq!(p.color(v) as usize, c);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn classes_are_ascending_slices() {
        let p = Partition::random(300, 5, &mut rng_from_seed(2));
        for class in p.classes() {
            assert!(class.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(p.classes().len(), 5);
    }

    #[test]
    fn from_colors_round_trip() {
        let colors = vec![0, 2, 1, 2, 0];
        let p = Partition::from_colors(colors.clone(), 3);
        assert_eq!(p.colors(), &colors[..]);
        assert_eq!(p.class(2), &[1, 3]);
        assert_eq!(p.node_count(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_colors_rejects_bad_color() {
        Partition::from_colors(vec![0, 3], 3);
    }

    #[test]
    fn single_class_is_everything() {
        let p = Partition::random(10, 1, &mut rng_from_seed(0));
        assert_eq!(p.class(0).len(), 10);
        assert!(p.is_balanced());
    }

    #[test]
    fn balanced_whp_at_paper_scale() {
        // Lemma 4 regime: k = sqrt(n) classes of expected size sqrt(n).
        let n = 4096;
        let k = 64;
        let p = Partition::random(n, k, &mut rng_from_seed(3));
        assert!(p.is_balanced(), "sizes: {:?}", p.class_sizes());
    }

    #[test]
    fn size_extremes() {
        let p = Partition::from_colors(vec![0, 0, 0, 1], 2);
        assert_eq!(p.size_extremes(), (1, 3));
    }
}
