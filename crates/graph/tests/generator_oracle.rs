//! The row-major generators against their original definitions.
//!
//! `gnp` and `clustered` draw their skips from a table and build their CSR
//! without sorting. The reference functions here keep the original
//! formulation: one `(r.ln() / ln(1 - p)).floor()` per skip and the
//! sort-based build. For a seed, both must give the same graph and leave
//! the generator in the same state.

mod common;

use common::{assert_csr_eq, sort_build, Csr};
use dhc_graph::generator::{clustered, gnp};
use dhc_graph::rng::{derive_seed, rng_from_seed};
use dhc_graph::NodeId;
use rand::Rng;

/// Appends the pairs of one `G(s, p)` block to `out`, shifted by `base`,
/// with one `ln` per skip.
fn ln_skip_rows<R: Rng>(
    s: usize,
    p: f64,
    base: usize,
    rng: &mut R,
    out: &mut Vec<(NodeId, NodeId)>,
) {
    let log_q = (1.0 - p).ln();
    let mut v: usize = 1;
    let mut w: i64 = -1;
    while v < s {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (r.ln() / log_q).floor() as i64;
        w += 1 + skip;
        while w >= v as i64 && v < s {
            w -= v as i64;
            v += 1;
        }
        if v < s {
            out.push(((base + v) as NodeId, (base + w as usize) as NodeId));
        }
    }
}

fn all_pairs(s: usize, base: usize, out: &mut Vec<(NodeId, NodeId)>) {
    for v in 1..s {
        for w in 0..v {
            out.push(((base + v) as NodeId, (base + w) as NodeId));
        }
    }
}

/// `G(n, p)` as originally sampled and built.
fn gnp_ref<R: Rng>(n: usize, p: f64, rng: &mut R) -> Csr {
    let mut pairs = Vec::new();
    if n >= 2 && p == 1.0 {
        all_pairs(n, 0, &mut pairs);
    } else if n >= 2 && p > 0.0 {
        ln_skip_rows(n, p, 0, rng, &mut pairs);
    }
    sort_build(n, pairs)
}

/// `clustered` as originally sampled and built.
fn clustered_ref<R: Rng>(k: usize, s: usize, intra_p: f64, bridge_factor: f64, rng: &mut R) -> Csr {
    let mut pairs = Vec::new();
    for c in 0..k {
        if intra_p == 1.0 {
            all_pairs(s, c * s, &mut pairs);
        } else if intra_p > 0.0 {
            ln_skip_rows(s, intra_p, c * s, rng, &mut pairs);
        }
    }
    let mut span = 1usize;
    while span < k {
        let mut lo = 0usize;
        while lo + span < k {
            let a_nodes = span * s;
            let b_lo = (lo + span) * s;
            let b_nodes = (lo + 2 * span).min(k) * s - b_lo;
            let quota = (bridge_factor * ((a_nodes as f64) * (b_nodes as f64)).sqrt()).ceil();
            for _ in 0..quota as usize {
                let u = lo * s + rng.gen_range(0..a_nodes);
                let v = b_lo + rng.gen_range(0..b_nodes);
                pairs.push((u as NodeId, v as NodeId));
            }
            lo += 2 * span;
        }
        span *= 2;
    }
    sort_build(k * s, pairs)
}

fn check_gnp(n: usize, p: f64, seed: u64) {
    let (mut a, mut b) = (rng_from_seed(seed), rng_from_seed(seed));
    let g = gnp(n, p, &mut a).unwrap();
    assert_csr_eq(&g, &gnp_ref(n, p, &mut b), &format!("gnp({n}, {p}) seed {seed}"));
    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "gnp({n}, {p}) seed {seed}: draws consumed");
}

fn check_clustered(k: usize, s: usize, intra_p: f64, bridge_factor: f64, seed: u64) {
    let (mut a, mut b) = (rng_from_seed(seed), rng_from_seed(seed));
    let (g, colors) = clustered(k, s, intra_p, bridge_factor, &mut a).unwrap();
    let what = format!("clustered({k}, {s}, {intra_p}, {bridge_factor}) seed {seed}");
    assert_csr_eq(&g, &clustered_ref(k, s, intra_p, bridge_factor, &mut b), &what);
    assert!(colors.iter().enumerate().all(|(v, &c)| c as usize == v / s), "{what}: colours");
    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{what}: draws consumed");
}

/// The class-level edge probability of the benchmark's DHC workloads.
fn class_p(s: usize) -> f64 {
    8.0 * (s as f64).ln() / (s - 1) as f64
}

#[test]
fn gnp_matches_the_ln_skip_and_sort_build() {
    for n in [0, 1, 2, 3, 17, 320, 1024] {
        for p in [1e-4, 0.01, 0.217, 0.5, 0.757, 0.894, 0.999, 0.0, 1.0] {
            for seed in [0, 7, 1_000_003] {
                check_gnp(n, p, seed);
            }
        }
    }
}

#[test]
fn benchmark_gnp_inputs_match() {
    let upcast_p = (1024f64).ln() / 32.0;
    for i in 0..32 {
        let seed = derive_seed(i, 0x6E);
        check_gnp(320, class_p(40), seed);
        check_gnp(1024, upcast_p, seed);
    }
}

#[test]
fn benchmark_clustered_inputs_match() {
    for i in 0..32 {
        check_clustered(16, 32, class_p(32), 3.0, derive_seed(i, 0x6E));
    }
}

#[test]
fn ragged_and_edge_case_clusters_match() {
    for seed in 0..4 {
        check_clustered(13, 10, 0.8, 3.0, seed);
        check_clustered(5, 12, 0.7, 0.0, seed);
        check_clustered(3, 4, 1.0, 1.0, seed);
        check_clustered(1, 30, 0.5, 3.0, seed);
    }
}
