//! The round engine's within-round parallelism must be an implementation
//! detail: for a fixed seed, every `DhcConfig::with_engine_threads` level
//! (1, 2, and all cores) must produce exactly the same cycles, metrics,
//! traces, and errors for DRA, DHC1, DHC2, and Upcast. The compute phase
//! writes only per-node effect scratch and the commit fold applies effects
//! in ascending node-id order — these tests pin that contract end to end.

use dhc_congest::{Config, Network, TraceEvent};
use dhc_core::dra::DraNode;
use dhc_core::{run_dhc1, run_dhc2, run_dra, run_upcast, DhcConfig};
use dhc_graph::{generator, rng::rng_from_seed, thresholds, Graph};

fn dense_graph(n: usize, seed: u64) -> Graph {
    generator::gnp(n, 0.6, &mut rng_from_seed(seed)).unwrap()
}

/// Engine-thread settings the acceptance criteria pin: single-threaded,
/// two workers, and all available cores.
const THREAD_LEVELS: [usize; 3] = [1, 2, 0];

#[test]
fn dra_identical_across_engine_threads() {
    let g = generator::complete(24);
    let base = DhcConfig::new(3);
    let serial = run_dra(&g, &base.clone().with_engine_threads(1)).unwrap();
    for threads in THREAD_LEVELS {
        let out = run_dra(&g, &base.clone().with_engine_threads(threads)).unwrap();
        assert_eq!(serial.cycle.order(), out.cycle.order(), "cycle diverged at {threads} threads");
        assert_eq!(serial.metrics, out.metrics, "metrics diverged at {threads} threads");
        assert_eq!(serial.phases, out.phases, "phases diverged at {threads} threads");
    }
}

#[test]
fn dhc1_identical_across_engine_threads() {
    let g = dense_graph(160, 21);
    let base = DhcConfig::new(23).with_partitions(5);
    let serial = run_dhc1(&g, &base.clone().with_engine_threads(1));
    for threads in THREAD_LEVELS {
        let out = run_dhc1(&g, &base.clone().with_engine_threads(threads));
        match (&serial, &out) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.cycle.order(), b.cycle.order(), "{threads} threads");
                assert_eq!(a.metrics, b.metrics, "{threads} threads");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{threads} threads"),
            (a, b) => panic!("outcomes diverged at {threads} threads: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn dhc2_identical_across_engine_threads() {
    let g = dense_graph(192, 7);
    let base = DhcConfig::new(11).with_partitions(6);
    let serial = run_dhc2(&g, &base.clone().with_engine_threads(1)).unwrap();
    for threads in THREAD_LEVELS {
        let out = run_dhc2(&g, &base.clone().with_engine_threads(threads)).unwrap();
        assert_eq!(serial.cycle.order(), out.cycle.order(), "cycle diverged at {threads} threads");
        assert_eq!(serial.metrics, out.metrics, "metrics diverged at {threads} threads");
        assert_eq!(serial.phases, out.phases, "phases diverged at {threads} threads");
    }
}

#[test]
fn upcast_identical_across_engine_threads() {
    let n = 200;
    let p = thresholds::edge_probability(n, 0.5, 2.0);
    let g = generator::gnp(n, p, &mut rng_from_seed(150)).unwrap();
    let base = DhcConfig::new(151);
    let serial = run_upcast(&g, &base.clone().with_engine_threads(1)).unwrap();
    for threads in THREAD_LEVELS {
        let out = run_upcast(&g, &base.clone().with_engine_threads(threads)).unwrap();
        assert_eq!(serial.cycle.order(), out.cycle.order(), "cycle diverged at {threads} threads");
        assert_eq!(serial.metrics, out.metrics, "metrics diverged at {threads} threads");
        assert_eq!(serial.phases, out.phases, "phases diverged at {threads} threads");
    }
}

/// Trace-level pin: the full engine event stream (sends, wake-ups, wakes,
/// halts) of a whole-graph DRA run is bit-identical at every thread count.
#[test]
fn dra_trace_identical_across_engine_threads() {
    let g = generator::complete(24);
    let run = |threads: usize| {
        let nodes: Vec<DraNode> = (0..24).map(|v| DraNode::new(v, 0, 99)).collect();
        let cfg = Config::default()
            .with_bandwidth_words(16)
            .with_trace_capacity(1_000_000)
            .with_engine_threads(threads);
        let mut net = Network::new(&g, cfg, nodes).unwrap();
        net.run().unwrap();
        let trace: Vec<TraceEvent> = net.trace().events();
        let (report, nodes) = net.finish();
        let links: Vec<_> = nodes.iter().map(|nd| (nd.cycindex, nd.succ, nd.pred)).collect();
        (report, trace, links)
    };
    let baseline = run(1);
    assert!(!baseline.1.is_empty(), "trace should have recorded events");
    for threads in [2, 4, 0] {
        assert_eq!(baseline, run(threads), "diverged at engine_threads = {threads}");
    }
}

/// The two parallelism axes (across Phase-1 partitions, within rounds)
/// compose without changing results.
#[test]
fn engine_threads_compose_with_phase1_parallelism() {
    let g = dense_graph(192, 7);
    let base = DhcConfig::new(11).with_partitions(6);
    let serial = run_dhc2(&g, &base.clone()).unwrap();
    let both = run_dhc2(&g, &base.with_parallelism(2).with_engine_threads(2)).unwrap();
    assert_eq!(serial.cycle.order(), both.cycle.order());
    assert_eq!(serial.metrics, both.metrics);
    assert_eq!(serial.phases, both.phases);
}
