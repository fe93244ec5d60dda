//! The pinned instance pool of each workload and the correctness gate
//! every operation passes through.
//!
//! `pins.json` lists, per workload, the instance indices screened, the
//! ones excluded because the entry point returned a typed error (with
//! that error), and for every kept instance its edge count and the
//! simulated quantities it produced: rounds, messages, words and a digest
//! of the cycle order. These are fixed per instance, so any change to
//! them is a failed operation.

use crate::workload::{Input, Workload};
use dhc_core::{DhcError, RunOutcome};
use dhc_graph::cycle::is_hamiltonian_cycle;
use dhc_graph::rng::derive_seed;
use dhc_graph::NodeId;
use dhc_obs::json::Json;

/// The pins shipped with the benchmark.
const PINS_JSON: &str = include_str!("../pins.json");

/// Instances in one run's suite: one per stratum of the pinned pool. Eight
/// strata of a 16-instance pool keep the suite's spread of work small
/// across seeds while a pass stays under a second long.
pub const STRATA: usize = 8;

/// What one instance produced, or must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Instance index: the seed its graph and configuration derive from.
    pub instance: u64,
    /// Edges of the generated graph.
    pub edges: u64,
    /// Simulated rounds.
    pub rounds: u64,
    /// Simulated messages.
    pub messages: u64,
    /// Simulated message words.
    pub words: u64,
    /// [`digest`] of the cycle order.
    pub digest: u64,
}

impl Pin {
    /// The quantities a successful call on `input` produced.
    pub fn observe(instance: u64, input: &Input, outcome: &RunOutcome) -> Pin {
        let m = &outcome.metrics;
        Pin {
            instance,
            edges: input.graph.edge_count() as u64,
            rounds: m.rounds as u64,
            messages: m.messages,
            words: m.words,
            digest: digest(outcome.cycle.order()),
        }
    }

    /// The pin as a `pins.json` entry.
    pub fn to_json(self) -> Json {
        Json::obj()
            .set("instance", Json::u64(self.instance))
            .set("edges", Json::u64(self.edges))
            .set("rounds", Json::u64(self.rounds))
            .set("messages", Json::u64(self.messages))
            .set("words", Json::u64(self.words))
            .set("digest", Json::str(format!("{:016x}", self.digest)))
    }

    fn from_json(v: &Json) -> Option<Pin> {
        let num = |key| v.get(key).and_then(Json::as_u64);
        Some(Pin {
            instance: num("instance")?,
            edges: num("edges")?,
            rounds: num("rounds")?,
            messages: num("messages")?,
            words: num("words")?,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
        })
    }
}

/// FNV-1a over the cycle order: equal orders give equal digests.
pub fn digest(order: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in order {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Checks one call against its pin: no typed error, a cycle that passes
/// `is_hamiltonian_cycle`, and unchanged simulated quantities.
///
/// # Errors
///
/// Why the operation failed.
pub fn verify(
    pin: &Pin,
    input: &Input,
    result: &Result<RunOutcome, DhcError>,
) -> Result<(), String> {
    let outcome = result.as_ref().map_err(|e| format!("instance {}: {e}", pin.instance))?;
    if !is_hamiltonian_cycle(&input.graph, outcome.cycle.order()) {
        return Err(format!("instance {}: the returned cycle is not Hamiltonian", pin.instance));
    }
    let seen = Pin::observe(pin.instance, input, outcome);
    if seen != *pin {
        return Err(format!("instance {}: pinned {pin:?}, observed {seen:?}", pin.instance));
    }
    Ok(())
}

/// The pinned pool of `workload`, in file order.
///
/// # Errors
///
/// When `pins.json` has no well-formed pool for the workload.
pub fn pool(workload: Workload) -> Result<Vec<Pin>, String> {
    let doc = Json::parse(PINS_JSON).map_err(|e| format!("pins.json: {e:?}"))?;
    let entries = doc
        .get(workload.name())
        .and_then(|w| w.get("pool"))
        .and_then(Json::as_array)
        .ok_or_else(|| format!("pins.json has no pool for {}", workload.name()))?;
    let pool = entries
        .iter()
        .map(Pin::from_json)
        .collect::<Option<Vec<Pin>>>()
        .ok_or_else(|| format!("pins.json: malformed pin in the {} pool", workload.name()))?;
    if pool.is_empty() {
        return Err(format!("pins.json: the {} pool is empty", workload.name()));
    }
    Ok(pool)
}

/// The suite a run executes: the pool sorted by simulated messages and
/// cut into `strata` contiguous groups, with one instance drawn from
/// each group by `seed`. Different seeds run different instances, while
/// every suite spans the pool's range of work, so runs at different
/// seeds measure comparable amounts of work.
///
/// Seeds `2k - 1` and `2k` share their draw and take neighbouring
/// positions in every group, so when each group holds at least two
/// instances their suites share none: the held-out seed 2 runs none of
/// default seed 1's instances.
pub fn suite(pool: &[Pin], seed: u64, strata: usize) -> Vec<Pin> {
    let mut sorted = pool.to_vec();
    sorted.sort_by_key(|p| (p.messages, p.instance));
    let strata = strata.clamp(1, sorted.len());
    let pair = seed.div_ceil(2);
    (0..strata)
        .map(|j| {
            let lo = j * sorted.len() / strata;
            let width = ((j + 1) * sorted.len() / strata - lo) as u64;
            let position = (derive_seed(pair, j as u64) % width + seed % width) % width;
            sorted[lo + position as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_order() {
        assert_eq!(digest(&[0, 1, 2]), digest(&[0, 1, 2]));
        assert_ne!(digest(&[0, 1, 2]), digest(&[0, 2, 1]));
        assert_ne!(digest(&[]), digest(&[0]));
    }

    #[test]
    fn pins_round_trip_through_json() {
        let pin =
            Pin { instance: 7, edges: 9, rounds: 11, messages: 13, words: 17, digest: u64::MAX };
        assert_eq!(Pin::from_json(&pin.to_json()), Some(pin));
    }

    #[test]
    fn every_workload_has_a_pool() {
        for w in Workload::ALL {
            let pool = pool(w).unwrap();
            assert!(pool.len() >= STRATA, "{}", w.name());
        }
    }

    #[test]
    fn suites_take_one_instance_per_stratum() {
        let pool: Vec<Pin> = (0..12)
            .map(|i| Pin {
                instance: i,
                edges: 0,
                rounds: 0,
                messages: 100 - i,
                words: 0,
                digest: 0,
            })
            .collect();
        for seed in 0..20 {
            let suite = suite(&pool, seed, 4);
            assert_eq!(suite.len(), 4);
            for (j, pin) in suite.iter().enumerate() {
                // Stratum j holds the instances with the (3j..3j+3)-th
                // fewest messages: instances 11-3j, 10-3j, 9-3j.
                let lo = 9 - 3 * j as u64;
                assert!((lo..lo + 3).contains(&pin.instance), "seed {seed}: {suite:?}");
            }
            assert_eq!(suite, super::suite(&pool, seed, 4), "same seed, same suite");
        }
        let distinct: std::collections::HashSet<Vec<u64>> = (0..20)
            .map(|seed| suite(&pool, seed, 4).iter().map(|p| p.instance).collect())
            .collect();
        assert!(distinct.len() > 1, "seeds must select different suites");
    }

    #[test]
    fn partner_seeds_share_no_instance() {
        let synthetic: Vec<Pin> = (0..16)
            .map(|i| Pin { instance: i, edges: 0, rounds: 0, messages: i, words: 0, digest: 0 })
            .collect();
        for k in 1..20 {
            let a: Vec<u64> =
                suite(&synthetic, 2 * k - 1, STRATA).iter().map(|p| p.instance).collect();
            let b: Vec<u64> = suite(&synthetic, 2 * k, STRATA).iter().map(|p| p.instance).collect();
            assert!(
                a.iter().all(|i| !b.contains(i)),
                "seeds {} and {}: {a:?} {b:?}",
                2 * k - 1,
                2 * k
            );
        }
        // The shipped pools hold a disjoint default and held-out suite.
        for w in Workload::ALL {
            let pool = pool(w).unwrap();
            let default = suite(&pool, 1, STRATA);
            assert!(suite(&pool, 2, STRATA).iter().all(|p| !default.contains(p)), "{}", w.name());
        }
    }

    #[test]
    fn a_tampered_pin_fails_the_operation() {
        let w = Workload::Dhc2Clustered;
        let shape = w.tiny();
        let (instance, input, result) = (0..)
            .map(|i| {
                let input = w.generate(shape, i);
                let result = w.call(shape, &input, &w.config(shape, i));
                (i, input, result)
            })
            .find(|(_, _, r)| r.is_ok())
            .unwrap();
        let pin = Pin::observe(instance, &input, result.as_ref().unwrap());
        assert_eq!(verify(&pin, &input, &result), Ok(()));
        for tampered in [
            Pin { rounds: pin.rounds + 1, ..pin },
            Pin { messages: pin.messages - 1, ..pin },
            Pin { words: pin.words + 1, ..pin },
            Pin { digest: pin.digest ^ 1, ..pin },
            Pin { edges: pin.edges + 1, ..pin },
        ] {
            let err = verify(&tampered, &input, &result).unwrap_err();
            assert!(err.contains("pinned"), "{err}");
        }
        let failed: Result<RunOutcome, DhcError> = Err(DhcError::GraphTooSmall { n: 2 });
        assert!(verify(&pin, &input, &failed).unwrap_err().contains("cannot contain"));
    }
}
