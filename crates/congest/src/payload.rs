//! Message payloads and their CONGEST size accounting.

/// A message payload with an explicit size in *words*.
///
/// In the CONGEST model a message is `O(log n)` bits; we count sizes in
/// units of one `Θ(log n)`-bit **word** (enough for a node id, an index, or
/// a small tag). A payload carrying `k` node ids should report `k` words;
/// the engine enforces the per-edge-per-round budget in these units and
/// reports totals in [`crate::Metrics`].
///
/// The engine runs each network on the thread that drives it, so
/// payloads need no thread-safety bounds.
pub trait Payload: Clone + std::fmt::Debug {
    /// Size of this message in `Θ(log n)`-bit words. Must be ≥ 1.
    fn words(&self) -> usize {
        1
    }
}

/// Unit payload for protocols that only need signal messages.
impl Payload for () {
    fn words(&self) -> usize {
        1
    }
}

impl Payload for u64 {}
impl Payload for usize {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Wide(Vec<usize>);
    impl Payload for Wide {
        fn words(&self) -> usize {
            self.0.len().max(1)
        }
    }

    #[test]
    fn default_word_count_is_one() {
        assert_eq!(().words(), 1);
        assert_eq!(7u64.words(), 1);
    }

    #[test]
    fn custom_word_count() {
        assert_eq!(Wide(vec![1, 2, 3]).words(), 3);
        assert_eq!(Wide(vec![]).words(), 1);
    }
}
