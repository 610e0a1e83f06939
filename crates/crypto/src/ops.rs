//! Cryptographic operation counters, sharded per thread on the global
//! telemetry registry.
//!
//! The data plane's performance story is entirely about *how many* AES
//! block operations and key expansions run per packet (paper §7.1: the
//! border router is AES-bound). These counters make that number
//! observable, so tests can *prove* claims like "a SegR packet-hop
//! validates with two AES blocks and no key expansion" or "the gateway
//! performs one key expansion and one AES block per hop and packet"
//! instead of inferring them from throughput.
//!
//! Storage lives in [`colibri_telemetry::global`]: each thread lazily
//! registers its own shard (`crypto_thread_<n>`) and keeps the counter
//! handles in a thread-local. The owning thread is the shard's only
//! writer, so the record path is a plain load and store
//! ([`Counter::add_sole_writer`]) rather than a locked read-modify-write:
//! with AES-NI a block costs ~30 cycles, and a locked add would be a
//! third of that. An `N`-lane batch counts once per call (`+N`), not per
//! lane iteration, and both AES backends count identically.
//!
//! [`aes_block_ops`] / [`key_expansions`] are compatibility shims that
//! read the *calling thread's* shard only, preserving the original
//! thread-local delta semantics (existing op-count tests keep passing
//! under parallel test execution). A scrape of the global registry sums
//! every thread's shard.

use colibri_telemetry::{global, Counter, Stability};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Metric name for AES block operations (encrypt + decrypt, all widths).
pub const METRIC_AES_BLOCK_OPS: &str = "colibri_crypto_aes_block_ops_total";
/// Metric name for AES-128 key-schedule expansions.
pub const METRIC_KEY_EXPANSIONS: &str = "colibri_crypto_key_expansions_total";

static THREAD_SEQ: AtomicU64 = AtomicU64::new(0);

struct ThreadCells {
    aes_blocks: Counter,
    key_expansions: Counter,
}

thread_local! {
    static CELLS: OnceCell<ThreadCells> = const { OnceCell::new() };
}

fn with_cells<R>(f: impl FnOnce(&ThreadCells) -> R) -> R {
    CELLS.with(|c| {
        let cells = c.get_or_init(|| {
            let ord = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
            let shard = global().shard(&format!("crypto_thread_{ord}"));
            ThreadCells {
                aes_blocks: shard.counter(
                    METRIC_AES_BLOCK_OPS,
                    Stability::Invariant,
                    "AES block operations (scalar and interleaved, per logical block)",
                ),
                key_expansions: shard.counter(
                    METRIC_KEY_EXPANSIONS,
                    Stability::Invariant,
                    "AES-128 key-schedule expansions (new counts 1, new_each counts N)",
                ),
            }
        });
        f(cells)
    })
}

/// Total AES block operations (encrypt + decrypt, scalar and 4-wide)
/// performed by this thread since it started.
pub fn aes_block_ops() -> u64 {
    with_cells(|c| c.aes_blocks.get())
}

/// Total AES-128 key expansions performed by this thread since it
/// started (scalar `Aes128::new` counts 1, `Aes128::new_each::<N>`
/// counts `N`).
pub fn key_expansions() -> u64 {
    with_cells(|c| c.key_expansions.get())
}

#[inline]
pub(crate) fn record_aes_blocks(n: u64) {
    with_cells(|c| c.aes_blocks.add_sole_writer(n));
}

#[inline]
pub(crate) fn record_key_expansions(n: u64) {
    with_cells(|c| c.key_expansions.add_sole_writer(n));
}

#[cfg(test)]
mod tests {
    use crate::aes::Aes128;

    #[test]
    fn counters_track_block_ops_and_expansions() {
        let b0 = super::aes_block_ops();
        let x0 = super::key_expansions();
        let aes = Aes128::new(&[7u8; 16]);
        assert_eq!(super::key_expansions() - x0, 1);
        let mut block = [0u8; 16];
        aes.encrypt_block(&mut block);
        assert_eq!(super::aes_block_ops() - b0, 1);
        let _blocks = Aes128::encrypt_each([&aes; 4], |_| [0u8; 16]);
        assert_eq!(super::aes_block_ops() - b0, 5);
        let _four = Aes128::new_each([[1u8; 16]; 4].each_ref());
        assert_eq!(super::key_expansions() - x0, 5);
    }

    #[test]
    fn global_scrape_sees_thread_shards() {
        let before = colibri_telemetry::global().snapshot().total(super::METRIC_AES_BLOCK_OPS);
        let aes = Aes128::new(&[9u8; 16]);
        let mut block = [0u8; 16];
        aes.encrypt_block(&mut block);
        let after = colibri_telemetry::global().snapshot().total(super::METRIC_AES_BLOCK_OPS);
        // Other test threads may add ops concurrently; ours is included.
        assert!(after > before);
    }
}
