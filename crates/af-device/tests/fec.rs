//! FEC recovery pinned bit-exact under *every* loss pattern.
//!
//! The parity code's contract is absolute: any combination of up to `m`
//! erased shards per group — data, parity, or a mix — reconstructs the
//! original payload stream byte for byte.  These tests enumerate the
//! complete loss-pattern space for a set of configurations, then fuzz
//! random configurations, payload shapes, and erasure masks on top.

use af_device::fec::{FecConfig, FecDecoder, FecEncoder, FecFrame};
use proptest::prelude::*;

/// Deterministic payload bytes so failures reproduce.
fn payload(seed: u64, group: usize, index: usize, len: usize) -> Vec<u8> {
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(group as u64)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(index as u64);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

/// Encodes `groups` full groups, erases each group's shards named by its
/// mask (bit `i` of `masks[g]` = in-group shard index `i`), decodes what
/// survives, and returns the delivered payload stream.
fn run_with_losses(cfg: FecConfig, payloads: &[Vec<u8>], masks: &[u32]) -> Vec<Vec<u8>> {
    let mut enc = FecEncoder::new(cfg);
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for p in payloads {
        enc.push(p, |f| frames.push(f.to_vec()));
    }
    enc.flush(|f| frames.push(f.to_vec()));

    let per_group = cfg.k + cfg.m;
    let mut dec = FecDecoder::new();
    let mut delivered = Vec::new();
    for (n, bytes) in frames.iter().enumerate() {
        let (group, slot) = (n / per_group, n % per_group);
        if masks.get(group).is_some_and(|mask| mask >> slot & 1 == 1) {
            continue; // Erased on the wire.
        }
        let frame = FecFrame::decode(bytes).expect("encoder output decodes");
        dec.push(frame, |p| delivered.push(p.to_vec()));
    }
    delivered
}

/// Sorts a payload stream for order-insensitive comparison.  The decoder
/// delivers in arrival-then-recovery order — payloads are self-describing
/// packets, so the contract is the exact *set* of bytes, not the order.
fn sorted(mut payloads: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    payloads.sort();
    payloads
}

/// Every subset of up to `m` erasures out of `k + m` shards, as bitmasks.
fn all_loss_masks(cfg: FecConfig) -> Vec<u32> {
    let shards = cfg.k + cfg.m;
    (0u32..1 << shards)
        .filter(|mask| mask.count_ones() as usize <= cfg.m)
        .collect()
}

#[test]
fn every_loss_pattern_up_to_m_recovers_bit_exact() {
    for (k, m) in [(1, 1), (2, 1), (2, 2), (4, 2), (3, 3), (8, 2), (5, 4)] {
        let cfg = FecConfig::new(k, m);
        let payloads: Vec<Vec<u8>> = (0..k)
            .map(|i| payload(7, 0, i, 20 + 7 * i)) // Distinct lengths too.
            .collect();
        for mask in all_loss_masks(cfg) {
            let got = run_with_losses(cfg, &payloads, &[mask]);
            assert_eq!(
                sorted(got),
                sorted(payloads.clone()),
                "k={k} m={m} mask={mask:#b}: stream not recovered bit-exact"
            );
        }
    }
}

#[test]
fn one_pattern_beyond_m_is_not_silently_wrong() {
    // m+1 data erasures are unrecoverable: the survivors must still come
    // through exact, and nothing fabricated may appear in their place.
    let cfg = FecConfig::new(4, 2);
    let payloads: Vec<Vec<u8>> = (0..4).map(|i| payload(11, 0, i, 32)).collect();
    let got = run_with_losses(cfg, &payloads, &[0b000_0111]); // Data 0,1,2 gone.
    assert_eq!(got, vec![payloads[3].clone()]);
}

#[test]
fn independent_masks_across_consecutive_groups() {
    // Each group recovers on its own: rotate a burst-of-m mask through
    // three groups and require the whole stream back.
    let cfg = FecConfig::new(4, 2);
    let payloads: Vec<Vec<u8>> = (0..12)
        .map(|i| payload(23, i / 4, i % 4, 48))
        .collect();
    let masks = [0b00_0011u32, 0b00_1100, 0b11_0000];
    let got = run_with_losses(cfg, &payloads, &masks);
    assert_eq!(sorted(got), sorted(payloads));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random config, payload shapes, and ≤ m erasure mask: bit-exact.
    #[test]
    fn random_config_and_mask_recovers(
        k in 1usize..9,
        m in 1usize..5,
        seed in any::<u64>(),
        mask_bits in any::<u32>(),
        base_len in 1usize..120,
    ) {
        let cfg = FecConfig::new(k, m);
        let payloads: Vec<Vec<u8>> = (0..k)
            .map(|i| payload(seed, 0, i, base_len + i))
            .collect();
        // Keep the first ≤ m set bits among the group's shard positions.
        let shards = (cfg.k + cfg.m) as u32;
        let mut mask = 0u32;
        let mut kept = 0;
        for bit in 0..shards {
            if kept < cfg.m && mask_bits >> bit & 1 == 1 {
                mask |= 1 << bit;
                kept += 1;
            }
        }
        let got = run_with_losses(cfg, &payloads, &[mask]);
        prop_assert_eq!(sorted(got), sorted(payloads));
    }

    /// Short tail groups closed by `flush` obey the same contract.
    #[test]
    fn random_tail_group_recovers(
        tail in 1usize..4,
        seed in any::<u64>(),
        drop_slot in 0usize..6,
    ) {
        let cfg = FecConfig::new(4, 2);
        let payloads: Vec<Vec<u8>> = (0..tail)
            .map(|i| payload(seed, 0, i, 40))
            .collect();
        let mut enc = FecEncoder::new(cfg);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for p in &payloads {
            enc.push(p, |f| frames.push(f.to_vec()));
        }
        enc.flush(|f| frames.push(f.to_vec()));
        // The tail group really is tail + m frames, and any single loss
        // (the parity declares the short k) still recovers.
        prop_assert_eq!(frames.len(), tail + cfg.m);
        let mut dec = FecDecoder::new();
        let mut got = Vec::new();
        for (n, bytes) in frames.iter().enumerate() {
            if n == drop_slot % (tail + cfg.m) {
                continue;
            }
            let frame = FecFrame::decode(bytes).expect("encoder output decodes");
            dec.push(frame, |p| got.push(p.to_vec()));
        }
        prop_assert_eq!(sorted(got), sorted(payloads));
    }
}
