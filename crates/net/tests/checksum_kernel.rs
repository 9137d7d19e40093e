//! Differential test of the wide checksum kernel against the RFC 1071
//! definition: one 16-bit big-endian word at a time through a single
//! accumulator. The kernel must return the same folded value — including
//! the 0x0000 / 0xFFFF representative — for every input.

use mflow_net::checksum::ones_complement_sum;

/// RFC 1071 §4.1, literally: sum 16-bit words, pad an odd tail with a
/// zero byte, fold the carries back in.
fn rfc1071_reference(data: &[u8], initial: u32) -> u32 {
    let mut sum = initial as u64;
    for word in data.chunks(2) {
        let hi = word[0] as u64;
        let lo = word.get(1).copied().unwrap_or(0) as u64;
        sum += (hi << 8) | lo;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u32
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

const MAX_LEN: usize = 2100;

#[test]
fn every_length_alignment_and_initial_matches_the_reference() {
    let mut rng = 0x9E3779B97F4A7C15u64;
    // Over-allocated so every start alignment 0..8 has MAX_LEN bytes.
    let buf: Vec<u8> = (0..MAX_LEN + 8).map(|_| xorshift(&mut rng) as u8).collect();
    for len in 0..=MAX_LEN {
        for align in 0..8 {
            let data = &buf[align..align + len];
            let random = xorshift(&mut rng) as u32;
            // Unfolded partial sums are legal inputs, up to u32::MAX.
            for initial in [0, random & 0xFFFF, random, u32::MAX] {
                assert_eq!(
                    ones_complement_sum(data, initial),
                    rfc1071_reference(data, initial),
                    "len {len} align {align} initial {initial:#x}"
                );
            }
        }
    }
}

#[test]
fn all_zero_input_sums_to_zero_and_all_ones_to_ffff() {
    let zeros = vec![0u8; MAX_LEN + 8];
    let ones = vec![0xFFu8; MAX_LEN + 8];
    for len in 0..=MAX_LEN {
        for align in 0..8 {
            assert_eq!(ones_complement_sum(&zeros[align..align + len], 0), 0);
            let data = &ones[align..align + len];
            // A positive multiple of 0xFFFF folds to 0xFFFF, never to
            // 0x0000; an odd length adds a trailing 0xFF00 word.
            assert_eq!(ones_complement_sum(data, 0), rfc1071_reference(data, 0));
            assert_eq!(
                ones_complement_sum(data, 0xFFFF),
                rfc1071_reference(data, 0xFFFF)
            );
            if len >= 2 && len % 2 == 0 {
                assert_eq!(ones_complement_sum(data, 0), 0xFFFF, "len {len}");
            }
        }
    }
}
