//! RFC 1071 Internet checksum, used by IPv4, UDP and TCP.

/// Folds a one's-complement accumulator to 16 bits (end-around carry).
#[inline]
pub fn fold(sum: u64) -> u32 {
    // Branch-free: 64 -> 33 -> 32 -> 17 -> 16 bits, each step adding the
    // carried-out half back in.
    let sum = (sum >> 32) + (sum & 0xFFFF_FFFF);
    let sum = (sum >> 32) + (sum & 0xFFFF_FFFF);
    let sum = (sum >> 16) + (sum & 0xFFFF);
    ((sum >> 16) + (sum & 0xFFFF)) as u32
}

/// The *unfolded lane sum* of `data`: its bytes read as native-endian
/// `u32` lanes (a final 1..=3 bytes zero-padded, as the RFC pads the
/// final word) and added up in a `u64`.
///
/// One's-complement addition is associative and commutative modulo
/// 0xFFFF, and 2^16 ≡ 1 there, so grouping the byte stream into any
/// word size yields the same folded sum as the RFC's 16-bit walk; and
/// the sum is byte-order independent (RFC 1071 §2(B)): summing the
/// words byte-swapped yields the byte-swapped sum. So lane sums *add*:
/// the checksum of a buffer made of several pieces, each starting on an
/// even offset, is the pieces' lane sums (and [`pseudo_header_lanes`])
/// added together and put through [`fold_lanes`] once — no piece is
/// folded or byte-swapped on its own.
#[inline(always)]
pub fn lane_sum(data: &[u8]) -> u64 {
    let (blocks, rest) = data.split_at(data.len() / 32 * 32);
    let rest = short_lane_sum(rest);
    if blocks.is_empty() {
        rest
    } else {
        rest + block_lane_sum(blocks)
    }
}

/// [`lane_sum`] of whole 32-byte blocks: eight lanes, each into its own
/// `u64` accumulator — no add waits on the previous one and no lane is
/// byte-swapped, which is the shape LLVM turns into SIMD adds. A `u64`
/// lane overflows only past 2^32 blocks (128 GiB). Kept out of line: the
/// loop is vectorised as written here, and not reliably once it has been
/// merged into a caller.
#[inline(never)]
fn block_lane_sum(blocks: &[u8]) -> u64 {
    let mut lanes = [0u64; 8];
    for block in blocks.chunks_exact(32) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *lane += u32::from_ne_bytes(word.try_into().expect("4-byte lane")) as u64;
        }
    }
    lanes.iter().sum()
}

/// [`lane_sum`] of a header whose size the compiler knows: `N / 4` loads
/// and adds, fully unrolled, no loop and no length test.
#[inline(always)]
pub fn lane_sum_fixed<const N: usize>(header: &[u8; N]) -> u64 {
    short_lane_sum(header)
}

/// [`lane_sum`] under a block (and every header is): the same lanes, one
/// at a time.
#[inline(always)]
fn short_lane_sum(data: &[u8]) -> u64 {
    let mut lanes4 = data.chunks_exact(4);
    let mut sum = 0u64;
    for word in &mut lanes4 {
        sum += u32::from_ne_bytes(word.try_into().expect("4-byte lane")) as u64;
    }
    // Last 0..=3 bytes. Spelled out per length because a variable-length
    // `copy_from_slice` into a zeroed word compiles to a `memcpy` call —
    // 4 ns on every header-sized sum.
    sum + match *lanes4.remainder() {
        [] => 0,
        [a] => u32::from_ne_bytes([a, 0, 0, 0]),
        [a, b] => u32::from_ne_bytes([a, b, 0, 0]),
        [a, b, c] => u32::from_ne_bytes([a, b, c, 0]),
        _ => unreachable!("chunks_exact(4) leaves fewer than 4 bytes"),
    } as u64
}

/// Folds a lane sum to 16 bits and puts it in host order: the one
/// `u16::from_be` that pays for loading every lane as the machine stores
/// it. A positive sum can never fold to zero, so the 0x0000/0xFFFF
/// representative is the one the 16-bit walk produces.
#[inline(always)]
pub fn fold_lanes(lanes: u64) -> u32 {
    u16::from_be(fold(lanes) as u16) as u32
}

/// Computes the one's-complement sum of `data` folded to 16 bits, starting
/// from `initial` (partial sum, host order; need not be pre-folded — the
/// final fold absorbs accumulated carries): [`lane_sum`], [`fold_lanes`],
/// then `initial` joins in host order.
#[inline]
pub fn ones_complement_sum(data: &[u8], initial: u32) -> u32 {
    fold(fold_lanes(lane_sum(data)) as u64 + initial as u64)
}

/// Finalizes a folded sum into the checksum field value.
#[inline]
pub fn finish(sum: u32) -> u16 {
    !(sum as u16)
}

/// Computes the Internet checksum of a buffer in one call.
pub fn checksum(data: &[u8]) -> u16 {
    finish(ones_complement_sum(data, 0))
}

/// Builds the IPv4 pseudo-header partial sum used by UDP and TCP.
#[inline(always)]
pub fn pseudo_header_sum(src: [u8; 4], dst: [u8; 4], proto: u8, len: u16) -> u32 {
    let mut sum = 0u32;
    sum += u16::from_be_bytes([src[0], src[1]]) as u32;
    sum += u16::from_be_bytes([src[2], src[3]]) as u32;
    sum += u16::from_be_bytes([dst[0], dst[1]]) as u32;
    sum += u16::from_be_bytes([dst[2], dst[3]]) as u32;
    sum += proto as u32;
    sum += len as u32;
    fold(sum as u64)
}

/// [`pseudo_header_sum`] as a lane sum: the same six wire words, as the
/// machine would load them, to add to the [`lane_sum`] of the segment.
#[inline(always)]
pub fn pseudo_header_lanes(src: [u8; 4], dst: [u8; 4], proto: u8, len: u16) -> u64 {
    u32::from_ne_bytes(src) as u64
        + u32::from_ne_bytes(dst) as u64
        + u16::from_ne_bytes([0, proto]) as u64
        + u16::from_ne_bytes(len.to_be_bytes()) as u64
}

/// Verifies a buffer whose checksum field is included: the folded sum of the
/// whole buffer must be `0xFFFF`.
pub fn verify(data: &[u8], pseudo: u32) -> bool {
    ones_complement_sum(data, pseudo) == 0xFFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_reference_vector() {
        // Example from RFC 1071 §3: the sum of these words.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let sum = ones_complement_sum(&data, 0);
        assert_eq!(sum, 0xddf2);
        assert_eq!(finish(sum), !0xddf2u16);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // [0x01, 0x02, 0x03] == words 0x0102, 0x0300
        assert_eq!(ones_complement_sum(&[1, 2, 3], 0), 0x0102 + 0x0300);
    }

    #[test]
    fn empty_buffer_checksum() {
        assert_eq!(checksum(&[]), 0xFFFF);
    }

    #[test]
    fn verify_roundtrip() {
        let mut buf = vec![0x45u8, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06];
        buf.extend_from_slice(&[0x00, 0x00]); // checksum placeholder
        buf.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let ck = checksum(&buf);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&buf, 0));
        buf[0] ^= 0x10; // corrupt a nibble
        assert!(!verify(&buf, 0));
    }

    #[test]
    fn known_ipv4_header_checksum() {
        // Classic textbook example (Wikipedia IPv4 header checksum article).
        let hdr = [
            0x45u8, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0,
            0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(checksum(&hdr), 0xb861);
    }

    #[test]
    fn lane_sums_of_even_offset_pieces_add_and_fold_once() {
        let data: Vec<u8> = (0..131u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = ones_complement_sum(&data, 0);
        for cut in (0..=data.len()).step_by(2) {
            let (head, tail) = data.split_at(cut);
            assert_eq!(fold_lanes(lane_sum(head) + lane_sum(tail)), whole, "cut at {cut}");
        }
        let header: &[u8; 20] = data[40..].first_chunk().unwrap();
        assert_eq!(lane_sum_fixed(header), lane_sum(&data[40..60]));
        let (src, dst) = ([192, 168, 0, 1], [10, 1, 2, 199]);
        assert_eq!(
            fold_lanes(pseudo_header_lanes(src, dst, 17, 0xBEEF)),
            pseudo_header_sum(src, dst, 17, 0xBEEF)
        );
    }

    #[test]
    fn pseudo_header_folds() {
        let sum = pseudo_header_sum([192, 168, 0, 1], [192, 168, 0, 199], 17, 20);
        assert!(sum <= 0xFFFF);
    }
}
