//! `parse_overlay_frame_ref` promises a parse "without copying or
//! allocating", and the runtime's workers rely on it per frame, and on
//! its two halves — the header walk and the checksum verdicts — when a
//! pipeline runs them apart. The `_into` builders promise the sending
//! side the same once their scratch `Vec` has held a frame as long.
//! Counted
//! from outside, under a counting global allocator — so this binary holds
//! exactly one test: a second one, on its own thread, would allocate into
//! the same count.

use mflow_metrics::CountingAlloc;
use mflow_net::checksum::lane_sum;
use mflow_net::frame::{
    build_geneve_frame, build_geneve_frame_into, build_overlay_frame, build_overlay_frame_into,
    parse_overlay_frame_ref, walk_overlay_frame, OverlayFrameSpec,
};
use mflow_net::geneve::GeneveHeader;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `frame` (Geneve, no options) with two option TLVs spliced in behind
/// the tunnel header and the outer lengths and checksums re-sealed — the
/// outer UDP checksum by zeroing it ("not computed").
fn with_geneve_options(mut frame: Vec<u8>) -> Vec<u8> {
    const OUTER_IP: usize = 14;
    const OUTER_UDP: usize = 34;
    const TUNNEL: usize = 42;
    let mut header = Vec::new();
    GeneveHeader::new(42)
        .with_option(0x0102, 0x80, vec![1, 2, 3, 4])
        .with_option(0x0103, 0x01, vec![9; 8])
        .encode(&mut header);
    frame.splice(TUNNEL..TUNNEL + GeneveHeader::BASE_LEN, header);
    let ip_len = (frame.len() - OUTER_IP) as u16;
    let udp_len = (frame.len() - OUTER_UDP) as u16;
    frame[OUTER_IP + 2..OUTER_IP + 4].copy_from_slice(&ip_len.to_be_bytes());
    frame[OUTER_IP + 10..OUTER_IP + 12].copy_from_slice(&[0, 0]);
    let ck = mflow_net::checksum::checksum(&frame[OUTER_IP..OUTER_UDP]);
    frame[OUTER_IP + 10..OUTER_IP + 12].copy_from_slice(&ck.to_be_bytes());
    frame[OUTER_UDP + 4..OUTER_UDP + 6].copy_from_slice(&udp_len.to_be_bytes());
    frame[OUTER_UDP + 6..OUTER_UDP + 8].copy_from_slice(&[0, 0]);
    frame
}

#[test]
fn the_overlay_parse_never_allocates() {
    let spec = OverlayFrameSpec::example_tcp(1, 7, vec![0x5A; 200]);
    let frames = [
        ("vxlan", build_overlay_frame(&spec)),
        ("geneve", build_geneve_frame(&spec)),
        ("geneve with options", with_geneve_options(build_geneve_frame(&spec))),
    ];
    for (shape, frame) in &frames {
        let before = ALLOC.allocations();
        let payload_len = parse_overlay_frame_ref(frame).map(|view| view.payload.len());
        let allocations = ALLOC.allocations() - before;
        assert_eq!(payload_len, Ok(200), "{shape}");
        assert_eq!(allocations, 0, "{shape}");

        let before = ALLOC.allocations();
        let (view, lanes) = walk_overlay_frame(frame).expect(shape);
        let walked = ALLOC.allocations() - before;
        let verdict = lanes.verify(lane_sum(view.payload));
        let verified = ALLOC.allocations() - before - walked;
        assert_eq!((view.payload.len(), verdict), (200, Ok(())), "{shape}");
        assert_eq!((walked, verified), (0, 0), "{shape}: walk, verify");
    }

    let udp = OverlayFrameSpec::example_udp(2, vec![0xA5; 200]);
    let mut scratch = Vec::new();
    build_overlay_frame_into(&spec, &mut scratch); // warms it
    for (shape, spec) in [("tcp", &spec), ("udp", &udp)] {
        let before = ALLOC.allocations();
        build_overlay_frame_into(spec, &mut scratch);
        build_geneve_frame_into(spec, &mut scratch);
        let allocations = ALLOC.allocations() - before;
        assert_eq!(scratch, build_geneve_frame(spec), "{shape}");
        assert_eq!(allocations, 0, "{shape}: vxlan and geneve builds");
    }
}
