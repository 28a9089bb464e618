//! Property suite for the reactor's incremental frame reassembly: a
//! stream of well-formed frames must decode identically under **every**
//! TCP segmentation — byte-by-byte trickles, jumbo reads spanning many
//! frames, and arbitrary cuts in between. The reactor never controls
//! how the kernel chunks a stream, so [`FrameAssembler`] must not care.

use arbodom_service::protocol::{encode_payload, write_frame, PROTOCOL_V3};
use arbodom_service::{FrameAssembler, GraphSource, JobSpec, Request, ServiceError};
use proptest::prelude::*;

/// SplitMix64: one seed fans out into a structured stream + cut plan.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.u64()) * u128::from(bound)) >> 64) as u64
    }

    fn request(&mut self) -> Request {
        match self.below(4) {
            0 => Request::Ping,
            1 => Request::Stats,
            2 => Request::Hello,
            _ => {
                let jobs = (0..self.below(4))
                    .map(|_| {
                        JobSpec::new(GraphSource::Inline {
                            n: self.below(64) as u32,
                            edges: (0..self.below(16))
                                .map(|_| (self.u64() as u32, self.u64() as u32))
                                .collect(),
                            weights: None,
                        })
                    })
                    .collect();
                Request::Batch(jobs)
            }
        }
    }
}

/// The wire stream for `messages`, plus the expected reassembly.
fn stream_for(gen: &mut Gen) -> (Vec<u8>, Vec<(u8, Vec<u8>)>) {
    let count = 1 + gen.below(8) as usize;
    let mut stream = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..count {
        // Mixed version bytes on purpose: reassembly is version-agnostic;
        // the connection layer judges the byte, the framing just carries it.
        let version = 1 + gen.below(u64::from(PROTOCOL_V3)) as u8;
        let payload = encode_payload(&gen.request());
        write_frame(&mut stream, version, &payload).expect("write to vec");
        expected.push((version, payload));
    }
    (stream, expected)
}

/// Feeds `stream` to an assembler in chunks chosen by `gen`, harvesting
/// complete frames after every push.
fn reassemble(stream: &[u8], gen: &mut Gen, max_chunk: u64) -> Vec<(u8, Vec<u8>)> {
    let mut assembler = FrameAssembler::new();
    let mut got = Vec::new();
    let mut offset = 0;
    while offset < stream.len() {
        let take = (1 + gen.below(max_chunk) as usize).min(stream.len() - offset);
        assembler.push(&stream[offset..offset + take]);
        offset += take;
        while let Some(frame) = assembler.next_frame().expect("well-formed stream") {
            got.push(frame);
        }
    }
    assert_eq!(assembler.buffered(), 0, "no bytes may be left behind");
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_segmentation_reassembles_the_same_frames(seed: u64) {
        let mut gen = Gen(seed);
        let (stream, expected) = stream_for(&mut gen);
        // Byte-by-byte, small random cuts, and jumbo chunks must all
        // yield the identical frame sequence.
        for max_chunk in [1, 7, 4096] {
            let got = reassemble(&stream, &mut gen, max_chunk);
            prop_assert_eq!(&got, &expected, "max_chunk={}", max_chunk);
        }
    }

    #[test]
    fn reassembly_matches_one_shot_delivery(seed: u64) {
        let mut gen = Gen(seed);
        let (stream, expected) = stream_for(&mut gen);
        let mut assembler = FrameAssembler::new();
        assembler.push(&stream);
        let mut got = Vec::new();
        while let Some(frame) = assembler.next_frame().expect("well-formed stream") {
            got.push(frame);
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn hostile_headers_poison_before_the_payload_arrives(seed: u64) {
        let mut gen = Gen(seed);
        // Valid frames first, then a header declaring an absurd length:
        // the error must fire from the header alone.
        let (stream, expected) = stream_for(&mut gen);
        let mut assembler = FrameAssembler::new();
        assembler.push(&stream);
        let mut got = 0;
        while assembler.next_frame().expect("valid prefix").is_some() {
            got += 1;
        }
        prop_assert_eq!(got, expected.len());
        let declared = (64 << 20) + 1 + gen.below(1 << 30) as u32;
        let mut header = vec![PROTOCOL_V3];
        header.extend_from_slice(&declared.to_le_bytes());
        assembler.push(&header);
        prop_assert!(matches!(
            assembler.next_frame(),
            Err(ServiceError::FrameTooLarge(len)) if len == u64::from(declared)
        ));
    }
}
