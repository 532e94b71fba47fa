//! Property tests for the fleet wire protocol, through the streaming
//! buffer both state machines decode with ([`Frame::next`]): randomized
//! frame sequences fed in random chunk sizes come out exactly as encoded,
//! every proper prefix of a frame is "need more" and never an error, and
//! every single-bit flip is an error — a [`ProtoError`] value, never a
//! panic and never a silently wrong frame.

use strata_fleet::protocol::{Frame, ProtoError, MAGIC};
use strata_stats::rng::SmallRng;

/// Random printable-ish string, including pipes/newlines like real cell
/// keys and records.
fn rand_string(rng: &mut SmallRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len as u64 + 1) as usize;
    let alphabet: Vec<char> = ('a'..='z')
        .chain('0'..='9')
        .chain(['|', '(', ')', '=', '\n', ' ', '.', '-'])
        .collect();
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len() as u64) as usize])
        .collect()
}

fn rand_frame(rng: &mut SmallRng) -> Frame {
    match rng.gen_range(0u64..8) {
        0 => Frame::Welcome {
            filter: rand_string(rng, 60),
            scale: rng.next_u32(),
            variant: rng.next_u64(),
            manifest_len: rng.next_u32(),
            fingerprint: rng.next_u64(),
        },
        1 => Frame::Register {
            worker: rand_string(rng, 30),
        },
        2 => Frame::Fetch,
        3 => Frame::Assign {
            index: rng.next_u32(),
            key: rand_string(rng, 80),
        },
        4 => Frame::Wait {
            millis: rng.next_u32(),
        },
        5 => Frame::Finished,
        6 => Frame::Result {
            index: rng.next_u32(),
            key: rand_string(rng, 80),
            record: rand_string(rng, 400),
        },
        _ => Frame::Ping,
    }
}

/// Feeds `wire` into a receive buffer in random chunks of 1 to
/// `max_chunk` bytes, taking frames off as they complete.
fn stream(rng: &mut SmallRng, wire: &[u8], max_chunk: u64) -> Vec<Frame> {
    let (mut received, mut frames, mut at) = (Vec::new(), Vec::new(), 0);
    while at < wire.len() {
        let chunk = (rng.gen_range(1..max_chunk + 1) as usize).min(wire.len() - at);
        received.extend_from_slice(&wire[at..at + chunk]);
        at += chunk;
        while let Some(frame) = Frame::next(&mut received).expect("a valid stream") {
            frames.push(frame);
        }
    }
    assert!(received.is_empty(), "bytes left over after the last frame");
    frames
}

#[test]
fn random_frames_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_F1EE_7000_0001);
    for _ in 0..500 {
        let frame = rand_frame(&mut rng);
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).expect("valid frame decodes");
        assert_eq!(decoded, frame);
        assert_eq!(used, bytes.len(), "decode must consume the whole frame");
    }
    // Sequences, chunked from single bytes up to several frames at once.
    for max_chunk in [1, 2, 7, 64, 4096] {
        for _ in 0..10 {
            let frames: Vec<Frame> = (0..rng.gen_range(1u64..12))
                .map(|_| rand_frame(&mut rng))
                .collect();
            let wire: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
            assert_eq!(stream(&mut rng, &wire, max_chunk), frames);
        }
    }
}

#[test]
fn truncation_at_every_length_errors_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_F1EE_7000_0002);
    for _ in 0..50 {
        let bytes = rand_frame(&mut rng).encode();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            assert_eq!(
                Frame::decode(prefix).unwrap_err(),
                ProtoError::Truncated,
                "a prefix of {cut}/{} bytes is \"need more\", nothing else",
                bytes.len()
            );
            assert_eq!(Frame::next(&mut prefix.to_vec()), Ok(None));
        }
    }
}

/// Where the payload length sits in a frame: after magic, version and
/// kind.
const LEN_FIELD: std::ops::Range<usize> = 7..11;

/// A frame's bytes besides its payload: the header and the checksum.
const OVERHEAD: usize = 11 + 8;

#[test]
fn single_byte_corruption_errors_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_F1EE_7000_0003);
    for _ in 0..40 {
        let frame = rand_frame(&mut rng);
        let bytes = frame.encode();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[at] ^= 1 << bit;
                match Frame::next(&mut bad.clone()) {
                    Err(_) => continue,
                    Ok(Some(got)) => panic!("flipping bit {bit} of byte {at} yielded {got:?}"),
                    Ok(None) => {}
                }
                // Only a raised length field waits for more: it wants bytes
                // the peer never sent, and once they come (any bytes) the
                // checksum refuses the frame. A connection stuck waiting
                // delivers no frame, so the coordinator's silence rule
                // closes it.
                assert!(LEN_FIELD.contains(&at), "a flip at byte {at} must not wait");
                let declared = u32::from_le_bytes(bad[LEN_FIELD].try_into().expect("4 bytes"));
                let frame_len = OVERHEAD + declared as usize;
                assert!(frame_len > bytes.len());
                if frame_len - bytes.len() <= 1 << 16 {
                    bad.resize(frame_len, 0);
                    assert!(matches!(Frame::next(&mut bad), Err(e) if e != ProtoError::Truncated));
                }
            }
        }
    }
}
#[test]
fn corrupt_magic_and_checksum_report_specific_errors() {
    let bytes = Frame::Fetch.encode();

    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        Frame::decode(&bad).unwrap_err(),
        ProtoError::BadMagic(m) if m != MAGIC
    ));

    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01; // trailing checksum byte
    assert_eq!(Frame::decode(&bad).unwrap_err(), ProtoError::BadChecksum);
}

#[test]
fn appended_garbage_is_not_consumed() {
    let frame = Frame::Assign {
        index: 3,
        key: "gzip|native|x86-like|s1v0".into(),
    };
    let mut bytes = frame.encode();
    let frame_len = bytes.len();
    bytes.extend_from_slice(b"TRAILING JUNK");
    let (decoded, used) = Frame::decode(&bytes).expect("frame before junk decodes");
    assert_eq!(decoded, frame);
    assert_eq!(used, frame_len);
}
