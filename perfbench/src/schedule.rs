//! The offered inputs, all derived from the run's seed: call arguments,
//! peer payloads and the peer send order. The program under test only
//! ever sees the bytes these functions produce.

use std::time::Duration;

/// SplitMix64: small, fast and well mixed — plenty for payload bytes.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Stream salts, so calls and peer messages with equal ids differ.
const ARGS_STREAM: u64 = 1;
const ORDER_STREAM: u64 = 2;

/// `len` bytes (at least 8): `id` big-endian, then seeded filler. The
/// id is how replies, deliveries and trace spans find their operation.
#[must_use]
pub fn tagged_payload(seed: u64, id: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len.max(8));
    out.extend_from_slice(&id.to_be_bytes());
    let mut rng = SplitMix::new(seed ^ ARGS_STREAM, id);
    while out.len() < len {
        let word = rng.next_u64().to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
    }
    out
}

/// The id carried in the first 8 bytes of a tagged payload.
#[must_use]
pub fn payload_id(bytes: &[u8]) -> Option<u64> {
    let head: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
    Some(u64::from_be_bytes(head))
}

/// Call id of the `seq`-th call (from 1) of `client` on `service`.
/// Distinct per (client, service, seq) for up to 2^40 calls.
#[must_use]
pub fn call_id(client: usize, service: usize, seq: u64) -> u64 {
    ((client as u64 + 1) << 48) | ((service as u64) << 40) | seq
}

/// Which member sends peer message `idx`: the messages go round-robin
/// in rounds of one send per member, each round in a seeded order.
#[must_use]
pub fn peer_sender(seed: u64, idx: u64, members: usize) -> usize {
    let n = members as u64;
    let mut order: Vec<usize> = (0..members).collect();
    let mut rng = SplitMix::new(seed ^ ORDER_STREAM, idx / n);
    for i in (1..members).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order[(idx % n) as usize]
}

/// When peer message `idx` (counted from the window's first) is due,
/// relative to the window start, at `rate` messages per second.
#[must_use]
pub fn peer_due(idx: u64, rate: u64) -> Duration {
    Duration::from_nanos(idx * 1_000_000_000 / rate)
}

/// Serialises what a workload offers for its first `count` operations:
/// the exact argument bytes (and, for `peer_sym`, the due time and
/// sender of each message). Equal seeds must give equal bytes.
#[must_use]
pub fn offered(workload: crate::WorkloadName, seed: u64, count: u64) -> Vec<u8> {
    use crate::WorkloadName;
    let mut out = Vec::new();
    match workload {
        WorkloadName::ClosedLone => {
            for seq in 1..=count {
                out.extend(tagged_payload(seed, seq, crate::closed_lone::ARGS_LEN));
            }
        }
        WorkloadName::OpenMultigroup => {
            use crate::open_multigroup::{ARGS_LEN, CLIENTS, SERVICES};
            for seq in 1..=count {
                for client in 0..CLIENTS {
                    for service in 0..SERVICES {
                        let id = call_id(client, service, seq);
                        out.extend(tagged_payload(seed, id, ARGS_LEN));
                    }
                }
            }
        }
        WorkloadName::PeerSym => {
            use crate::peer_sym::{MEMBERS, PAYLOAD_LEN, RATE};
            for idx in 0..count {
                out.extend(peer_due(idx, RATE).as_nanos().to_be_bytes());
                out.push(peer_sender(seed, idx, MEMBERS) as u8);
                out.extend(tagged_payload(seed, idx, PAYLOAD_LEN));
            }
        }
    }
    out
}
