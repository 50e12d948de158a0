//! A deterministic mutational fuzzer for the BGP wire format.
//!
//! Crates.io fuzzing engines (cargo-fuzz/libFuzzer, AFL) are
//! unavailable offline, and their coverage feedback is overkill for a
//! single well-bounded decoder. This module keeps the part that finds
//! real bugs — structured seeds plus byte-level mutation — and makes
//! it reproducible: the same `--seed` always visits the same mutants,
//! so a CI failure replays locally bit-for-bit.
//!
//! Three properties are checked on every mutant:
//!
//! 1. **No panics.** `Message::decode` and the [`StreamDecoder`] drain
//!    path must return, never unwind, on arbitrary bytes.
//! 2. **Decode→encode→decode fixpoint.** If a mutant decodes to `m`,
//!    then `m.encode()` must succeed and decode back to exactly `m`.
//!    (Byte images may legitimately differ — the encoder normalizes
//!    attribute flag bits and capability packing — but the *message*
//!    must survive.)
//! 3. **Typed errors.** A rejected mutant must produce a `WireError`;
//!    that is what the `Result` return already proves, so the check is
//!    subsumed by (1).
//!
//! A failing mutant is shrunk with a ddmin-lite pass (truncate, drop
//! spans, zero spans — keeping whatever still fails) and reported as a
//! hex string ready for [`run_reproducer`].
//!
//! The same machinery drives a second [`Target`]: MRT dumps
//! (`fuzz-wire --target mrt`), where [`MrtReader`] must never unwind
//! and every decoded record must survive re-encode → re-decode
//! structurally unchanged.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use bgpbench_wire::mrt::{
    self, MrtError, MrtPeer, MrtReader, MrtRecord, PeerIndexTable, RibEntry, RibPrefix,
};
use bgpbench_wire::{
    AsPath, Asn, Message, Origin, PathAttribute, Prefix, RouterId, StreamDecoder, UpdateMessage,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

use crate::corpus;

/// What the fuzzer mutates and checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// BGP wire messages through `Message::decode` / `StreamDecoder`.
    Wire,
    /// MRT dumps (TABLE_DUMP_V2 + BGP4MP) through [`MrtReader`].
    Mrt,
}

impl Target {
    /// Parses a `--target` argument.
    pub fn from_name(name: &str) -> Option<Target> {
        match name {
            "wire" => Some(Target::Wire),
            "mrt" => Some(Target::Mrt),
            _ => None,
        }
    }

    /// The target's display name.
    pub fn name(self) -> &'static str {
        match self {
            Target::Wire => "wire",
            Target::Mrt => "mrt",
        }
    }

    fn seeds(self) -> Vec<Vec<u8>> {
        match self {
            Target::Wire => corpus::seed_bytes(),
            Target::Mrt => mrt_seed_bytes(),
        }
    }

    fn check(self, bytes: &[u8]) -> Result<bool, Failure> {
        match self {
            Target::Wire => check_input(bytes),
            Target::Mrt => check_mrt(bytes),
        }
    }
}

/// How a mutant violated the fuzz properties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// `Message::decode` unwound.
    DecodePanicked,
    /// The stream decoder unwound while draining the mutant.
    StreamPanicked,
    /// Decoded fine, but re-encoding failed.
    ReencodeFailed(String),
    /// Decoded fine, re-encoded fine, but the second decode failed.
    RedecodeFailed(String),
    /// The second decode produced a different message.
    NotAFixpoint,
    /// `encode_into` after existing bytes did not append exactly what
    /// `encode` returns.
    EncodeIntoDiverged,
    /// [`MrtReader`] unwound on an MRT mutant.
    MrtDecodePanicked,
    /// An MRT record decoded fine, but re-encoding it unwound.
    MrtReencodePanicked,
    /// A re-encoded MRT record failed to decode.
    MrtRedecodeFailed(String),
    /// The re-decoded MRT record differs from the original.
    MrtNotAFixpoint,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::DecodePanicked => write!(f, "Message::decode panicked"),
            Failure::StreamPanicked => write!(f, "StreamDecoder panicked"),
            Failure::ReencodeFailed(e) => write!(f, "re-encode of decoded message failed: {e}"),
            Failure::RedecodeFailed(e) => write!(f, "decode of re-encoded bytes failed: {e}"),
            Failure::NotAFixpoint => write!(f, "decode(encode(decode(bytes))) differs"),
            Failure::EncodeIntoDiverged => {
                write!(f, "encode_into after existing bytes differs from encode")
            }
            Failure::MrtDecodePanicked => write!(f, "MrtReader panicked"),
            Failure::MrtReencodePanicked => write!(f, "re-encode of decoded MRT record panicked"),
            Failure::MrtRedecodeFailed(e) => {
                write!(f, "decode of re-encoded MRT record failed: {e}")
            }
            Failure::MrtNotAFixpoint => write!(f, "decode(encode(decode(record))) differs"),
        }
    }
}

/// A minimized failing input.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The iteration that produced the failure.
    pub iteration: u64,
    /// What went wrong.
    pub failure: Failure,
    /// The minimized failing bytes.
    pub bytes: Vec<u8>,
}

impl Reproducer {
    /// The failing bytes as lowercase hex, for copy-paste replay.
    pub fn hex(&self) -> String {
        to_hex(&self.bytes)
    }
}

impl fmt::Display for Reproducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iteration {}: {} ({} bytes)\n  reproducer: {}",
            self.iteration,
            self.failure,
            self.bytes.len(),
            self.hex()
        )
    }
}

/// Summary of a completed fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The seed the run started from.
    pub seed: u64,
    /// Mutants exercised.
    pub iterations: u64,
    /// Mutants that still decoded successfully.
    pub decoded_ok: u64,
    /// Mutants rejected with a typed error.
    pub rejected: u64,
    /// The first failure, minimized, if any.
    pub failure: Option<Reproducer>,
}

/// Runs `iters` deterministic wire-format mutants derived from `seed`.
pub fn run(seed: u64, iters: u64) -> FuzzReport {
    run_target(Target::Wire, seed, iters)
}

/// Runs `iters` deterministic mutants of `target`'s format.
pub fn run_target(target: Target, seed: u64, iters: u64) -> FuzzReport {
    let seeds = target.seeds();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = FuzzReport {
        seed,
        iterations: 0,
        decoded_ok: 0,
        rejected: 0,
        failure: None,
    };

    for iteration in 0..iters {
        let base = &seeds[rng.gen_range(0..seeds.len())];
        let mut bytes = base.clone();
        let mutations = rng.gen_range(1..=4usize);
        for _ in 0..mutations {
            mutate(&mut bytes, &mut rng, &seeds);
        }
        report.iterations += 1;
        match target.check(&bytes) {
            Ok(true) => report.decoded_ok += 1,
            Ok(false) => report.rejected += 1,
            Err(failure) => {
                let minimized = minimize(target, bytes, &failure);
                report.failure = Some(Reproducer {
                    iteration,
                    failure,
                    bytes: minimized,
                });
                break;
            }
        }
    }
    report
}

/// Replays one wire-format hex reproducer; `Err` is the surviving
/// failure.
///
/// Accepts the exact string printed by [`Reproducer::hex`].
pub fn run_reproducer(hex: &str) -> Result<(), Failure> {
    run_reproducer_target(Target::Wire, hex)
}

/// Replays one hex reproducer against `target`'s properties.
pub fn run_reproducer_target(target: Target, hex: &str) -> Result<(), Failure> {
    let bytes = from_hex(hex).unwrap_or_default();
    target.check(&bytes).map(|_| ())
}

/// One random byte-level mutation, chosen from eight operators.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng, seeds: &[Vec<u8>]) {
    if bytes.is_empty() {
        bytes.push(rng.gen::<u8>());
        return;
    }
    match rng.gen_range(0..8u32) {
        // Flip one bit.
        0 => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
        }
        // Overwrite one byte.
        1 => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen::<u8>();
        }
        // Truncate.
        2 => {
            let keep = rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
        }
        // Extend with random bytes.
        3 => {
            let extra = rng.gen_range(1..=16usize);
            for _ in 0..extra {
                bytes.push(rng.gen::<u8>());
            }
        }
        // Splice a window from another seed.
        4 => {
            let donor = &seeds[rng.gen_range(0..seeds.len())];
            let from = rng.gen_range(0..donor.len());
            let len = rng.gen_range(1..=(donor.len() - from).min(32));
            let at = rng.gen_range(0..=bytes.len());
            let insert_at = at.min(bytes.len());
            bytes.splice(
                insert_at..insert_at,
                donor[from..from + len].iter().copied(),
            );
        }
        // Duplicate a window in place.
        5 => {
            let from = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(1..=(bytes.len() - from).min(16));
            let window: Vec<u8> = bytes[from..from + len].to_vec();
            bytes.splice(from..from, window);
        }
        // Zero a window.
        6 => {
            let from = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(1..=(bytes.len() - from).min(16));
            bytes[from..from + len].fill(0);
        }
        // Tweak a plausible length field: the header length, or any
        // byte in the body (most BGP substructures carry u8/u16
        // lengths, so nudging bytes near their current value probes
        // off-by-one paths).
        _ => {
            let at = if bytes.len() > 17 && rng.gen_bool(0.5) {
                16 + rng.gen_range(0..2usize)
            } else {
                rng.gen_range(0..bytes.len())
            };
            let delta = [1u8, 0xFF, 2, 0xFE][rng.gen_range(0..4usize)];
            bytes[at] = bytes[at].wrapping_add(delta);
        }
    }
    // Keep mutants within one max message of bytes; the decoder
    // length-checks anyway, and unbounded growth slows iteration.
    bytes.truncate(8192);
}

/// Checks one input against all fuzz properties.
///
/// `Ok(true)` = decoded and round-tripped; `Ok(false)` = rejected with
/// a typed error; `Err` = property violation.
fn check_input(bytes: &[u8]) -> Result<bool, Failure> {
    let decoded = panic::catch_unwind(AssertUnwindSafe(|| Message::decode(bytes)))
        .map_err(|_| Failure::DecodePanicked)?;

    // The stream path wraps the same decoder in buffering and
    // error-latching; drive it separately in case buffering math
    // itself panics.
    panic::catch_unwind(AssertUnwindSafe(|| {
        let mut stream = StreamDecoder::new();
        stream.extend(bytes);
        while let Ok(Some(_)) = stream.next_message() {}
    }))
    .map_err(|_| Failure::StreamPanicked)?;

    let (message, _consumed) = match decoded {
        Ok(pair) => pair,
        Err(_) => return Ok(false),
    };
    let reencoded = message
        .encode()
        .map_err(|e| Failure::ReencodeFailed(e.to_string()))?;
    let (again, _) =
        Message::decode(&reencoded).map_err(|e| Failure::RedecodeFailed(e.to_string()))?;
    if again != message {
        return Err(Failure::NotAFixpoint);
    }
    // The daemon encodes runs of messages into one buffer; appending
    // must not depend on, or disturb, what the buffer already holds.
    let mut appended = bytes.to_vec();
    if message.encode_into(&mut appended).is_err()
        || appended[..bytes.len()] != *bytes
        || appended[bytes.len()..] != reencoded
    {
        return Err(Failure::EncodeIntoDiverged);
    }
    Ok(true)
}

/// Structurally valid MRT seeds built with the real encoders: a full
/// dump (peer index + RIB prefixes + announce/withdraw BGP4MP), a
/// bare peer index, a BGP4MP-only stream, and a dump containing an
/// unknown record type the reader must skip by header length.
fn mrt_seed_bytes() -> Vec<Vec<u8>> {
    let next_hop = Ipv4Addr::new(10, 0, 0, 2);
    let peer_index = || PeerIndexTable {
        collector_id: RouterId(0xC000_0201),
        view_name: String::from("fuzz"),
        peers: vec![
            MrtPeer {
                bgp_id: RouterId(0x0A00_0002),
                asn: Asn(65001),
                addr: Some(next_hop),
            },
            MrtPeer {
                bgp_id: RouterId(0x0A00_0003),
                asn: Asn(65002),
                addr: None,
            },
        ],
    };
    let prefix = |text: &str| text.parse::<Prefix>().expect("seed prefixes are valid");
    let rib = |seq: u32, text: &str, path: &[u16]| RibPrefix {
        sequence: seq,
        prefix: prefix(text),
        entries: vec![RibEntry {
            peer_index: (seq % 2) as u16,
            originated: 1_186_610_000,
            attributes: vec![
                PathAttribute::Origin(Origin::Igp),
                PathAttribute::AsPath(AsPath::from_sequence(path.iter().map(|&a| Asn(a)))),
                PathAttribute::NextHop(next_hop),
            ],
        }],
    };
    let announce = UpdateMessage::builder()
        .attribute(PathAttribute::Origin(Origin::Igp))
        .attribute(PathAttribute::AsPath(AsPath::from_sequence([
            Asn(65001),
            Asn(2914),
        ])))
        .attribute(PathAttribute::NextHop(next_hop))
        .announce(prefix("198.51.100.128/25"))
        .build();
    let withdraw = UpdateMessage::builder()
        .withdraw(prefix("203.0.113.0/24"))
        .build();
    let bgp4mp = |ts: u32, update: &UpdateMessage, out: &mut Vec<u8>| {
        mrt::encode_bgp4mp_update(
            ts,
            Asn(65001),
            Asn(65000),
            next_hop,
            Ipv4Addr::new(10, 0, 0, 1),
            update,
            out,
        );
    };

    let mut full = Vec::new();
    peer_index().encode(1_186_617_600, &mut full);
    rib(0, "198.51.100.0/24", &[65001, 3356, 15169]).encode(1_186_617_600, &mut full);
    rib(1, "192.0.2.0/25", &[65002, 6939, 13335]).encode(1_186_617_600, &mut full);
    bgp4mp(1_186_617_660, &announce, &mut full);
    bgp4mp(1_186_617_720, &withdraw, &mut full);

    let mut index_only = Vec::new();
    peer_index().encode(1_186_617_600, &mut index_only);

    let mut updates_only = Vec::new();
    bgp4mp(1_186_617_660, &announce, &mut updates_only);
    bgp4mp(1_186_617_661, &withdraw, &mut updates_only);

    // An unknown record type between two known records: header says
    // type 42 with a 4-byte body, which the reader must skip cleanly.
    let mut with_unknown = Vec::new();
    peer_index().encode(1_186_617_600, &mut with_unknown);
    with_unknown.extend_from_slice(&1_186_617_601u32.to_be_bytes());
    with_unknown.extend_from_slice(&42u16.to_be_bytes());
    with_unknown.extend_from_slice(&0u16.to_be_bytes());
    with_unknown.extend_from_slice(&4u32.to_be_bytes());
    with_unknown.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
    bgp4mp(1_186_617_660, &announce, &mut with_unknown);

    vec![full, index_only, updates_only, with_unknown]
}

/// Checks one MRT input: the reader must never unwind, and every
/// record it does decode must survive re-encode → re-decode
/// structurally unchanged (timestamps of index/RIB records are not
/// part of the decoded structure, so the re-encode uses a fixed one).
fn check_mrt(bytes: &[u8]) -> Result<bool, Failure> {
    let records = panic::catch_unwind(AssertUnwindSafe(|| {
        MrtReader::new(bytes).collect::<Vec<Result<MrtRecord, MrtError>>>()
    }))
    .map_err(|_| Failure::MrtDecodePanicked)?;
    let mut any_rejected = false;
    for record in records {
        let record = match record {
            Ok(record) => record,
            Err(_) => {
                any_rejected = true;
                continue;
            }
        };
        let reencoded = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut out = Vec::new();
            match &record {
                MrtRecord::PeerIndex(table) => table.encode(0, &mut out),
                MrtRecord::RibIpv4(rib) => rib.encode(0, &mut out),
                MrtRecord::Update(update) => mrt::encode_bgp4mp_update(
                    update.timestamp,
                    update.peer_asn,
                    Asn(65000),
                    update.peer_addr,
                    Ipv4Addr::new(10, 0, 0, 1),
                    &update.update,
                    &mut out,
                ),
                // Skipped records carry no payload to re-encode.
                MrtRecord::Skipped { .. } => {}
            }
            out
        }))
        .map_err(|_| Failure::MrtReencodePanicked)?;
        if reencoded.is_empty() {
            continue;
        }
        let mut again = MrtReader::new(&reencoded);
        match again.next() {
            Some(Ok(redecoded)) => {
                if redecoded != record {
                    return Err(Failure::MrtNotAFixpoint);
                }
            }
            Some(Err(error)) => return Err(Failure::MrtRedecodeFailed(error.to_string())),
            None => {
                return Err(Failure::MrtRedecodeFailed(String::from(
                    "re-encoded record produced no records",
                )))
            }
        }
    }
    Ok(!any_rejected)
}

/// ddmin-lite: shrink a failing input while the *same* failure
/// persists. Tries tail truncation, span removal, and span zeroing at
/// halving granularity.
fn minimize(target: Target, mut bytes: Vec<u8>, failure: &Failure) -> Vec<u8> {
    let still_fails = |candidate: &[u8]| target.check(candidate).as_ref() == Err(failure);

    // Tail truncation first — cheap and usually the biggest win.
    while !bytes.is_empty() && still_fails(&bytes[..bytes.len() - 1]) {
        bytes.pop();
    }

    let mut chunk = bytes.len() / 2;
    while chunk >= 1 {
        let mut from = 0;
        while from < bytes.len() {
            let to = (from + chunk).min(bytes.len());
            // Try removing the span outright.
            let mut without: Vec<u8> = Vec::with_capacity(bytes.len() - (to - from));
            without.extend_from_slice(&bytes[..from]);
            without.extend_from_slice(&bytes[to..]);
            if still_fails(&without) {
                bytes = without;
                continue; // same `from`, shorter buffer
            }
            // Fall back to zeroing it (keeps framing lengths intact).
            if bytes[from..to].iter().any(|&b| b != 0) {
                let mut zeroed = bytes.clone();
                zeroed[from..to].fill(0);
                if still_fails(&zeroed) {
                    bytes = zeroed;
                }
            }
            from = to;
        }
        chunk /= 2;
    }
    bytes
}

fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn from_hex(hex: &str) -> Option<Vec<u8>> {
    let hex = hex.trim();
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(hex.get(i..i + 2)?, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_outcome() {
        let a = run(42, 500);
        let b = run(42, 500);
        assert_eq!(a.decoded_ok, b.decoded_ok);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.failure.is_none(), b.failure.is_none());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(1, 500);
        let b = run(2, 500);
        // Astronomically unlikely to tie on both counters if the RNG
        // is actually being consulted.
        assert!(
            a.decoded_ok != b.decoded_ok || a.rejected != b.rejected,
            "seeds 1 and 2 produced identical runs"
        );
    }

    #[test]
    fn ci_configuration_is_clean() {
        // The exact run CI performs; keep in sync with ci.yml.
        let report = run(7, 10_000);
        assert!(
            report.failure.is_none(),
            "fuzz failure: {}",
            report.failure.unwrap()
        );
        assert_eq!(report.iterations, 10_000);
        assert!(report.decoded_ok > 0, "no mutant survived decoding");
        assert!(report.rejected > 0, "no mutant was rejected");
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = vec![0x00, 0xFF, 0x42, 0x19];
        assert_eq!(from_hex(&to_hex(&bytes)), Some(bytes));
        assert_eq!(from_hex("zz"), None);
        assert_eq!(from_hex("abc"), None);
    }

    #[test]
    fn minimizer_preserves_the_failure() {
        // Synthesize a failure by hand: feed the minimizer an input
        // whose "failure" is just a predicate via check_input — here we
        // can only exercise the plumbing on a healthy input, so verify
        // minimize() is identity-safe when nothing fails.
        let keepalive = corpus::seed_bytes().remove(8);
        let minimized = minimize(Target::Wire, keepalive.clone(), &Failure::NotAFixpoint);
        // Nothing fails, so nothing shrinks below... anything; the
        // function must still terminate and return bytes.
        assert_eq!(minimized, keepalive);
    }

    #[test]
    fn target_names_round_trip() {
        for target in [Target::Wire, Target::Mrt] {
            assert_eq!(Target::from_name(target.name()), Some(target));
        }
        assert_eq!(Target::from_name("bogus"), None);
    }

    #[test]
    fn mrt_seeds_are_valid_and_fixpoints() {
        for (i, seed) in mrt_seed_bytes().iter().enumerate() {
            assert_eq!(
                check_mrt(seed),
                Ok(true),
                "MRT seed {i} must decode and round-trip"
            );
        }
    }

    #[test]
    fn mrt_target_same_seed_same_outcome() {
        let a = run_target(Target::Mrt, 42, 500);
        let b = run_target(Target::Mrt, 42, 500);
        assert_eq!(a.decoded_ok, b.decoded_ok);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.failure.is_none(), b.failure.is_none());
    }

    #[test]
    fn mrt_ci_configuration_is_clean() {
        // The exact run CI performs; keep in sync with ci.yml.
        let report = run_target(Target::Mrt, 7, 10_000);
        assert!(
            report.failure.is_none(),
            "MRT fuzz failure: {}",
            report.failure.unwrap()
        );
        assert_eq!(report.iterations, 10_000);
        assert!(report.decoded_ok > 0, "no MRT mutant survived decoding");
        assert!(report.rejected > 0, "no MRT mutant was rejected");
    }

    #[test]
    fn mrt_truncation_is_rejected_not_panicking() {
        let seed = mrt_seed_bytes().remove(0);
        for keep in 0..seed.len() {
            let outcome = check_mrt(&seed[..keep]);
            assert!(
                outcome.is_ok(),
                "truncation to {keep} bytes must not violate a property: {outcome:?}"
            );
        }
    }
}
