//! `bgp-speaker` — a standalone benchmark speaker.
//!
//! Modes:
//!
//! ```text
//! bgp-speaker flood ADDR:PORT [--prefixes N] [--pkt N] [--asn N] [--seed N]
//!     connect, inject N announcements, report the send rate
//! bgp-speaker collect ADDR:PORT [--secs N] [--asn N]
//!     connect and count routes the peer advertises to us
//! bgp-speaker withdraw ADDR:PORT [--prefixes N] [--pkt N] [--asn N] [--seed N]
//!     announce N prefixes, then withdraw them all
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "CLI progress/timeout reporting in the live speaker binary"
)]

use std::net::Ipv4Addr;
use std::process::exit;
use std::time::{Duration, Instant};

use bgpbench_speaker::{workload, LiveSpeaker, LiveSpeakerConfig, TableGenerator};
use bgpbench_wire::{Asn, RouterId};

struct Options {
    mode: String,
    target: String,
    prefixes: usize,
    pkt: usize,
    asn: u16,
    seed: u64,
    secs: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: bgp-speaker <flood|collect|withdraw> ADDR:PORT \
         [--prefixes N] [--pkt N] [--asn N] [--seed N] [--secs N]"
    );
    exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage());
    let target = args.next().unwrap_or_else(|| usage());
    let mut options = Options {
        mode,
        target,
        prefixes: 10_000,
        pkt: 500,
        asn: 65001,
        seed: 2007,
        secs: 10,
    };
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        let parsed: u64 = value.parse().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--prefixes" => options.prefixes = parsed as usize,
            "--pkt" => options.pkt = (parsed as usize).max(1),
            "--asn" => options.asn = parsed as u16,
            "--seed" => options.seed = parsed,
            "--secs" => options.secs = parsed,
            _ => usage(),
        }
    }
    options
}

fn main() {
    let options = parse_args();
    let config = LiveSpeakerConfig {
        local_asn: Asn(options.asn),
        router_id: RouterId(0x0A00_0000 | u32::from(options.asn & 0xFF)),
        hold_time_secs: 90,
    };
    let mut speaker = match LiveSpeaker::connect(&*options.target, &config, Duration::from_secs(10))
    {
        Ok(speaker) => speaker,
        Err(err) => {
            eprintln!(
                "bgp-speaker: cannot establish session with {}: {err}",
                options.target
            );
            exit(1);
        }
    };
    println!(
        "session established with {} ({})",
        options.target,
        speaker.peer_open().asn()
    );

    let spec = workload::AnnounceSpec {
        speaker_asn: Asn(options.asn),
        path_len: 3,
        next_hop: Ipv4Addr::new(127, 0, 0, 1),
        prefixes_per_update: options.pkt,
        seed: options.seed,
    };
    let result = match options.mode.as_str() {
        "flood" => {
            let table = TableGenerator::new(options.seed).generate(options.prefixes);
            let updates = workload::announcements(&table, &spec);
            let start = Instant::now();
            speaker.flood(&updates).map(|sent| {
                let secs = start.elapsed().as_secs_f64();
                println!(
                    "sent {sent} announcements in {secs:.3}s ({:.0} prefixes/s wire rate)",
                    sent as f64 / secs
                );
            })
        }
        "withdraw" => {
            let table = TableGenerator::new(options.seed).generate(options.prefixes);
            speaker
                .flood(&workload::announcements(&table, &spec))
                .and_then(|_| {
                    let start = Instant::now();
                    speaker
                        .flood(&workload::withdrawals(&table, options.pkt))
                        .map(|sent| {
                            let secs = start.elapsed().as_secs_f64();
                            println!(
                                "withdrew {sent} prefixes in {secs:.3}s ({:.0}/s wire rate)",
                                sent as f64 / secs
                            );
                        })
                })
        }
        "collect" => speaker
            .collect_routes(Duration::from_secs(options.secs), Duration::from_secs(600))
            .map(|summary| {
                println!(
                    "received {} updates: {} announced, {} withdrawn",
                    summary.updates, summary.announced, summary.withdrawn
                );
            }),
        _ => usage(),
    };
    if let Err(err) = result {
        eprintln!("bgp-speaker: {err}");
        exit(1);
    }
}
