//! `bgpd` — run the bgpbench BGP daemon standalone.
//!
//! ```text
//! bgpd [--listen ADDR:PORT] [--asn N] [--router-id A.B.C.D] [--hold SECS]
//!      [--keepalive SECS] [--metrics ADDR:PORT]
//! ```
//!
//! Prints a state snapshot once per second; terminate with Ctrl-C.
//! `--metrics` additionally serves `GET /metrics` (Prometheus text
//! exposition) and `GET /trace` (Chrome trace-event JSON of the
//! flight-recorder ring) on the given address, and turns both
//! recorders on so there is something to scrape.

use std::net::Ipv4Addr;
use std::process::exit;
use std::time::Duration;

use bgpbench_daemon::{BgpDaemon, DaemonConfig};
use bgpbench_wire::{Asn, RouterId};

fn usage() -> ! {
    eprintln!(
        "usage: bgpd [--listen ADDR:PORT] [--asn N] [--router-id A.B.C.D] [--hold SECS] \
         [--keepalive SECS] [--metrics ADDR:PORT]"
    );
    exit(2);
}

fn main() {
    let mut builder =
        DaemonConfig::builder().bind_addr("127.0.0.1:1179".parse().expect("static addr parses"));
    let mut metrics_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        builder = match flag.as_str() {
            "--metrics" => {
                metrics_addr = Some(value);
                continue;
            }
            "--listen" => match value.parse() {
                Ok(addr) => builder.bind_addr(addr),
                Err(_) => usage(),
            },
            "--asn" => match value.parse::<u16>() {
                Ok(asn) => builder.local_asn(Asn(asn)),
                Err(_) => usage(),
            },
            "--router-id" => match value.parse::<Ipv4Addr>() {
                Ok(addr) => builder.router_id(RouterId::from(addr)),
                Err(_) => usage(),
            },
            "--hold" => match value.parse::<u16>() {
                Ok(secs) => builder.hold_time_secs(secs),
                Err(_) => usage(),
            },
            "--keepalive" => match value.parse::<u16>() {
                Ok(secs) => builder.keepalive_secs(secs),
                Err(_) => usage(),
            },
            _ => usage(),
        };
    }
    let config = builder.build();

    let _metrics = metrics_addr.map(|addr| {
        bgpbench_telemetry::enable();
        bgpbench_telemetry::enable_trace(&bgpbench_telemetry::TraceConfig::default());
        match bgpbench_daemon::MetricsServer::bind(&addr) {
            Ok(server) => {
                println!("bgpd: metrics on http://{}/metrics", server.local_addr());
                server
            }
            Err(err) => {
                eprintln!("bgpd: cannot bind metrics endpoint {addr}: {err}");
                exit(1);
            }
        }
    });

    let daemon = match BgpDaemon::start(config.clone()) {
        Ok(daemon) => daemon,
        Err(err) => {
            eprintln!("bgpd: cannot bind {}: {err}", config.bind_addr);
            exit(1);
        }
    };
    println!(
        "bgpd: {} (router-id {}) listening on {}",
        config.local_asn,
        config.router_id,
        daemon.local_addr()
    );
    let mut ticks = 0u64;
    loop {
        std::thread::sleep(Duration::from_secs(1));
        ticks += 1;
        let s = daemon.snapshot();
        println!(
            "sessions={} loc_rib={} fib={} updates={} transactions={}",
            s.sessions, s.loc_rib_len, s.fib_len, s.updates_received, s.transactions
        );
        // Per-peer detail every five seconds.
        if ticks.is_multiple_of(5) {
            for peer in daemon.peer_snapshots() {
                println!(
                    "  peer {} @ {}: in {} updates / {} prefixes, out {} updates / {} prefixes \
                     ({} too long to send)",
                    peer.asn,
                    peer.address,
                    peer.updates_in,
                    peer.prefixes_in,
                    peer.updates_out,
                    peer.prefixes_out,
                    peer.updates_oversize
                );
            }
        }
    }
}
