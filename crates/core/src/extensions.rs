//! Extension experiments beyond the paper's figures.
//!
//! The paper's §V.C draws two operational implications without
//! measuring them directly:
//!
//! 1. *"It is important to aggregate update messages into large
//!    packets to obtain best BGP processing performance"* —
//!    [`packet_size_sweep`] quantifies the whole curve between the
//!    paper's two endpoints (1 and 500 prefixes per UPDATE).
//! 2. *"BGP implementations that use multiple processes perform better
//!    on multi-core platforms ... it is imperative to continue
//!    designing BGP implementations that are highly parallelizable"* —
//!    [`core_scaling`] sweeps the core count of the Xeon-class machine
//!    and exposes where the five-process pipeline stops scaling.

use std::net::Ipv4Addr;

use bgpbench_models::{PlatformSpec, SimRouter, SPEAKER_1};
use bgpbench_speaker::{workload, SpeakerScript, TableGenerator};
use bgpbench_wire::Asn;

use crate::experiments::{Figure, Panel};
use crate::runner::{CellRun, CellSpec, GridRunner};
use crate::scenario::Scenario;

/// Transactions per second of one grid run, with panics and timeouts
/// reported as a zero rate (sweep curves keep their shape instead of
/// aborting).
fn run_tps(run: CellRun) -> f64 {
    run.result
        .map(|r| if r.completed { r.tps() } else { 0.0 })
        .unwrap_or(0.0)
}

/// Packetization levels swept by [`packet_size_sweep`]; the paper's
/// Table I endpoints (1 and 500) are included.
pub const PACKET_SIZES: [usize; 9] = [1, 2, 5, 10, 25, 50, 100, 250, 500];

/// Measures start-up announcement throughput (the Scenario 1/2
/// operation) at every packetization in [`PACKET_SIZES`], for each of
/// the given platforms.
pub fn packet_size_sweep(
    runner: &mut GridRunner,
    platforms: &[PlatformSpec],
    prefixes: usize,
    seed: u64,
) -> Figure {
    let mut cells = Vec::new();
    for platform in platforms {
        for &pkt in PACKET_SIZES.iter() {
            cells.push(
                CellSpec::new(Scenario::S2, platform.clone())
                    .prefixes(prefixes)
                    .seed(seed)
                    .packetization(pkt),
            );
        }
    }
    let mut runs = runner.run_cells(&cells).into_iter();
    let series = platforms
        .iter()
        .map(|platform| {
            let points = PACKET_SIZES
                .iter()
                .map(|&pkt| {
                    let run = runs.next().expect("one run per cell");
                    (pkt as f64, run_tps(run))
                })
                .collect();
            (platform.name.to_owned(), points)
        })
        .collect();
    Figure {
        title: "Extension: transactions/s vs prefixes per UPDATE (start-up announcements)"
            .to_owned(),
        panels: vec![Panel {
            title: "packet-size sweep".to_owned(),
            series,
            marks: Vec::new(),
        }],
    }
}

/// Measures start-up announcement throughput of a platform variant
/// with 1–4 control cores (the multi-core implication). Returns one
/// series per scenario operation tested: cheap (no-FIB-change-like
/// export of decision work) and expensive (FIB installs).
pub fn core_scaling(
    runner: &mut GridRunner,
    base: &PlatformSpec,
    prefixes: usize,
    seed: u64,
) -> Figure {
    let cells: Vec<CellSpec> = (1..=4usize)
        .map(|cores| {
            let mut spec = base.clone();
            spec.cores = cores;
            CellSpec::new(Scenario::S2, spec)
                .prefixes(prefixes)
                .seed(seed)
        })
        .collect();
    let points: Vec<(f64, f64)> = runner
        .run_cells(&cells)
        .into_iter()
        .zip(1..=4usize)
        .map(|(run, cores)| (cores as f64, run_tps(run)))
        .collect();
    Figure {
        title: format!(
            "Extension: start-up throughput vs control cores ({} cost table)",
            base.name
        ),
        panels: vec![Panel {
            title: "core scaling".to_owned(),
            series: vec![("startup_announce_large".to_owned(), points)],
            marks: Vec::new(),
        }],
    }
}

/// Result of a steady-state load experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// The offered control-plane load in messages per second.
    pub msgs_per_sec: f64,
    /// Mean total user-space CPU (percent of one core) over the
    /// measurement window.
    pub cpu_pct: f64,
    /// Prefix-level transactions completed during the window.
    pub processed: u64,
    /// Whether the router kept up with the offered rate (≥ 95 % of the
    /// offered messages processed).
    pub kept_up: bool,
}

/// Subjects a platform to a *paced* update stream — the paper's §II
/// "routers typically need to process in the order of 100 BGP messages
/// per second" operating point — and reports the CPU cost and whether
/// the router keeps up. Each message announces one fresh prefix
/// (install + FIB write, the common steady-state case).
pub fn steady_state_load(
    platform: &PlatformSpec,
    msgs_per_sec: f64,
    window_secs: f64,
    seed: u64,
) -> SteadyState {
    let offered = (msgs_per_sec * window_secs).ceil() as usize;
    let table = TableGenerator::new(seed).generate(offered);
    let updates = workload::announcements(
        &table,
        &workload::AnnounceSpec {
            speaker_asn: Asn(65001),
            path_len: 3,
            next_hop: Ipv4Addr::new(10, 0, 0, 2),
            prefixes_per_update: 1,
            seed,
        },
    );
    let mut router = SimRouter::new(platform);
    router.load_script_rated(SPEAKER_1, SpeakerScript::new(updates), msgs_per_sec);
    router.run_for(window_secs);
    let processed = router.transactions_done();
    let user_processes = ["xorp_bgp", "xorp_policy", "xorp_rib", "xorp_fea", "ios_bgp"];
    let cpu_pct = user_processes
        .iter()
        .map(|p| router.mean_cpu_pct(p, 0.0, window_secs))
        .sum();
    SteadyState {
        msgs_per_sec,
        cpu_pct,
        processed,
        kept_up: processed as f64 >= 0.95 * msgs_per_sec * window_secs,
    }
}

/// Measures start-up throughput at several table sizes, validating the
/// benchmark-design assumption (documented in EXPERIMENTS.md) that the
/// transactions-per-second rates are table-size-insensitive — which is
/// what lets small-packet scenarios run with smaller tables.
pub fn table_size_sweep(
    runner: &mut GridRunner,
    platform: &PlatformSpec,
    sizes: &[usize],
    seed: u64,
) -> Vec<(usize, f64)> {
    let cells: Vec<CellSpec> = sizes
        .iter()
        .map(|&size| {
            CellSpec::new(Scenario::S2, platform.clone())
                .prefixes(size)
                .seed(seed)
        })
        .collect();
    runner
        .run_cells(&cells)
        .into_iter()
        .zip(sizes)
        .map(|(run, &size)| (size, run_tps(run)))
        .collect()
}

/// One hop of [`chain_convergence`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopResult {
    /// Position in the chain (1-based).
    pub hop: usize,
    /// Seconds this hop took to ingest and re-export the table.
    pub secs: f64,
}

/// Control-plane convergence through a chain of routers: how long a
/// full table takes to propagate hop by hop when every hop is the
/// given platform.
///
/// Each hop ingests the table (Phase 1) and re-exports it toward the
/// next hop (Phase 2), and hop k's actual export messages (attributes
/// re-written, AS path prepended by hop k's AS) become hop k+1's input
/// stream, exactly as they would cross a real inter-router session.
/// The total is the time between the first router hearing the table
/// and the last router finishing it — the network-level consequence
/// of the per-router rates in Table III, and the paper's §V.C warning
/// quantified: slow control planes compound across the topology.
pub fn chain_convergence(
    platform: &PlatformSpec,
    hops: usize,
    prefixes: usize,
    seed: u64,
) -> Vec<HopResult> {
    assert!(hops >= 1, "a chain needs at least one hop");
    let table = TableGenerator::new(seed).generate(prefixes);
    let n = prefixes as u64;
    let mut input = workload::announcements(
        &table,
        &workload::AnnounceSpec {
            speaker_asn: Asn(65001),
            path_len: 3,
            next_hop: Ipv4Addr::new(10, 0, 0, 2),
            prefixes_per_update: workload::LARGE_PACKET_PREFIXES,
            seed,
        },
    );
    let mut results = Vec::with_capacity(hops);
    for hop in 1..=hops {
        // Distinct local AS per hop, disjoint from the speakers' and
        // the synthetic filler ASes, so loop prevention stays quiet.
        let mut router = SimRouter::with_local_asn(platform, Asn(64000 + hop as u16));
        router.load_script(SPEAKER_1, SpeakerScript::new(input));
        let ingest = router
            .run_until_transactions(n, 7200.0)
            .expect("hop ingest must complete");
        router.queue_export(bgpbench_models::SPEAKER_2, 500);
        let export_start = router.now_secs();
        router
            .run_until_exports(n, 7200.0)
            .expect("hop export must complete");
        let export = router.now_secs() - export_start;
        results.push(HopResult {
            hop,
            secs: ingest + export,
        });
        input = router.export_messages(bgpbench_models::SPEAKER_2, 500);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_models::{pentium3, xeon};

    #[test]
    fn packet_size_sweep_is_monotone_enough() {
        let figure = packet_size_sweep(&mut GridRunner::serial(), &[pentium3()], 400, 1);
        let points = &figure.panels[0].series[0].1;
        assert_eq!(points.len(), PACKET_SIZES.len());
        // Throughput at 500/packet must beat 1/packet substantially,
        // and the curve must never regress by more than noise.
        let first = points.first().unwrap().1;
        let last = points.last().unwrap().1;
        assert!(
            last > first * 1.4,
            "amortization gain too small: {first} -> {last}"
        );
        for pair in points.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 * 0.95,
                "curve regressed: {:?} -> {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn steady_state_typical_load_fits_on_the_xeon_not_the_slow_platforms() {
        use bgpbench_models::{cisco3620, ixp2400};
        // 100 messages/s of route installs: the Xeon and Pentium III
        // keep up; the IXP2400 (24/s capacity) and the Cisco on small
        // packets (~11/s) fall behind — the paper's §V.C first bullet.
        let xeon_state = steady_state_load(&xeon(), 100.0, 10.0, 1);
        assert!(xeon_state.kept_up, "{xeon_state:?}");
        assert!(xeon_state.cpu_pct < 30.0, "{xeon_state:?}");

        let p3_state = steady_state_load(&pentium3(), 100.0, 10.0, 1);
        assert!(p3_state.kept_up, "{p3_state:?}");
        assert!(
            p3_state.cpu_pct > xeon_state.cpu_pct,
            "the slower CPU must work harder: {p3_state:?} vs {xeon_state:?}"
        );

        let ixp_state = steady_state_load(&ixp2400(), 100.0, 10.0, 1);
        assert!(!ixp_state.kept_up, "{ixp_state:?}");

        let cisco_state = steady_state_load(&cisco3620(), 100.0, 10.0, 1);
        assert!(!cisco_state.kept_up, "{cisco_state:?}");
    }

    #[test]
    fn steady_state_low_load_is_cheap_everywhere() {
        for platform in [xeon(), pentium3()] {
            let state = steady_state_load(&platform, 10.0, 10.0, 1);
            assert!(state.kept_up, "{}: {state:?}", platform.name);
        }
    }

    #[test]
    fn rates_are_table_size_insensitive() {
        let points = table_size_sweep(
            &mut GridRunner::serial(),
            &pentium3(),
            &[500, 1000, 2000, 4000],
            1,
        );
        assert_eq!(points.len(), 4);
        let rates: Vec<f64> = points.iter().map(|&(_, tps)| tps).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        for (size, tps) in &points {
            let deviation = (tps - mean).abs() / mean;
            assert!(
                deviation < 0.05,
                "rate at {size} prefixes deviates {deviation:.3} from mean"
            );
        }
    }

    #[test]
    fn chain_convergence_accumulates_per_hop_time() {
        let hops = chain_convergence(&pentium3(), 3, 300, 1);
        assert_eq!(hops.len(), 3);
        for hop in &hops {
            assert!(hop.secs > 0.0, "hop {} took no time", hop.hop);
        }
        let total: f64 = hops.iter().map(|h| h.secs).sum();
        // Three hops take roughly three times one hop (paths grow, but
        // per-prefix cost is path-length-insensitive in the model).
        assert!(total > hops[0].secs * 2.5);
        assert!(total < hops[0].secs * 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn chain_needs_a_hop() {
        let _ = chain_convergence(&pentium3(), 0, 10, 1);
    }

    #[test]
    fn real_chain_passes_actual_messages_and_grows_paths() {
        let hops = 3;
        let prefixes = 200;
        let results = chain_convergence(&xeon(), hops, prefixes, 7);
        assert_eq!(results.len(), hops);
        for hop in &results {
            assert!(hop.secs > 0.0);
        }
        // Replay the chain to inspect the final export: every prefix
        // survives all hops and the AS path carries every hop's AS.
        let table = TableGenerator::new(7).generate(prefixes);
        let mut input = workload::announcements(
            &table,
            &workload::AnnounceSpec {
                speaker_asn: Asn(65001),
                path_len: 3,
                next_hop: Ipv4Addr::new(10, 0, 0, 2),
                prefixes_per_update: 500,
                seed: 7,
            },
        );
        for hop in 1..=hops {
            let mut router = SimRouter::with_local_asn(&xeon(), Asn(64000 + hop as u16));
            router.load_script(SPEAKER_1, SpeakerScript::new(input));
            router
                .run_until_transactions(prefixes as u64, 7200.0)
                .unwrap();
            input = router.export_messages(bgpbench_models::SPEAKER_2, 500);
        }
        let announced: usize = input.iter().map(|u| u.nlri().len()).sum();
        assert_eq!(announced, prefixes, "prefixes lost along the chain");
        let path = input[0]
            .find_attribute(|a| matches!(a, bgpbench_wire::PathAttribute::AsPath(_)))
            .and_then(|a| match a {
                bgpbench_wire::PathAttribute::AsPath(p) => Some(p.clone()),
                _ => None,
            })
            .expect("exported update carries a path");
        // Original 3 ASes plus one prepend per hop.
        assert_eq!(path.length(), 3 + hops);
        assert_eq!(path.first_as(), Some(Asn(64000 + hops as u16)));
    }

    #[test]
    fn core_scaling_improves_then_saturates() {
        let figure = core_scaling(&mut GridRunner::serial(), &xeon(), 800, 1);
        let points = &figure.panels[0].series[0].1;
        assert_eq!(points.len(), 4);
        let one = points[0].1;
        let two = points[1].1;
        let four = points[3].1;
        assert!(two > one * 1.2, "second core must help: {one} -> {two}");
        // The pipeline has one dominant stage (xorp_fea), so scaling
        // saturates: four cores gain little over two.
        assert!(four < two * 1.6, "scaling should saturate: {two} -> {four}");
        assert!(four >= two * 0.99, "more cores must never hurt");
    }
}
