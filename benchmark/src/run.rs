//! The two kinds of run: end to end (tracing and allocation counting
//! off) and traced (the per-layer ledger).

use std::time::{Duration, Instant};

use bgpbench_daemon::DaemonConfig;
use bgpbench_rib::{PeerId, PeerInfo, ShardedRibEngine};
use bgpbench_telemetry as telemetry;
use bgpbench_wire::{RouterId, UpdateMessage};

use crate::alloc;
use crate::host;
use crate::inputs::{generate_live, LiveInput, LiveSpec, Workload, SLOT_PERIOD, SPEAKER1_ASN};
use crate::live;
use crate::metrics::{json_string, Metric, MetricSet};
use crate::replica::{decode_updates, Counts, Replica};
use crate::sim;
use crate::stats::{self, median};
use crate::trace::{raw_spans_json, Layer, Spans, Totals, Tracer, Untraced, RAW_UPDATES};

/// An end-to-end run keeps going until its time is used up, but never
/// stops short of this many reps: a median needs them.
const MIN_REPS: usize = 3;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// What a run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed: prefix-level transactions (grid
    /// cells' transactions on `sim_table3`). A rep or pass that fails a
    /// correctness check fails all of its operations.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Sizes, reps and state, for the record printed with the result.
    pub notes: Vec<String>,
}

impl Outcome {
    fn count(&mut self, operations: usize, failures: Vec<String>, what: &str) {
        self.attempted += operations as u64;
        if !failures.is_empty() {
            self.failed += operations as u64;
            self.failures
                .extend(failures.into_iter().map(|f| format!("{what}: {f}")));
        }
    }
}

/// Runs `rep` until `seconds` are used, and at least `min_reps` times.
/// A rep is not started if one like the last would overrun.
fn repeat(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize) -> bool) -> usize {
    let started = Instant::now();
    let mut done = 0;
    loop {
        let rep_started = Instant::now();
        let go_on = rep(done);
        done += 1;
        let next_end = started.elapsed() + rep_started.elapsed();
        if !go_on || (done >= min_reps && next_end.as_secs_f64() > seconds) {
            return done;
        }
    }
}

fn spec_note(spec: &LiveSpec) -> String {
    let train = spec.train.map_or_else(
        || "cold start".to_owned(),
        |t| {
            format!(
                "pre-loaded, then a train of {} events over {} slots{}",
                t.events,
                1u32 << t.slots_log2,
                t.slot_period.map_or_else(
                    || ", flooded".to_owned(),
                    |p| format!(", one slot per {p:?}")
                )
            )
        },
    );
    format!(
        "input: {:?} table of {} prefixes, {} per UPDATE, {train}",
        spec.table, spec.prefixes, spec.prefixes_per_update
    )
}

/// Per-rep samples of an end-to-end run.
#[derive(Default)]
struct Samples {
    tps: Vec<f64>,
    cpu_ns_per_tx: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    setup_s: Vec<f64>,
}

impl Samples {
    /// One rep: its transactions, the timed phase's wall and CPU time,
    /// its propagation percentiles and its set-up time.
    fn push(
        &mut self,
        transactions: usize,
        elapsed_s: f64,
        cpu_ns: u64,
        (p50_us, p99_us): (f64, f64),
        setup_s: f64,
    ) {
        let transactions = transactions.max(1) as f64;
        self.tps.push(transactions / elapsed_s);
        self.cpu_ns_per_tx.push(cpu_ns as f64 / transactions);
        self.p50_us.push(p50_us);
        self.p99_us.push(p99_us);
        self.setup_s.push(setup_s);
    }

    /// The end-to-end metrics: medians over the reps.
    fn metrics(&self) -> Vec<Metric> {
        let mut set = MetricSet::end_to_end();
        set.set("tps", median(&self.tps));
        set.set("cpu_ns_per_tx", median(&self.cpu_ns_per_tx));
        set.set("propagation_p50_us", median(&self.p50_us));
        set.set("propagation_p99_us", median(&self.p99_us));
        set.set("peak_rss_mb", host::peak_rss_mb());
        set.set("setup_s", median(&self.setup_s));
        set.into_metrics()
    }
}

fn quartiles_note(name: &str, samples: &[f64]) -> String {
    let mut sorted = samples.to_vec();
    stats::sort(&mut sorted);
    let in_order: Vec<String> = samples.iter().map(|s| format!("{s:.0}")).collect();
    format!(
        "reps: {name} min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4} (n={}; in order: {})",
        sorted[0],
        stats::percentile_sorted(&sorted, 25.0),
        median(&sorted),
        stats::percentile_sorted(&sorted, 75.0),
        sorted[sorted.len() - 1],
        sorted.len(),
        in_order.join(" ")
    )
}

/// End to end on `sim_table3`: every rep checks the quick grid against
/// the golden CSV (its set-up), then times the grid; the metrics are
/// medians over the reps.
fn end_to_end_sim(options: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let mut samples = Samples::default();
    let reps = repeat(options.seconds, MIN_REPS, |_| {
        let rep = sim::run_rep(options.seed, options.smoke);
        samples.push(
            rep.transactions,
            rep.elapsed_s,
            rep.cpu_ns,
            (rep.completion_p50_us, rep.completion_p99_us),
            rep.setup_s,
        );
        outcome.count(rep.transactions, rep.failures, "grid");
        true
    });
    outcome.notes.push(format!(
        "input: Table III grid, 8 scenarios x 4 platforms, {} sizes, serial runner; reps {reps}",
        if options.smoke { "quick" } else { "full" }
    ));
    outcome.notes.push(quartiles_note("tps", &samples.tps));
    outcome.metrics = samples.metrics();
    outcome
}

/// End to end: every rep sets up from the seed (inputs, a fresh daemon,
/// both sessions, the pre-load), runs the timed phase and checks the
/// result; the metrics are medians over the reps.
pub fn end_to_end(options: &Options) -> Outcome {
    let Some(spec) = options.workload.live_spec(options.smoke) else {
        return end_to_end_sim(options);
    };
    let mut outcome = Outcome::default();
    let mut samples = Samples::default();
    let mut late_reps = 0;
    let reps = repeat(options.seconds, MIN_REPS, |index| {
        let started = Instant::now();
        let input = generate_live(spec, options.seed);
        let generate_s = started.elapsed().as_secs_f64();
        let tx = input.timed.out_transactions;
        match live::run_rep(&input) {
            Ok(rep) => {
                samples.push(
                    tx,
                    rep.elapsed_s,
                    rep.cpu_ns,
                    (rep.propagation_p50_us, rep.propagation_p99_us),
                    generate_s + rep.setup_s,
                );
                if rep.late_p99_us > SLOT_PERIOD.as_secs_f64() * 1e6 {
                    late_reps += 1;
                    outcome.notes.push(format!(
                        "rep {index}: the generator ran late, p99 {:.0} us > one slot",
                        rep.late_p99_us
                    ));
                }
                outcome.count(tx, rep.failures, &format!("rep {index}"));
                true
            }
            Err(error) => {
                outcome.count(tx, vec![error.to_string()], &format!("rep {index}"));
                false
            }
        }
    });
    outcome.notes.push(spec_note(&spec));
    outcome.notes.push(format!(
        "reps {reps}, generator late in {late_reps}; loopback TCP, not a real link; \
         telemetry off, flight recorder off, allocation counting off"
    ));
    if !samples.tps.is_empty() {
        outcome.notes.push(quartiles_note("tps", &samples.tps));
        outcome
            .notes
            .push(quartiles_note("propagation_p99_us", &samples.p99_us));
        outcome.metrics = samples.metrics();
    }
    outcome
}

/// One replica pass over the workload: the pre-load through
/// `preload_spans`, then the timed stream through `spans`, timed.
fn replica_pass<S: Spans>(
    input: &LiveInput,
    preload_spans: &mut S,
    spans: &mut S,
) -> Result<(Replica, Counts, Duration), String> {
    let mut replica = Replica::new();
    if let Some(preload) = &input.preload {
        replica.feed(&preload.bytes, preload_spans)?;
    }
    replica.reset_counts();
    let started = Instant::now();
    replica.feed(&input.timed.bytes, spans)?;
    let elapsed = started.elapsed();
    let timed = replica.counts();
    let held = replica.held().digest();
    if held != input.expected {
        return Err(format!(
            "replica's Speaker 2 holds {held:?}, expected {:?}",
            input.expected
        ));
    }
    if timed.transactions_out as usize != input.timed.out_transactions
        || replica.engine().loc_rib().len() != input.expected.routes
        || replica.fib_len() != input.expected.routes
    {
        return Err("replica's counts differ from the oracle's".to_owned());
    }
    Ok((replica, timed, elapsed))
}

/// `ShardedRibEngine::apply_update_train` over the timed stream at
/// `shards` shards: the RIB layer alone, batch entry point.
fn train_pass(
    preload: &[UpdateMessage],
    timed: &[UpdateMessage],
    shards: usize,
) -> Result<Duration, String> {
    let config = DaemonConfig::default();
    let mut engine = ShardedRibEngine::new(config.local_asn, config.router_id);
    engine.set_shards(shards);
    let peer = engine.add_peer(PeerInfo::new(
        PeerId(1),
        SPEAKER1_ASN,
        RouterId(0x0A00_0002),
        std::net::Ipv4Addr::LOCALHOST,
    ));
    engine
        .apply_update_train(peer, preload)
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let outcomes = engine
        .apply_update_train(peer, timed)
        .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    std::hint::black_box(outcomes);
    Ok(elapsed)
}

/// Per-round samples of the traced run, in host nanoseconds.
#[derive(Default)]
struct Rounds {
    /// One vector per child layer, in `Layer::children()` order.
    layers: Vec<Vec<f64>>,
    parent_self: Vec<f64>,
    traced: Vec<f64>,
    untraced: Vec<f64>,
    metrics_on: Vec<f64>,
    trace_on: Vec<f64>,
    train: Vec<f64>,
    shard: Vec<f64>,
}

/// What the first round keeps: the tracers (counts, live bytes, raw
/// spans) and the counts taken at the layer boundaries.
struct FirstRound {
    preload_tracer: Tracer,
    tracer: Tracer,
    counts: Counts,
    attr_hit_ratio: f64,
    attr_distinct_sets: usize,
}

/// Decoded streams for the RIB-only train samplers.
struct TrainInput {
    preload: Vec<UpdateMessage>,
    timed: Vec<UpdateMessage>,
    shards: usize,
}

/// One round of replica passes: traced, untraced, untraced with each
/// telemetry recorder on, and the train samplers at 1 and N shards.
fn round(
    input: &LiveInput,
    train: &TrainInput,
    rounds: &mut Rounds,
    first: &mut Option<FirstRound>,
) -> Result<(), String> {
    let mut preload_tracer = Tracer::new(0);
    let mut tracer = Tracer::new(RAW_UPDATES);
    alloc::set_counting(true);
    let traced = replica_pass(input, &mut preload_tracer, &mut tracer);
    alloc::set_counting(false);
    let (replica, counts, elapsed) = traced?;
    rounds.traced.push(elapsed.as_nanos() as f64);
    for (samples, &layer) in rounds.layers.iter_mut().zip(Layer::children()) {
        samples.push(tracer.totals(layer).ns as f64);
    }
    rounds.parent_self.push(tracer.parent_self_ns() as f64);
    if let Some(first) = first {
        // Counts, unlike times, must repeat exactly.
        for &layer in Layer::children() {
            let (a, b) = (first.tracer.totals(layer), tracer.totals(layer));
            if (a.calls, a.allocs, a.alloc_bytes) != (b.calls, b.allocs, b.alloc_bytes) {
                return Err(format!(
                    "{} counts did not repeat: {a:?} then {b:?}",
                    layer.name()
                ));
            }
        }
    } else {
        let store = replica.engine().attr_store();
        *first = Some(FirstRound {
            attr_hit_ratio: store.stats().hit_ratio(),
            attr_distinct_sets: store.len(),
            preload_tracer,
            tracer,
            counts,
        });
    }
    drop(replica);

    let untraced = |rounds: &mut Vec<f64>| -> Result<(), String> {
        let (_, _, elapsed) = replica_pass(input, &mut Untraced, &mut Untraced)?;
        rounds.push(elapsed.as_nanos() as f64);
        Ok(())
    };
    untraced(&mut rounds.untraced)?;

    telemetry::enable();
    let pass = untraced(&mut rounds.metrics_on);
    telemetry::disable();
    pass?;

    telemetry::enable_trace(&telemetry::TraceConfig::default());
    let pass = untraced(&mut rounds.trace_on);
    telemetry::disable_trace();
    telemetry::trace_clear();
    pass?;

    let one = train_pass(&train.preload, &train.timed, 1)?;
    rounds.train.push(one.as_nanos() as f64);
    let sharded = train_pass(&train.preload, &train.timed, train.shards)?;
    rounds.shard.push(sharded.as_nanos() as f64);
    Ok(())
}

/// Replica passes over the timed stream in one [`round`].
const PASSES_PER_ROUND: usize = 6;

/// The traced run of a live workload: a few live reps for the live
/// figure, then rounds of replica passes, reported as medians over the
/// rounds. Counts come from the first round.
fn traced_live(options: &Options, spec: LiveSpec, outcome: &mut Outcome) -> Result<(), String> {
    let input = generate_live(spec, options.seed);
    let tx = input.timed.out_transactions;
    let per_tx = |ns: f64| ns / tx as f64;

    // The live figure the ledger is reconciled against.
    let (mut live_tps, mut send_share, mut late_us) = (vec![], vec![], vec![]);
    repeat(options.seconds / 4.0, 2, |index| {
        match live::run_rep(&input) {
            Ok(rep) => {
                live_tps.push(tx as f64 / rep.elapsed_s);
                send_share.push(rep.send_share);
                late_us.push(rep.late_p99_us);
                outcome.count(tx, rep.failures, &format!("live rep {index}"));
                true
            }
            Err(error) => {
                outcome.count(tx, vec![error.to_string()], &format!("live rep {index}"));
                false
            }
        }
    });
    if live_tps.is_empty() {
        return Err("no live rep completed".to_owned());
    }

    let train = TrainInput {
        preload: match &input.preload {
            Some(preload) => decode_updates(&preload.bytes)?,
            None => Vec::new(),
        },
        timed: decode_updates(&input.timed.bytes)?,
        shards: host::available_parallelism(),
    };
    let mut rounds = Rounds {
        layers: vec![Vec::new(); Layer::children().len()],
        ..Rounds::default()
    };
    let mut first = None;
    let mut round_error = None;
    repeat(options.seconds * 3.0 / 4.0, 1, |index| {
        let result = round(&input, &train, &mut rounds, &mut first);
        let failures = result.as_ref().err().cloned().into_iter().collect();
        outcome.count(PASSES_PER_ROUND * tx, failures, &format!("round {index}"));
        round_error = result.err();
        round_error.is_none()
    });
    if let Some(error) = round_error {
        return Err(error);
    }
    let first = first.expect("at least one round ran");

    let mut set = MetricSet::per_layer();
    for (samples, &layer) in rounds.layers.iter().zip(Layer::children()) {
        let totals = first.tracer.totals(layer);
        let name = layer.name();
        set.set(&format!("{name}.ns_per_tx"), per_tx(median(samples)));
        set.set(&format!("{name}.calls"), totals.calls as f64);
        set.set(
            &format!("{name}.allocs_per_tx"),
            per_tx(totals.allocs as f64),
        );
        set.set(
            &format!("{name}.alloc_bytes_per_tx"),
            per_tx(totals.alloc_bytes as f64),
        );
    }
    let live_bytes_per_prefix = |layers: &[Layer]| -> f64 {
        let kept: i64 = layers
            .iter()
            .map(|&l| first.preload_tracer.totals(l).live_bytes + first.tracer.totals(l).live_bytes)
            .sum();
        kept as f64 / input.expected.routes.max(1) as f64
    };
    set.set(
        "rib.apply.live_bytes_per_prefix",
        live_bytes_per_prefix(&[Layer::RibApply]),
    );
    set.set(
        "fib.apply.live_bytes_per_prefix",
        live_bytes_per_prefix(&[Layer::FibApply]),
    );
    // The exported attribute sets are allocated under `rib.export` and
    // kept by the Adj-RIB-Out, so both spans count towards it.
    set.set(
        "rib.adj_out.live_bytes_per_prefix",
        live_bytes_per_prefix(&[Layer::RibExport, Layer::AdjOutSync]),
    );
    let counts = first.counts;
    set.set(
        "wire.decode.bytes_per_tx",
        input.timed.bytes.len() as f64 / input.timed.transactions as f64,
    );
    set.set("wire.encode.bytes_per_tx", per_tx(counts.bytes_out as f64));
    set.set("wire.decode.msgs", counts.updates_in as f64);
    set.set("wire.encode.msgs", counts.updates_out as f64);
    set.set("rib.attr_store.hit_ratio", first.attr_hit_ratio);
    set.set(
        "rib.attr_store.distinct_sets",
        first.attr_distinct_sets as f64,
    );
    set.set(
        "rib.apply.fib_change_share",
        counts.fib_changes as f64 / counts.transactions_in.max(1) as f64,
    );
    set.set("rib.train.ns_per_tx", per_tx(median(&rounds.train)));
    set.set("rib.shard.ns_per_tx", per_tx(median(&rounds.shard)));
    let untraced = median(&rounds.untraced);
    set.set(
        "telemetry.metrics_on.ns_per_tx",
        per_tx(median(&rounds.metrics_on) - untraced),
    );
    set.set(
        "telemetry.trace_on.ns_per_tx",
        per_tx(median(&rounds.trace_on) - untraced),
    );
    set.set(
        "speaker.generate.ns_per_prefix",
        input.generate_ns_per_prefix,
    );
    set.set("speaker.send.share", median(&send_share));
    set.set("speaker.pace.late_p99_us", median(&late_us));

    // The reconciliation row.
    let sum: f64 = rounds.layers.iter().map(|samples| median(samples)).sum();
    let live_ns_per_tx = 1e9 / median(&live_tps);
    let overhead_pct = (median(&rounds.traced) - untraced) / untraced * 100.0;
    set.set("pipeline.sum_ns_per_tx", per_tx(sum));
    set.set(
        "pipeline.update.self_ns_per_tx",
        per_tx(median(&rounds.parent_self)),
    );
    set.set("pipeline.untraced_ns_per_tx", per_tx(untraced));
    set.set("pipeline.trace_overhead_pct", overhead_pct);
    set.set("pipeline.live_ns_per_tx", live_ns_per_tx);
    set.set(
        "daemon.residue_ns_per_tx",
        live_ns_per_tx - per_tx(untraced),
    );
    outcome.metrics = set.into_metrics();

    outcome.notes.push(spec_note(&spec));
    outcome.notes.push(format!(
        "live reps {}, replica rounds {}; rib.shard at {} shards; allocation counting on in \
         traced passes only; loopback TCP, not a real link",
        live_tps.len(),
        rounds.traced.len(),
        train.shards
    ));
    outcome.notes.push(format!(
        "reconciliation (ns/tx): pipeline.sum {:.1} | pipeline.untraced {:.1} | live {:.1} | \
         daemon.residue {:.1} | tracing overhead {overhead_pct:.1} %",
        per_tx(sum),
        per_tx(untraced),
        live_ns_per_tx,
        live_ns_per_tx - per_tx(untraced),
    ));
    write_trace_file(options, &first.tracer, &outcome.notes);
    Ok(())
}

/// The traced run of `sim_table3`: the harness layers around the cycle
/// models. The live layers do no work here and keep their zeros.
fn traced_sim(options: &Options, outcome: &mut Outcome) {
    let threads = host::available_parallelism();
    let (mut xorp, mut ios, mut overhead, mut speedup) = (vec![], vec![], vec![], vec![]);
    let mut ticks = 0;
    let rounds = repeat(options.seconds, 1, |_| {
        let rep = sim::run_rep(options.seed, options.smoke);
        let ns_per_tick = |want_ios: bool| -> f64 {
            let cells = rep.cells.iter().filter(|c| c.ios == want_ios);
            let wall: f64 = cells.clone().map(|c| c.wall.as_nanos() as f64).sum();
            let ticks: u64 = cells.map(|c| c.virtual_ticks).sum();
            wall / ticks.max(1) as f64
        };
        xorp.push(ns_per_tick(false));
        ios.push(ns_per_tick(true));
        let in_cells: f64 = rep.cells.iter().map(|c| c.wall.as_secs_f64()).sum();
        overhead.push((rep.elapsed_s - in_cells) / rep.elapsed_s * 100.0);
        speedup.push(rep.elapsed_s / sim::parallel_elapsed_s(options.seed, options.smoke, threads));
        ticks = rep.cells.iter().map(|c| c.virtual_ticks).sum();
        // The serial grid and its parallel twin.
        outcome.count(2 * rep.transactions, rep.failures, "grid");
        true
    });
    let mut set = MetricSet::per_layer();
    set.set("simnet.tick.ns_per_tick", sim::empty_tick_ns());
    set.set("models.xorp.ns_per_tick", median(&xorp));
    set.set("models.ios.ns_per_tick", median(&ios));
    set.set("simnet.ticks", ticks as f64);
    set.set("core.runner.grid_overhead_pct", median(&overhead));
    set.set("core.runner.parallel_speedup_x", median(&speedup));
    outcome.metrics = set.into_metrics();
    outcome.notes.push(format!(
        "input: Table III grid, {} sizes; rounds {rounds} of serial + {threads}-thread grid",
        if options.smoke { "quick" } else { "full" }
    ));
}

/// The traced run: every per-layer metric, in `BENCHMARK.json` order.
pub fn traced(options: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    match options.workload.live_spec(options.smoke) {
        Some(spec) => {
            if let Err(error) = traced_live(options, spec, &mut outcome) {
                // A failure already counted names its rep or round.
                if outcome.failures.is_empty() {
                    outcome.count(1, vec![error], "traced run");
                }
            }
        }
        None => traced_sim(options, &mut outcome),
    }
    outcome
}

/// Writes `out/trace-<workload>.json` in the package directory: layer
/// totals and the raw spans of the first UPDATEs. A failure to write
/// is reported, not fatal: the metrics do not depend on the file.
fn write_trace_file(options: &Options, tracer: &Tracer, notes: &[String]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", options.workload.name()));
    let totals: Vec<String> = Layer::ALL
        .iter()
        .map(|&layer| {
            let Totals {
                ns,
                calls,
                allocs,
                alloc_bytes,
                live_bytes,
            } = tracer.totals(layer);
            format!(
                "{{\"name\":\"{}\",\"ns\":{ns},\"calls\":{calls},\"allocs\":{allocs},\
                 \"alloc_bytes\":{alloc_bytes},\"live_bytes\":{live_bytes}}}",
                layer.name()
            )
        })
        .collect();
    let notes: Vec<String> = notes.iter().map(|n| json_string(n)).collect();
    let json = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"host\":{},\"notes\":[{}],\n\"totals\":[{}],\n\
         \"pipeline_update_self_ns\":{},\n\"spans\":{}}}\n",
        options.workload.name(),
        options.seed,
        json_string(&host::record()),
        notes.join(","),
        totals.join(","),
        tracer.parent_self_ns(),
        raw_spans_json(tracer.raw())
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("trace: {}", path.display()),
        Err(error) => eprintln!("warning: could not write {}: {error}", path.display()),
    }
}
