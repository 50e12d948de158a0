//! A panicking cell under a trace-armed [`GridRunner`] must leave a
//! Chrome trace-event JSON post-mortem at the configured path, the
//! timeline must carry one `grid.cell_start` instant per executed
//! cell, and the tail printed on stderr must end on the last event
//! recorded before the panic.
//!
//! This is deliberately the only test in this binary: it flips the
//! process-global flight-recorder switch, which parallel test threads
//! in the same process would race.

use bgpbench_core::runner::panic_tail;
use bgpbench_core::{CellSpec, GridRunner, Scenario, StderrProgress};
use bgpbench_models::xeon;
use bgpbench_telemetry::trace::export::validate_chrome_json;
use bgpbench_telemetry::{TraceConfig, TraceEventId};

#[test]
fn panicking_cell_writes_trace_postmortem() {
    let path =
        std::env::temp_dir().join(format!("bgpbench_postmortem_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let cells = vec![
        CellSpec::new(Scenario::S2, xeon()).prefixes(100).seed(1),
        CellSpec::new(Scenario::S2, xeon()).prefixes(100).seed(2),
    ];
    let mut runner = GridRunner::serial()
        .with_observer(Box::new(StderrProgress::default()))
        .with_trace(TraceConfig::with_capacity(4096).postmortem(path.clone()));
    let runs = runner.run_map(&cells, |cell| {
        // Run the cell (which opens it on the timeline), then fail the
        // second one.
        let result = cell.run();
        if cell.cell_seed() == 2 {
            panic!("injected post-mortem fault");
        }
        result.transactions
    });
    assert!(runs[1].result.is_err(), "cell 2 must have failed");

    // Every executed cell marks its boundary with its seed and size.
    let cell_starts: Vec<(u64, u64)> = bgpbench_telemetry::trace_dump()
        .threads
        .iter()
        .flat_map(|thread| &thread.events)
        .filter(|event| event.id == TraceEventId::CellStart)
        .map(|event| (event.a, event.b))
        .collect();
    assert_eq!(cell_starts, [(1, 100), (2, 100)]);

    // What `StderrProgress` printed under the failed cell: the newest
    // events as text, ending on the last one recorded.
    let last = bgpbench_telemetry::trace_dump()
        .threads
        .iter()
        .flat_map(|thread| thread.events.clone())
        .max_by_key(|event| event.ts_ns)
        .expect("events were recorded");
    let (label_a, label_b) = last.id.label_names();
    let tail = panic_tail();
    assert!(tail.lines().count() <= 32);
    let last_line = tail.lines().last().expect("the tail is not empty");
    assert!(
        last_line.ends_with(&format!(
            "{} {label_a}={} {label_b}={}",
            last.id.name(),
            last.a,
            last.b
        )),
        "{last_line}"
    );
    assert!(
        tail.contains("grid.cell_start seed=2 prefixes=100"),
        "{tail}"
    );

    let body = std::fs::read_to_string(&path).expect("post-mortem file written");
    let stats = validate_chrome_json(&body).expect("post-mortem validates as Chrome trace JSON");
    assert!(stats.events >= 2, "both cell-start instants exported");
    assert_eq!(body.matches("grid.cell_start").count(), 2);
    let _ = std::fs::remove_file(&path);
    bgpbench_telemetry::disable_trace();
}
