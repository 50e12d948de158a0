//! A panicking cell under a trace-armed [`GridRunner`] must leave a
//! Chrome trace-event JSON post-mortem at the configured path, and the
//! timeline must carry one `grid.cell_start` instant per executed
//! cell.
//!
//! This is deliberately the only test in this binary: it flips the
//! process-global flight-recorder switch, which parallel test threads
//! in the same process would race.

use bgpbench_core::{CellSpec, GridRunner, Scenario};
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
    let mut runner =
        GridRunner::serial().with_trace(TraceConfig::with_capacity(4096).postmortem(path.clone()));
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

    let body = std::fs::read_to_string(&path).expect("post-mortem file written");
    let stats = validate_chrome_json(&body).expect("post-mortem validates as Chrome trace JSON");
    assert!(stats.events >= 2, "both cell-start instants exported");
    assert_eq!(body.matches("grid.cell_start").count(), 2);
    let _ = std::fs::remove_file(&path);
    bgpbench_telemetry::disable_trace();
}
