//! Simulated models of the paper's four router platforms.
//!
//! Table II of the paper lists the systems under test; this crate
//! models each as a [`PlatformSpec`] — a control-CPU description plus a
//! calibrated cost table — executed on the [`bgpbench_simnet`]
//! scheduler:
//!
//! | Constructor | Paper system | Cost model |
//! |---|---|---|
//! | [`pentium3`] | 800 MHz Pentium III, Linux, XORP 1.3 | uni-core XORP pipeline |
//! | [`xeon`] | 3.0 GHz dual-core Xeon, Linux, XORP 1.3 | dual-core XORP pipeline |
//! | [`ixp2400`] | Intel IXP2400 (XScale control CPU), XORP 1.3 | uni-core XORP pipeline with a slow CPU, heavier `xorp_rtrmgr` overhead, and a dedicated data plane |
//! | [`cisco3620`] | Cisco 3620, IOS 12.1 | black-box IOS: fixed per-packet scheduling latency + per-prefix cost |
//!
//! Every platform runs the same control plane (`plane.rs`): the *real*
//! [`bgpbench_rib`] decision process and [`bgpbench_fib`] forwarding
//! table, the speaker links with their fault state, the export queue
//! and the transaction counters. A platform adds only a cost model on
//! top — which simulated jobs an UPDATE turns into and what they cost.
//! XORP (`xorp.rs`) is a faithful five-process pipeline (`xorp_bgp`,
//! `xorp_policy`, `xorp_rib`, `xorp_fea`, `xorp_rtrmgr`); IOS
//! (`ios.rs`) is one serialized process with a fixed scheduling delay.
//! Functional correctness and timing fidelity come from the same run,
//! and the two platforms cannot disagree on anything but time.
//!
//! Cross-traffic couples into the models through interrupt and
//! kernel-forwarding work on shared-CPU platforms
//! ([`CrossTraffic`]); the IXP2400's packet processors forward without
//! touching the XScale, which is what flattens its curves in Fig. 5.
//!
//! [`SimRouter`] is the benchmark harness's interface to a platform.

#![forbid(unsafe_code)]

mod costs;
mod crosstraffic;
mod ios;
mod plane;
mod platform;
mod router;
mod xorp;

pub use costs::{CrossCosts, IosCosts, XorpCosts};
pub use crosstraffic::{CrossSummary, CrossTraffic};
pub use platform::{
    all_platforms, cisco3620, hypothetical, ixp2400, pentium3, xeon, PlatformKind, PlatformSpec,
};
pub use router::{SimRouter, SpeakerHandle, SPEAKER_1, SPEAKER_2};
