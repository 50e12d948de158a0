use std::net::{Ipv4Addr, SocketAddr};

use bgpbench_wire::{Asn, RouterId};

/// Configuration for a [`crate::BgpDaemon`].
///
/// Construct via [`DaemonConfig::builder`]; the bare-struct form
/// remains for existing callers but new code should use the builder,
/// which owns defaulting and keeps field additions source-compatible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonConfig {
    /// The daemon's AS number.
    pub local_asn: Asn,
    /// The daemon's BGP identifier.
    pub router_id: RouterId,
    /// Hold time advertised in OPEN messages (seconds; zero disables
    /// keepalives entirely).
    pub hold_time_secs: u16,
    /// Interval between our own KEEPALIVEs (seconds; zero derives the
    /// conventional hold/3).
    pub keepalive_secs: u16,
    /// Address to listen on; port 0 picks an ephemeral port.
    pub bind_addr: SocketAddr,
    /// NEXT_HOP advertised for exported routes.
    pub next_hop: Ipv4Addr,
    /// Prefixes per UPDATE used when advertising the table to a newly
    /// established peer (the daemon's own packetization choice).
    pub export_prefixes_per_update: usize,
}

impl DaemonConfig {
    /// A builder seeded with the paper-faithful defaults.
    pub fn builder() -> DaemonConfigBuilder {
        DaemonConfigBuilder {
            config: DaemonConfig::default(),
        }
    }

    /// The effective keepalive interval in seconds (hold/3 when the
    /// configured value is zero).
    pub fn effective_keepalive_secs(&self) -> u16 {
        if self.keepalive_secs == 0 {
            self.hold_time_secs / 3
        } else {
            self.keepalive_secs
        }
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            local_asn: Asn(65000),
            router_id: RouterId(0x0A00_0001),
            hold_time_secs: 90,
            keepalive_secs: 30,
            bind_addr: "127.0.0.1:0".parse().expect("static addr parses"),
            next_hop: Ipv4Addr::new(10, 0, 0, 1),
            export_prefixes_per_update: 500,
        }
    }
}

/// Builder for [`DaemonConfig`]. Every setter defaults to the
/// paper-faithful value (AS 65000, hold 90 s, keepalive 30 s,
/// 500 prefixes per exported UPDATE).
#[derive(Debug, Clone)]
pub struct DaemonConfigBuilder {
    config: DaemonConfig,
}

impl DaemonConfigBuilder {
    /// Sets the daemon's AS number.
    pub fn local_asn(mut self, asn: Asn) -> Self {
        self.config.local_asn = asn;
        self
    }

    /// Sets the daemon's BGP identifier.
    pub fn router_id(mut self, router_id: RouterId) -> Self {
        self.config.router_id = router_id;
        self
    }

    /// Sets the advertised hold time (zero disables keepalives).
    pub fn hold_time_secs(mut self, secs: u16) -> Self {
        self.config.hold_time_secs = secs;
        self
    }

    /// Sets the keepalive interval (zero derives hold/3).
    pub fn keepalive_secs(mut self, secs: u16) -> Self {
        self.config.keepalive_secs = secs;
        self
    }

    /// Sets the listen address (port 0 picks an ephemeral port).
    pub fn bind_addr(mut self, addr: SocketAddr) -> Self {
        self.config.bind_addr = addr;
        self
    }

    /// Sets the NEXT_HOP advertised for exported routes.
    pub fn next_hop(mut self, next_hop: Ipv4Addr) -> Self {
        self.config.next_hop = next_hop;
        self
    }

    /// Sets the daemon's own export packetization.
    pub fn export_prefixes_per_update(mut self, prefixes: usize) -> Self {
        self.config.export_prefixes_per_update = prefixes;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> DaemonConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_listens_on_loopback_ephemeral() {
        let config = DaemonConfig::default();
        assert!(config.bind_addr.ip().is_loopback());
        assert_eq!(config.bind_addr.port(), 0);
        assert_eq!(config.local_asn, Asn(65000));
        assert_eq!(config.export_prefixes_per_update, 500);
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(DaemonConfig::builder().build(), DaemonConfig::default());
    }

    #[test]
    fn builder_sets_timers() {
        let config = DaemonConfig::builder()
            .local_asn(Asn(65010))
            .hold_time_secs(9)
            .keepalive_secs(3)
            .build();
        assert_eq!(config.local_asn, Asn(65010));
        assert_eq!(config.hold_time_secs, 9);
        assert_eq!(config.effective_keepalive_secs(), 3);
    }

    #[test]
    fn zero_keepalive_derives_hold_over_three() {
        let config = DaemonConfig::builder()
            .hold_time_secs(90)
            .keepalive_secs(0)
            .build();
        assert_eq!(config.effective_keepalive_secs(), 30);
    }
}
