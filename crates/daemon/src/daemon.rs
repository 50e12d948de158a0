//! Daemon lifecycle: listener, session threads, snapshots, shutdown.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use parking_lot::Mutex;

use bgpbench_rib::RibStats;

use crate::core::Core;
use crate::session::run_session;
use crate::DaemonConfig;

/// A point-in-time view of the daemon's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonSnapshot {
    /// Established BGP sessions.
    pub sessions: usize,
    /// Routes selected into the Loc-RIB.
    pub loc_rib_len: usize,
    /// Routes installed in the shadow FIB.
    pub fib_len: usize,
    /// UPDATE messages processed.
    pub updates_received: u64,
    /// Prefix-level transactions processed.
    pub transactions: u64,
    /// Full RIB-engine counters.
    pub rib: RibStats,
}

/// A running BGP daemon. See the [crate documentation](crate) for the
/// role it plays in the benchmark.
#[derive(Debug)]
pub struct BgpDaemon {
    core: Arc<Mutex<Core>>,
    /// The core's published transaction count.
    transactions: Arc<AtomicU64>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl BgpDaemon {
    /// Binds the listener and starts accepting sessions.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the configured address.
    pub fn start(config: DaemonConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(config.bind_addr)?;
        let local_addr = listener.local_addr()?;
        let core = Core::new(config);
        let transactions = core.transactions_counter();
        let core = Arc::new(Mutex::new(core));
        let shutdown = Arc::new(AtomicBool::new(false));

        let accept_core = Arc::clone(&core);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = thread::Builder::new()
            .name("bgpd-accept".into())
            .spawn(move || {
                accept_loop(listener, accept_core, accept_shutdown);
            })?;

        Ok(BgpDaemon {
            core,
            transactions,
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the daemon listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Per-peer session counters, ordered by session id.
    pub fn peer_snapshots(&self) -> Vec<crate::PeerSnapshot> {
        self.core.lock().peer_snapshots()
    }

    /// Prefix-level transactions processed so far. Read without the
    /// core lock, so polling it does not hold up the sessions; it moves
    /// once per applied UPDATE.
    pub fn transactions(&self) -> u64 {
        self.transactions.load(Ordering::Acquire)
    }

    /// A consistent snapshot of sessions, RIB, and FIB state. It takes
    /// the core lock and walks the RIB ([`RibStats::adj_out_groups`]);
    /// to poll progress, use [`BgpDaemon::transactions`].
    pub fn snapshot(&self) -> DaemonSnapshot {
        let core = self.core.lock();
        DaemonSnapshot {
            sessions: core.established_sessions(),
            loc_rib_len: core.loc_rib_len(),
            fib_len: core.fib_len(),
            updates_received: core.stats().updates_received,
            transactions: self.transactions(),
            rib: core.rib_stats(),
        }
    }

    /// Stops accepting, notifies sessions, and waits for the accept
    /// thread. Session threads exit on their next timer check.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for BgpDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, core: Arc<Mutex<Core>>, shutdown: Arc<AtomicBool>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, peer_addr)) => {
                if shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let core = Arc::clone(&core);
                let session_shutdown = Arc::clone(&shutdown);
                let handle = thread::Builder::new()
                    .name(format!("bgpd-session-{peer_addr}"))
                    .spawn(move || run_session(stream, peer_addr, core, session_shutdown));
                match handle {
                    Ok(handle) => sessions.push(handle),
                    Err(_) => continue,
                }
            }
            Err(_) => {
                if shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
    }
    for handle in sessions {
        let _ = handle.join();
    }
}
