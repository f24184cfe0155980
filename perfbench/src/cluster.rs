//! An in-process loopback brick cluster: `BrickServer` threads behind
//! one gateway whose failure detector runs on a `MockClock`, so bricks
//! are declared dead by advancing the clock, never by sleeping.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use nsr_net::brick::{BrickConfig, BrickServer};
use nsr_net::client::BrickClient;
use nsr_net::clock::MockClock;
use nsr_net::detector::Health;
use nsr_net::gateway::{Gateway, GatewayConfig};

use crate::common::Tracer;

/// Mock seconds the clock moves per heartbeat round: one round per
/// assumed heartbeat interval of the default detector configuration.
const PUMP_STEP_S: f64 = 0.5;
const CLIENT_TIMEOUT: Duration = Duration::from_millis(500);

pub struct Cluster {
    pub gw: Gateway,
    pub addrs: Vec<SocketAddr>,
    clock: MockClock,
    bricks: Vec<Option<JoinHandle<nsr_net::Result<()>>>>,
}

impl Cluster {
    /// Starts `bricks` brick threads and a `k + t` gateway over them,
    /// then runs heartbeat rounds until every brick has an observed
    /// heartbeat interval.
    pub fn start(bricks: usize, k: usize, t: usize, tr: &mut Tracer) -> nsr_net::Result<Cluster> {
        let mut addrs = Vec::with_capacity(bricks);
        let mut handles = Vec::with_capacity(bricks);
        for id in 0..bricks {
            let server = BrickServer::bind("127.0.0.1:0", BrickConfig::new(id as u32))?;
            let (addr, handle) = server.spawn();
            addrs.push(addr);
            handles.push(Some(handle));
        }
        let clock = MockClock::new();
        let gw = Gateway::with_clock(
            addrs.clone(),
            GatewayConfig::new(k, t),
            Arc::new(clock.clone()),
        )?;
        let cluster = Cluster {
            gw,
            addrs,
            clock,
            bricks: handles,
        };
        for _ in 0..2 {
            cluster.pump(tr);
        }
        Ok(cluster)
    }

    /// One heartbeat round after advancing the mock clock.
    pub fn pump(&self, tr: &mut Tracer) {
        self.clock.advance(PUMP_STEP_S);
        tr.span("net.detector.pump", |_| self.gw.pump_heartbeats());
    }

    /// Stops brick `victim` and runs heartbeat rounds until the detector
    /// declares it dead. Returns the rounds it took.
    pub fn kill(&mut self, victim: u32, tr: &mut Tracer) -> Result<u32, String> {
        stop_brick(
            self.addrs[victim as usize],
            self.bricks[victim as usize].take(),
        )?;
        for round in 1..=64 {
            self.pump(tr);
            let health = self.gw.health_summary();
            if health[victim as usize].1 == Health::Dead {
                let others_ok = health
                    .iter()
                    .all(|&(id, h)| id == victim || h == Health::Healthy);
                return if others_ok {
                    Ok(round)
                } else {
                    Err(format!(
                        "bricks other than {victim} left healthy: {health:?}"
                    ))
                };
            }
        }
        Err(format!("brick {victim} never declared dead"))
    }

    /// Shards each live brick stores, by brick id (`None` for stopped).
    pub fn stored_shards(&self) -> Vec<Option<usize>> {
        self.addrs
            .iter()
            .zip(&self.bricks)
            .map(|(&addr, h)| {
                h.as_ref()?;
                BrickClient::connect(addr, CLIENT_TIMEOUT)
                    .and_then(|mut c| c.list_shards())
                    .ok()
                    .map(|l| l.len())
            })
            .collect()
    }

    /// Drops the gateway (closing its pooled connections), then stops
    /// every live brick and joins its accept thread.
    pub fn shutdown(self) -> Result<(), String> {
        let Cluster {
            gw, addrs, bricks, ..
        } = self;
        drop(gw);
        let mut first_err = Ok(());
        for (addr, handle) in addrs.into_iter().zip(bricks) {
            if let Err(e) = stop_brick(addr, handle) {
                first_err = first_err.and(Err(e));
            }
        }
        first_err
    }
}

fn stop_brick(
    addr: SocketAddr,
    handle: Option<JoinHandle<nsr_net::Result<()>>>,
) -> Result<(), String> {
    let Some(handle) = handle else {
        return Ok(());
    };
    BrickClient::connect(addr, CLIENT_TIMEOUT)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("stopping brick {addr}: {e}"))?;
    match handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("brick {addr} exited with {e}")),
        Err(_) => Err(format!("brick {addr} thread panicked")),
    }
}
