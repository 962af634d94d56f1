//! What an idle daemon costs, counted in work rather than time: the
//! workers wait on readiness, so connections that send nothing cost no
//! ticks, and a request costs a few connection ticks however many idle
//! connections share its worker.

mod common;

use common::{analyzer_for, tmp_dir, PERIODS};
use hbbp_core::HybridRule;
use hbbp_obs::{Counter, Gauge, Metrics};
use hbbp_store::{DaemonConfig, DaemonHandle, StoreIdentity};
use hbbp_workloads::{phased_client, Scale};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Idle connections each test holds open.
const IDLE: usize = 400;

/// Each test holds `2 × IDLE` descriptors in this process (both ends of
/// every connection); one test at a time keeps the total well inside a
/// default descriptor limit.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn spawn_daemon(name: &str) -> DaemonHandle {
    let w = phased_client(Scale::Tiny, 0);
    let analyzer = analyzer_for(&w);
    let identity = StoreIdentity::of_workload(&w, analyzer.map());
    hbbp_store::spawn(DaemonConfig {
        analyzer,
        identity,
        periods: PERIODS,
        rule: HybridRule::paper_default(),
        window: None,
        shards: 2,
        dir: tmp_dir(name),
        workers: 2,
        queue_depth: 0,
        metrics: true,
    })
    .expect("daemon")
}

/// Open `n` connections that never send a byte, and wait until the
/// workers have adopted every one.
fn open_idle(handle: &DaemonHandle, n: usize) -> Vec<TcpStream> {
    let idle: Vec<TcpStream> = (0..n)
        .map(|_| TcpStream::connect(handle.addr()).expect("connect"))
        .collect();
    let metrics = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.gauge_value(Gauge::WorkerConnections, 0).0 < n as u64 {
        assert!(
            Instant::now() < deadline,
            "workers never adopted {n} connections"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    idle
}

/// `(worker.ticks, worker.conn_ticks)`.
fn work(metrics: &Metrics) -> (u64, u64) {
    (
        metrics.counter_value(Counter::WorkerTicks),
        metrics.counter_value(Counter::WorkerConnTicks),
    )
}

/// The work done over 300 ms of doing nothing.
fn idle_work(metrics: &Metrics) -> (u64, u64) {
    let before = work(metrics);
    std::thread::sleep(Duration::from_millis(300));
    let after = work(metrics);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn idle_daemon_does_no_work_with_or_without_idle_connections() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let handle = spawn_daemon("idle-work");
    let metrics = handle.metrics();
    // Let start-up settle (the workers flush their counters before
    // their first wait).
    std::thread::sleep(Duration::from_millis(50));

    let (ticks, conn_ticks) = idle_work(&metrics);
    assert!(
        ticks <= 2 && conn_ticks <= 2,
        "no connections: {ticks} ticks, {conn_ticks} connection ticks in 300 ms"
    );

    let idle = open_idle(&handle, IDLE);
    let (ticks, conn_ticks) = idle_work(&metrics);
    assert!(
        ticks <= 2 && conn_ticks <= 2,
        "{IDLE} idle connections: {ticks} ticks, {conn_ticks} connection ticks in 300 ms"
    );
    drop(idle);
    handle.shutdown().expect("shutdown");
}

#[test]
fn a_request_beside_idle_connections_costs_a_few_connection_ticks() {
    const REQUESTS: u64 = 20;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let handle = spawn_daemon("idle-stats");
    let metrics = handle.metrics();
    let idle = open_idle(&handle, IDLE);
    let client = handle.client();

    let before = work(&metrics);
    for _ in 0..REQUESTS {
        client.stats().expect("stats");
    }
    // The last reply's connection is retired after its bytes are sent;
    // give that tick time to land in the counters. Anything the idle
    // connections cost meanwhile counts against the requests too.
    std::thread::sleep(Duration::from_millis(300));
    let conn_ticks = work(&metrics).1 - before.1;
    // Per STATS: read the request and fan it out, find the writers not
    // done yet, collect their answers on the doorbell, flush the reply
    // — about four ticks of its own connection and none of the others'.
    assert!(
        conn_ticks <= REQUESTS * 8,
        "{REQUESTS} STATS beside {IDLE} idle connections took {conn_ticks} connection ticks"
    );
    drop(idle);
    handle.shutdown().expect("shutdown");
}
