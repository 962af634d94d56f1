//! `hbbp serve` out of file descriptors: with more idle connections
//! than its descriptor limit allows, `accept` fails at once, again and
//! again. The acceptor must back off instead of spinning a core, and the
//! daemon must serve again once the idle connections close.

use hbbp_store::StoreClient;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The daemon's descriptor limit (`ulimit -n`).
const FD_LIMIT: usize = 64;
/// Idle connections held open: well past the limit.
const IDLE: usize = 100;
/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 on Linux whatever the kernel's internal tick rate).
const USER_HZ: u64 = 100;

/// User plus system CPU time of `pid`, in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("proc stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields[i - 3].parse::<u64>().expect("tick count");
    field(14) + field(15)
}

/// Kills the daemon if the test fails before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn accept_errors_back_off_and_service_resumes_once_descriptors_free_up() {
    let dir = std::env::temp_dir().join(format!("hbbp-cli-emfile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n {FD_LIMIT} && exec \"$0\" serve --workload phased --scale tiny --dir \"$1\""
        ))
        .arg(env!("CARGO_BIN_EXE_hbbp"))
        .arg(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hbbp serve");
    // Held open to the end: the daemon prints again as it stops.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut daemon = Daemon(child);
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("hbbpd listening on ")
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("daemon did not start: {banner:?}"));

    // Connections beyond the limit wait in the accept backlog while
    // every `accept` fails with EMFILE.
    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let pid = daemon.0.id();
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(1));
    let used_ms = (cpu_ticks(pid) - before) * 1000 / USER_HZ;
    assert!(
        used_ms <= 250,
        "out of descriptors with {IDLE} idle connections, the daemon used {used_ms} ms of CPU in 1 s"
    );

    drop(idle);
    let client = StoreClient::new(addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        match client.stats() {
            Ok(stats) => break stats,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("no STATS reply once the idle connections closed: {e}"),
        }
    };
    assert_eq!(stats.counts_frames, 0, "nothing was ingested");
    client.shutdown().expect("shutdown");
    assert!(daemon.0.wait().expect("daemon exit").success());
    drop(stdout);
    let _ = std::fs::remove_dir_all(&dir);
}
