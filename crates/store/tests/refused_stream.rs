//! A client whose `STREAM` is refused up front (the reserved source id)
//! keeps writing its recording before it reads the reply. The daemon
//! answers at once; its reply must still reach the client intact, with
//! every write of the rest of the stream accepted — closing on unread
//! input would reset the connection under the writing client.

mod common;

use common::{analyzer_for, tmp_dir, PERIODS};
use hbbp_core::HybridRule;
use hbbp_store::wire::{OP_STREAM, RESP_ERR};
use hbbp_store::{DaemonConfig, StoreIdentity, COMPACTED_SOURCE};
use hbbp_workloads::{phased_client, Scale};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn refused_stream_reply_survives_the_clients_remaining_writes() {
    let w = phased_client(Scale::Tiny, 0);
    let analyzer = analyzer_for(&w);
    let identity = StoreIdentity::of_workload(&w, analyzer.map());
    let handle = hbbp_store::spawn(DaemonConfig {
        analyzer,
        identity,
        periods: PERIODS,
        rule: HybridRule::paper_default(),
        window: None,
        shards: 1,
        dir: tmp_dir("refused-stream"),
        workers: 1,
        queue_depth: 0,
        metrics: false,
    })
    .expect("daemon");

    let mut sock = TcpStream::connect(handle.addr()).expect("connect");
    let mut request = vec![OP_STREAM];
    request.extend_from_slice(&4u32.to_le_bytes());
    request.extend_from_slice(&COMPACTED_SOURCE.to_le_bytes());
    sock.write_all(&request).expect("request");
    // The refusal is written and the daemon done with the request long
    // before the "recording" below has all been sent.
    let chunk = vec![0u8; 16 * 1024];
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(40));
        sock.write_all(&chunk)
            .expect("the daemon keeps accepting the refused stream's bytes");
    }

    let mut header = [0u8; 5];
    sock.read_exact(&mut header).expect("reply header");
    let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes")) as usize;
    let mut message = vec![0u8; len];
    sock.read_exact(&mut message).expect("reply payload");
    assert_eq!(header[0], RESP_ERR);
    assert_eq!(
        String::from_utf8_lossy(&message),
        format!("source id {COMPACTED_SOURCE} is reserved for compacted records")
    );
    let mut rest = Vec::new();
    sock.read_to_end(&mut rest)
        .expect("orderly close after the reply");
    assert!(rest.is_empty(), "nothing follows the reply");
    drop(sock);
    handle.shutdown().expect("shutdown");
}
