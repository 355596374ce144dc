//! Fault-injection tests: every documented failure class must produce
//! its specific typed error, leave the server serviceable, and never
//! panic or wedge a worker.
//!
//! Each test spins a real loopback TCP server, injects one fault, then
//! proves the server still answers on a fresh connection. The classes
//! covered here mirror the degradation contract in
//! `msrnet_service::server`:
//!
//! * client disconnect mid-frame;
//! * session hard cap (`SessionLimit`) and LRU eviction (`Evicted`,
//!   with the documented victim);
//! * deadline expiry (`DeadlineExceeded`) with completed work retained;
//! * oversized frame (`Oversized`) and malformed frame (`BadFrame`),
//!   both followed by a connection drop;
//! * slow-loris (mid-frame stall → cut);
//! * connection cap (`Busy`);
//! * malformed `open`/`batch` payloads (`ParseError`, counted in
//!   `requests_error`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use msrnet_incremental::json::json_str;
use msrnet_netgen::format::write_net_file;
use msrnet_netgen::{table1, ExperimentNet};
use msrnet_rng::rngs::StdRng;
use msrnet_rng::SeedableRng;
use msrnet_service::client::{Client, ClientError};
use msrnet_service::frame::FrameDecoder;
use msrnet_service::net::Endpoint;
use msrnet_service::proto::Response;
use msrnet_service::server::{Server, ServerConfig};
use msrnet_service::ErrorCode;

/// A running loopback server; stopped and joined on drop.
struct TestServer {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn spawn(config: ServerConfig) -> TestServer {
        let server =
            Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), config).expect("bind loopback");
        let endpoint = server.local_endpoint().expect("local endpoint");
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            server.run(&stop2).expect("server run");
        });
        TestServer { endpoint, stop, handle: Some(handle) }
    }

    fn client(&self) -> Client {
        let mut c = Client::connect(&self.endpoint).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        c
    }

    /// The raw TCP address, for hand-rolled byte-level injection.
    fn addr(&self) -> &str {
        match &self.endpoint {
            Endpoint::Tcp(addr) => addr,
            other => panic!("expected a TCP endpoint, got {other}"),
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.join().expect("server thread");
        }
    }
}

/// A small deterministic net upload.
fn fixture_msr(seed: u64) -> String {
    let params = table1();
    let mut rng = StdRng::seed_from_u64(seed);
    let exp = ExperimentNet::random(&mut rng, 4, &params).expect("generate");
    write_net_file(&exp.with_insertion_points(2000.0), &[params.repeater(1.0)])
}

/// Asserts a typed server rejection with the expected code.
fn expect_code(result: Result<impl std::fmt::Debug, ClientError>, want: ErrorCode) {
    match result {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, want),
        other => panic!("expected server error {want}, got {other:?}"),
    }
}

/// Reads exactly one response frame from a raw socket.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut dec = FrameDecoder::new(u32::MAX);
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = dec.next_frame().expect("response frames") {
            return Response::decode(&frame).expect("typed response");
        }
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "connection closed before a response arrived");
        dec.feed(&buf[..n]);
    }
}

#[test]
fn disconnect_mid_frame_leaves_sessions_intact() {
    let ts = TestServer::spawn(ServerConfig::default());
    let msr = fixture_msr(11);

    let mut a = ts.client();
    let session = a.open("a.msr", &msr, 0, 0.0).expect("open");
    let report_before = a.recompute(session).expect("recompute");
    drop(a);

    // A second connection starts a frame and dies mid-payload.
    {
        let mut raw = TcpStream::connect(ts.addr()).expect("raw connect");
        // Valid header announcing 64 payload bytes; send only 3.
        raw.write_all(&[0x4D, 0x52, 0x01, 0x07, 0, 0, 0, 64, 1, 2, 3]).expect("partial");
        raw.flush().expect("flush");
        // Dropping the stream closes the socket mid-frame.
    }

    // The server must still answer, and the session opened before the
    // fault must be untouched — byte-identical report.
    let mut b = ts.client();
    let report_after = b.recompute(session).expect("recompute after fault");
    assert_eq!(report_before, report_after);
    b.close(session).expect("close");
}

#[test]
fn malformed_open_and_batch_payloads_are_counted_parse_errors() {
    let ts = TestServer::spawn(ServerConfig::default());
    let msr = fixture_msr(15);
    let mut c = ts.client();

    // Non-finite and negative net values, each of which used to reach an
    // asserting constructor and panic the connection worker.
    let edit = |prefix: &str, f: &dyn Fn(&str) -> String| {
        msr.lines()
            .map(|l| if l.starts_with(prefix) { f(l) } else { l.to_owned() })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let bad_nets = [
        edit("wire ", &|l| format!("{l} res_scale=nan")),
        edit("wire ", &|l| format!("{l} cap_scale=-1")),
        edit("tech ", &|_| "tech nan 0.00035".to_owned()),
    ];
    for bad in &bad_nets {
        expect_code(c.open("bad.msr", bad, 0, 0.0), ErrorCode::ParseError);
    }
    // `approx:EPS` names no pruning strategy, on open or on batch.
    expect_code(
        c.open_with_pruning("a.msr", &msr, 0, 0.0, "approx:0.05"),
        ErrorCode::ParseError,
    );
    let spec = |pruning: &str, net: &str| {
        format!(
            "{{\"pruning\": {}, \"nets\": [{{\"name\": \"a\", \"msr\": {}}}]}}",
            json_str(pruning),
            json_str(net)
        )
    };
    expect_code(c.batch(&spec("approx:0.05", &msr)), ErrorCode::ParseError);
    expect_code(c.batch(&spec("naive", &bad_nets[0])), ErrorCode::ParseError);

    // The same connection still serves, and every refusal was counted.
    c.batch(&spec("naive", &msr)).expect("valid batch");
    let session = c.open_with_pruning("a.msr", &msr, 0, 0.0, "naive").expect("open");
    c.close(session).expect("close");
    let stats = c.stats().expect("stats");
    assert!(stats.contains("\"requests_error\": 6"), "{stats}");
    assert!(stats.contains("\"requests_ok\": 3"), "{stats}");
}

#[test]
fn session_hard_cap_is_a_typed_limit() {
    let ts = TestServer::spawn(ServerConfig {
        max_sessions: 2,
        max_resident: 2,
        ..ServerConfig::default()
    });
    let msr = fixture_msr(12);
    let mut c = ts.client();

    let s1 = c.open("one.msr", &msr, 0, 0.0).expect("open 1");
    let s2 = c.open("two.msr", &msr, 0, 0.0).expect("open 2");
    expect_code(c.open("three.msr", &msr, 0, 0.0), ErrorCode::SessionLimit);

    // Closing a session frees capacity; the cap is on live sessions,
    // not a lifetime quota.
    c.close(s1).expect("close");
    let s3 = c.open("three.msr", &msr, 0, 0.0).expect("open after close");
    assert_ne!(s3, s2, "session ids are never reused");
    c.close(s2).expect("close 2");
    c.close(s3).expect("close 3");
}

#[test]
fn lru_eviction_tombstones_the_documented_victim() {
    let ts = TestServer::spawn(ServerConfig {
        max_resident: 2,
        ..ServerConfig::default()
    });
    let msr = fixture_msr(13);
    let mut c = ts.client();

    let s1 = c.open("one.msr", &msr, 0, 0.0).expect("open 1");
    let s2 = c.open("two.msr", &msr, 0, 0.0).expect("open 2");
    // Touch s1 so s2 becomes least-recently-used.
    c.recompute(s1).expect("touch 1");
    // Admitting s3 pushes residency to 3 > 2: s2 is the documented
    // victim (lowest logical touch tick among resident sessions).
    let s3 = c.open("three.msr", &msr, 0, 0.0).expect("open 3");

    expect_code(c.recompute(s2), ErrorCode::Evicted);
    // The tombstone is stable: touching it again keeps saying Evicted,
    // not UnknownSession.
    expect_code(c.curve(s2), ErrorCode::Evicted);
    // Survivors are untouched.
    c.recompute(s1).expect("s1 alive");
    c.recompute(s3).expect("s3 alive");

    // Stats expose the eviction.
    let stats = c.stats().expect("stats");
    assert!(stats.contains("\"sessions_evicted\": 1"), "{stats}");
}

#[test]
fn zero_deadline_expires_and_retains_completed_work() {
    let ts = TestServer::spawn(ServerConfig::default());
    let msr = fixture_msr(14);
    let mut c = ts.client();

    let session = c.open("net.msr", &msr, 0, 0.0).expect("open");
    let report_before = c.recompute(session).expect("baseline");

    // A 0 ms deadline expires at the first cooperative checkpoint —
    // deterministically, no sleeps involved.
    c.deadline_ms = 0;
    expect_code(
        c.edit(session, "{\"edits\": [{\"op\": \"swap_library\", \"scale\": 2.0}]}"),
        ErrorCode::DeadlineExceeded,
    );
    expect_code(c.open("again.msr", &msr, 0, 0.0), ErrorCode::DeadlineExceeded);

    // The session survives the expired request, with no partial edit
    // applied (the edit deadline fires before step 1).
    c.deadline_ms = u32::MAX;
    let report_after = c.recompute(session).expect("recompute");
    assert_eq!(report_before, report_after);
    c.close(session).expect("close");
}

#[test]
fn oversized_frame_is_refused_then_dropped() {
    let ts = TestServer::spawn(ServerConfig {
        max_payload: 1024,
        ..ServerConfig::default()
    });
    let mut msr = fixture_msr(15);
    while msr.len() <= 1024 {
        msr.push_str("# padding to exceed the frame cap\n");
    }
    let mut c = ts.client();

    expect_code(c.open("big.msr", &msr, 0, 0.0), ErrorCode::Oversized);
    // Framing errors poison the connection: the server drops it after
    // the error response.
    match c.stats() {
        Err(ClientError::Disconnected | ClientError::Io(_)) => {}
        other => panic!("expected a dropped connection, got {other:?}"),
    }
    // A fresh connection with a under-cap request still works.
    let mut c2 = ts.client();
    let stats = c2.stats().expect("server still serviceable");
    assert!(stats.contains("msrnet_serve_stats"), "{stats}");
}

#[test]
fn malformed_bytes_get_bad_frame_then_dropped() {
    let ts = TestServer::spawn(ServerConfig::default());

    let mut raw = TcpStream::connect(ts.addr()).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("garbage");
    raw.flush().expect("flush");
    match read_response(&mut raw) {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame, got {other:?}"),
    }
    // After the error frame the server hangs up.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("EOF");
    assert!(rest.is_empty(), "no bytes after the error frame");

    let mut c = ts.client();
    c.stats().expect("server still serviceable");
}

#[test]
fn slow_loris_is_cut_at_the_read_timeout() {
    let ts = TestServer::spawn(ServerConfig {
        read_timeout_ms: 50,
        ..ServerConfig::default()
    });

    let mut raw = TcpStream::connect(ts.addr()).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    // A valid header announcing 64 bytes, then... nothing. The server's
    // read times out mid-frame and cuts the connection instead of
    // holding the worker hostage.
    raw.write_all(&[0x4D, 0x52, 0x01, 0x07, 0, 0, 0, 64]).expect("header");
    raw.flush().expect("flush");
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("server hangs up");
    assert!(rest.is_empty(), "cut without a response: {rest:02x?}");

    let mut c = ts.client();
    c.stats().expect("server still serviceable");
}

#[test]
fn connection_cap_refuses_with_busy() {
    let ts = TestServer::spawn(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });

    // First connection occupies the only slot (its worker lives until
    // the socket closes).
    let mut a = ts.client();
    a.stats().expect("first connection serves");

    // Second connection is refused with a typed Busy.
    let mut b = ts.client();
    match b.stats() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        // The refusal frame may arrive before or after our request
        // write; either way the request fails cleanly.
        Err(ClientError::Disconnected | ClientError::Io(_)) => {}
        other => panic!("expected Busy/drop, got {other:?}"),
    }

    // Releasing the first connection frees the slot.
    drop(a);
    // The server reaps the worker asynchronously; retry briefly.
    let mut ok = false;
    for _ in 0..100 {
        let mut c = ts.client();
        if c.stats().is_ok() {
            ok = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(ok, "slot never freed after the first connection closed");
}
