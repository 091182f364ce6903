//! Live-socket tests: TCP and Unix front ends answer concurrent JSONL
//! clients, shed when the bounded queue fills, and drain gracefully.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use mcpb_bench::{ImMethodKind, McpMethodKind};
use mcpb_serve::socket::{serve_listener, SocketConfig};
use mcpb_serve::state::{preload, ServeConfig, ServeState, SolverPool};

fn small_preload() -> (Arc<ServeState>, SolverPool) {
    let cfg = ServeConfig {
        datasets: vec!["Damascus".to_string()],
        mcp_solvers: vec![McpMethodKind::TopDegree],
        im_solvers: vec![ImMethodKind::DDiscount],
        rr_sets: 200,
        ..ServeConfig::default()
    };
    preload(&cfg).expect("preload")
}

fn roundtrip(stream: &mut (impl std::io::Read + Write), line: &str) -> String {
    let mut w = String::from(line);
    w.push('\n');
    stream.write_all(w.as_bytes()).expect("request line writes");
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("response line reads");
    resp
}

#[test]
fn tcp_clients_get_typed_responses_and_server_drains_clean() {
    let (state, pool) = small_preload();
    let handle = serve_listener(state, pool, &SocketConfig::default()).expect("server binds");
    let addr = handle
        .endpoint()
        .strip_prefix("tcp:")
        .expect("tcp endpoint")
        .to_string();

    // A well-formed query serves.
    let mut c1 = TcpStream::connect(&addr).expect("connect");
    let good = roundtrip(
        &mut c1,
        "{\"id\":1,\"task\":\"mcp\",\"dataset\":\"Damascus\",\"solver\":\"TopDegree\",\"budget\":5}",
    );
    assert!(good.contains("\"verdict\":\"served\""), "got {good}");
    assert!(good.contains("\"id\":1"));

    // Garbage gets a typed error on the same connection, which stays up.
    let bad = roundtrip(&mut c1, "{not json");
    assert!(bad.contains("\"verdict\":\"error\""), "got {bad}");
    let again = roundtrip(
        &mut c1,
        "{\"id\":2,\"task\":\"im\",\"dataset\":\"Damascus\",\"solver\":\"DDiscount\",\"budget\":3}",
    );
    assert!(again.contains("\"verdict\":\"served\""), "got {again}");

    // A second concurrent client is served too.
    let mut c2 = TcpStream::connect(&addr).expect("connect");
    let other = roundtrip(
        &mut c2,
        "{\"id\":7,\"task\":\"mcp\",\"dataset\":\"Damascus\",\"solver\":\"TopDegree\",\"budget\":2}",
    );
    assert!(other.contains("\"verdict\":\"served\""), "got {other}");

    // Unknown solver: typed error, not a dropped connection.
    let unknown = roundtrip(
        &mut c2,
        "{\"id\":8,\"task\":\"mcp\",\"dataset\":\"Damascus\",\"solver\":\"Nope\",\"budget\":2}",
    );
    assert!(unknown.contains("\"verdict\":\"error\""), "got {unknown}");
    drop(c1);
    drop(c2);

    let (_pool, stats) = handle.shutdown_and_join();
    assert_eq!(stats.requests, 5);
    assert!(
        stats.drained_clean(),
        "every request needs exactly one response: {stats:?}"
    );
}

#[test]
fn bad_bytes_get_a_typed_error_and_the_connection_stays_up() {
    let (state, pool) = small_preload();
    let handle = serve_listener(state, pool, &SocketConfig::default()).expect("server binds");
    let addr = handle
        .endpoint()
        .strip_prefix("tcp:")
        .expect("tcp endpoint")
        .to_string();
    let mut c = TcpStream::connect(&addr).expect("connect");
    c.write_all(b"{\"id\":1,\xff\xfe}\n")
        .expect("bad line writes");
    let mut bad = String::new();
    BufReader::new(&mut c)
        .read_line(&mut bad)
        .expect("response line reads");
    assert!(bad.contains("\"verdict\":\"error\""), "got {bad}");
    assert!(bad.contains("not UTF-8"), "got {bad}");

    let good = roundtrip(
        &mut c,
        "{\"id\":2,\"task\":\"mcp\",\"dataset\":\"Damascus\",\"solver\":\"TopDegree\",\"budget\":3}",
    );
    assert!(good.contains("\"verdict\":\"served\""), "got {good}");
    drop(c);

    let (_pool, stats) = handle.shutdown_and_join();
    assert_eq!(stats.requests, 2);
    assert!(stats.drained_clean(), "{stats:?}");
}

#[test]
fn unix_socket_serves_and_admin_shutdown_drains() {
    let (state, pool) = small_preload();
    let sock = std::env::temp_dir().join(format!("mcpb-serve-test-{}.sock", std::process::id()));
    let cfg = SocketConfig {
        endpoint: format!("unix:{}", sock.display()),
        ..SocketConfig::default()
    };
    let handle = serve_listener(state, pool, &cfg).expect("server binds");

    let mut c = UnixStream::connect(&sock).expect("connect");
    let good = roundtrip(
        &mut c,
        "{\"id\":1,\"task\":\"im\",\"dataset\":\"Damascus\",\"solver\":\"DDiscount\",\"budget\":4}",
    );
    assert!(good.contains("\"verdict\":\"served\""), "got {good}");

    // The admin line acknowledges and flips the server into draining.
    let ack = roundtrip(&mut c, "{\"op\":\"shutdown\"}");
    assert!(ack.contains("draining"), "got {ack}");
    drop(c);

    let (_pool, stats) = handle.shutdown_and_join();
    assert_eq!(stats.requests, 1);
    assert!(stats.drained_clean(), "{stats:?}");
    assert!(!sock.exists(), "socket file is removed on drain");
}
