//! First-connect latency, alone in its test binary so no sibling test
//! competes for the cores while it is timed.

use atscale_serve::{Client, ServeConfig, Server};
use std::time::{Duration, Instant};

/// Every listener sits in the acceptor's epoll set, so a connect is
/// accepted when it lands. With an acceptor that polled `accept` on a
/// 25 ms sleep (the daemon up to PR 22), each of these sequential
/// handshakes landed inside a sleep: 1.3 s for the fifty.
#[test]
fn first_connects_do_not_wait_for_a_poll_tick() {
    let config = ServeConfig {
        store: None,
        ..ServeConfig::default()
    };
    let server = Server::start(config, Some("127.0.0.1:0"), None).expect("bind");
    let addr = server.tcp_addr().expect("tcp endpoint").to_string();

    let start = Instant::now();
    for _ in 0..50 {
        let mut client = Client::connect(&addr).expect("connect");
        client.hello().expect("handshake");
    }
    let elapsed = start.elapsed();
    server.shutdown_and_join();
    assert!(
        elapsed < Duration::from_millis(250),
        "50 connect + hello took {elapsed:?}"
    );
}
