//! The `atscale-serve` binary's command line: one I/O plane, so no
//! `--io`, and `--reactors` applies to whatever endpoints are given;
//! without `--store`/`--no-store` it opens `$ATSCALE_RESULTS/runs`.

use atscale_serve::Client;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const DAEMON: &str = env!("CARGO_BIN_EXE_atscale-serve");

#[test]
fn io_flag_is_an_unknown_option() {
    let out = Command::new(DAEMON)
        .args(["--tcp", "127.0.0.1:0", "--io", "epoll", "--no-store"])
        .output()
        .expect("run atscale-serve");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --io"), "{stderr}");
}

#[test]
fn socket_is_served_through_reactor_shards() {
    let path = std::env::temp_dir().join(format!("atscale-cli-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut daemon = Command::new(DAEMON)
        .arg("--socket")
        .arg(&path)
        .args(["--reactors", "2", "--workers", "1", "--no-store"])
        .stdout(Stdio::null())
        .spawn()
        .expect("launch atscale-serve");

    // The socket file appears at bind; from then on a connect is accepted.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !path.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {path:?}");
        assert!(
            daemon.try_wait().expect("poll daemon").is_none(),
            "daemon exited before binding"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Two connections: one per shard.
    for _ in 0..2 {
        let mut client = Client::connect_unix(&path).expect("connect");
        client.hello().expect("handshake");
    }
    let mut control = Client::connect_unix(&path).expect("connect");
    control.shutdown().expect("acknowledged");
    assert!(daemon.wait().expect("reap daemon").success());
    assert!(!path.exists(), "exit unlinks the socket");
}

#[test]
fn without_store_flags_the_daemon_opens_the_results_store() {
    let base = std::env::temp_dir().join(format!("atscale-cli-results-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let path = base.with_extension("sock");
    let _ = std::fs::remove_file(&path);
    let mut daemon = Command::new(DAEMON)
        .env("ATSCALE_RESULTS", &base)
        .arg("--socket")
        .arg(&path)
        .args(["--reactors", "1", "--workers", "1"])
        .stdout(Stdio::null())
        .spawn()
        .expect("launch atscale-serve");

    let deadline = Instant::now() + Duration::from_secs(30);
    while !path.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {path:?}");
        assert!(
            daemon.try_wait().expect("poll daemon").is_none(),
            "daemon exited before binding"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The store is opened before the socket is bound.
    assert!(
        base.join("runs/segments").is_dir(),
        "no store under {base:?}"
    );
    let mut control = Client::connect_unix(&path).expect("connect");
    control.shutdown().expect("acknowledged");
    assert!(daemon.wait().expect("reap daemon").success());
    assert!(!path.exists(), "exit unlinks the socket");
    let _ = std::fs::remove_dir_all(&base);
}
