//! The TCP front a node and a router share, driven over raw sockets
//! with framing a `Client` never produces: a character split across
//! writes, a line that is not UTF-8, and an idle connection at
//! shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sram_cluster::{Router, RouterConfig};
use sram_serve::{spawn_local_node, Json, Server};

fn node() -> Server {
    spawn_local_node("127.0.0.1:0", 1, 16).expect("node binds")
}

fn router(node: &Server, poll_interval: Duration) -> Router {
    Router::start(RouterConfig {
        nodes: vec![node.local_addr().to_string()],
        replicas: 1,
        poll_interval,
        ..RouterConfig::default()
    })
    .expect("router binds")
}

/// A raw connection: the write half, and a reader over the read half.
fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("dial");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn reply(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = Vec::new();
    reader.read_until(b'\n', &mut line).expect("read reply");
    assert!(line.ends_with(b"\n"), "no reply line before EOF: {line:?}");
    let text = String::from_utf8(line).expect("reply is UTF-8");
    Json::parse(text.trim_end()).expect("reply is JSON")
}

fn field<'a>(json: &'a Json, key: &str) -> Option<&'a str> {
    json.get(key).and_then(Json::as_str)
}

/// `é` is `C3 A9`; the line goes out in two writes 120 ms apart, split
/// between those two bytes, so the front's read times out in the
/// middle of the character.
fn answers_a_character_split_across_writes(addr: SocketAddr) {
    let (mut writer, mut reader) = connect(addr);
    let line = "{\"op\":\"health\",\"id\":\"é\"}\n".as_bytes();
    let split = line.iter().position(|&b| b == 0xC3).expect("é") + 1;
    writer.write_all(&line[..split]).expect("first write");
    std::thread::sleep(Duration::from_millis(120));
    writer.write_all(&line[split..]).expect("second write");
    let answer = reply(&mut reader);
    assert_eq!(field(&answer, "status"), Some("ok"), "{}", answer.render());
    assert_eq!(field(&answer, "id"), Some("é"), "{}", answer.render());
}

/// A line with a `0xFF` byte gets a typed protocol error, and the next
/// line on the same connection is answered.
fn answers_a_line_that_is_not_utf8_and_stays_open(addr: SocketAddr) {
    let (mut writer, mut reader) = connect(addr);
    writer
        .write_all(b"{\"op\":\"health\",\"id\":\"\xFF\"}\n")
        .expect("write");
    let refused = reply(&mut reader);
    assert_eq!(
        field(&refused, "status"),
        Some("error"),
        "{}",
        refused.render()
    );
    assert_eq!(
        field(&refused, "error"),
        Some("protocol error: request line is not valid UTF-8"),
        "{}",
        refused.render()
    );
    writer
        .write_all(b"{\"op\":\"health\",\"id\":\"next\"}\n")
        .expect("write");
    let answer = reply(&mut reader);
    assert_eq!(field(&answer, "status"), Some("ok"), "{}", answer.render());
    assert_eq!(field(&answer, "id"), Some("next"), "{}", answer.render());
}

#[test]
fn node_answers_a_character_split_across_writes() {
    let node = node();
    answers_a_character_split_across_writes(node.local_addr());
    node.shutdown();
}

#[test]
fn router_answers_a_character_split_across_writes() {
    let node = node();
    let router = router(&node, RouterConfig::default().poll_interval);
    answers_a_character_split_across_writes(router.local_addr());
    router.shutdown();
    node.shutdown();
}

#[test]
fn node_answers_a_line_that_is_not_utf8_and_stays_open() {
    let node = node();
    answers_a_line_that_is_not_utf8_and_stays_open(node.local_addr());
    node.shutdown();
}

#[test]
fn router_answers_a_line_that_is_not_utf8_and_stays_open() {
    // The parse-error count below is a gated probe.
    sram_probe::set_level(sram_probe::Level::Summary);
    let parse_errors = || sram_probe::probe_handle!(counter "cluster.request.parse_errors").get();
    let parse_errors_before = parse_errors();
    let node = node();
    let router = router(&node, RouterConfig::default().poll_interval);
    answers_a_line_that_is_not_utf8_and_stays_open(router.local_addr());
    // Other tests in this binary may send bad lines too, so the count
    // moves by at least the one sent here.
    assert!(parse_errors() - parse_errors_before >= 1);
    router.shutdown();
    node.shutdown();
}

/// The health-poll cadence is not the front's poll tick: a slow poller
/// does not slow the router's shutdown with an idle client connected.
#[test]
fn router_shutdown_with_an_idle_client_ignores_the_poll_interval() {
    let node = node();
    let router = router(&node, Duration::from_secs(2));
    let (mut writer, mut reader) = connect(router.local_addr());
    writer
        .write_all(b"{\"op\":\"cluster-stats\"}\n")
        .expect("write");
    assert_eq!(field(&reply(&mut reader), "status"), Some("ok"));

    let started = Instant::now();
    router.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
    node.shutdown();
}
