//! The ticket service on the wire: aspects vetoing remote requests.
//!
//! Spawns the TCP service on an ephemeral port, then shows the three
//! remote outcomes — an aspect veto (`Aborted`, bad token), a bounded
//! buffer holding a request until the server gives up (`Blocked`),
//! and the happy path — and finally prints the moderator's protocol
//! trace of those activations and the anomalies the service pins.
//!
//! Run with: `cargo run --example service`

use std::time::Duration;

use amf_service::{ClientError, ServiceClient, ServiceConfig, TicketService};
use aspect_moderator::aspects::auth::AuthToken;
use aspect_moderator::ticketing::Severity;

fn main() {
    // Tiny buffer + short patience so the Blocked path is visible.
    let config = ServiceConfig {
        capacity: 1,
        op_timeout: Duration::from_millis(50),
        ..ServiceConfig::default()
    };
    let mut handle = TicketService::spawn("127.0.0.1:0", config).expect("spawn service");
    println!("service listening on {}", handle.addr());

    handle.authenticator().add_user("ops", "secret");
    let token = handle
        .authenticator()
        .login("ops", "secret")
        .expect("login");

    let mut client = ServiceClient::connect(handle.addr()).expect("connect");

    // 1. A bad token: the authentication aspect vetoes the activation
    //    before the ticket server is ever touched.
    match client.open(AuthToken(0xbad), 1, Severity::High, "intrusion?") {
        Err(ClientError::Aborted(reason)) => println!("bad token     -> Aborted: {reason}"),
        other => println!("bad token     -> unexpected: {other:?}"),
    }

    // 2. The happy path fills the single-slot buffer...
    client
        .open(token, 1, Severity::Medium, "printer jam")
        .expect("first open fits");
    println!("open #1       -> Ok (buffer now full)");

    // 3. ...so the next open blocks in the pre-activation protocol
    //    until the server's patience runs out.
    match client.open(token, 2, Severity::Low, "toner low") {
        Err(ClientError::Blocked) => println!("open #2       -> Blocked (buffer stayed full)"),
        other => println!("open #2       -> unexpected: {other:?}"),
    }

    // Drain the ticket so the trace ends on a resumed assign.
    let t = client.assign(token).expect("assign");
    println!("assign        -> Ok: {} ({})", t.summary, t.severity);

    println!("\nprotocol trace (compact):");
    for line in handle.trace().compact() {
        println!("  {line}");
    }

    // The bad-token veto and the Blocked timeout, pinned so they outlive
    // the bounded main trace's wrap.
    println!("\npinned anomalies:");
    for line in handle.anomalies().compact() {
        println!("  {line}");
    }

    let stats = handle.stats();
    println!(
        "\nstats: opened={} assigned={} queued={} aborts={} timeouts={} \
         max_queue_depth={} panics_caught={} batched_grants={} fast_path_admits={} \
         fast_path_fallbacks={} open_connections={} tasks_parked={}",
        stats.opened,
        stats.assigned,
        stats.queued,
        stats.aborts,
        stats.timeouts,
        stats.max_queue_depth,
        stats.panics_caught,
        stats.batched_grants,
        stats.fast_path_admits,
        stats.fast_path_fallbacks,
        stats.open_connections,
        stats.tasks_parked,
    );
    handle.shutdown();
}
