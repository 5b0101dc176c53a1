//! One lease-handoff ring node as a real OS process.
//!
//! Wraps [`amf_service::PeerNode`] in a line-oriented harness protocol
//! so a parent (the multi-process topology test, or a human with three
//! terminals) can wire a ring, watch it run, and kill members at will:
//!
//! 1. On start the node binds `--listen` and prints `READY <addr>`.
//! 2. It then reads ONE line from stdin: the successor's address
//!    (possibly another node's `READY` address), and wires the link.
//! 3. Every ~20 ms it prints a `STATS key=value ...` line with the
//!    full [`amf_service::PeerStats`] counter set plus the retired
//!    lease ids.
//! 4. stdin EOF requests a clean shutdown (final `STATS` line, exit
//!    0); `kill -9` is the other, considerably less polite, exit path
//!    the ring is designed to survive.
//!
//! ```text
//! peer_node --node 0 --listen 127.0.0.1:0 --seed-leases 1 --visits 12 \
//!           --expiry-ms 150 --visit-delay-ms 50
//! ```

use std::io::{BufRead, Write as _};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use amf_core::LeaseConfig;
use amf_service::{PeerConfig, PeerNode};

struct Args {
    node: u64,
    listen: String,
    seed_leases: u64,
    visits: u64,
    expiry_ms: u64,
    visit_delay_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        node: 0,
        listen: "127.0.0.1:0".to_string(),
        seed_leases: 0,
        visits: 0,
        expiry_ms: 150,
        visit_delay_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let parse = |name: &str, v: String| v.parse::<u64>().map_err(|e| format!("{name}: {e}"));
        match flag.as_str() {
            "--node" => args.node = parse("--node", value("--node")?)?,
            "--listen" => args.listen = value("--listen")?,
            "--seed-leases" => args.seed_leases = parse("--seed-leases", value("--seed-leases")?)?,
            "--visits" => args.visits = parse("--visits", value("--visits")?)?,
            "--expiry-ms" => args.expiry_ms = parse("--expiry-ms", value("--expiry-ms")?)?,
            "--visit-delay-ms" => {
                args.visit_delay_ms = parse("--visit-delay-ms", value("--visit-delay-ms")?)?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: peer_node [--node N] [--listen ADDR] [--seed-leases N] \
                            [--visits N] [--expiry-ms N] [--visit-delay-ms N]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.expiry_ms == 0 {
        return Err("--expiry-ms must be positive (a live link needs recovery)".to_string());
    }
    Ok(args)
}

fn print_stats(node: &PeerNode) {
    let s = node.stats();
    let retired: Vec<String> = node.retired().iter().map(u64::to_string).collect();
    println!(
        "STATS delivered={} retired={} reclaimed={} retransmits={} dup_dropped={} \
         stale_dropped={} degraded_entries={} rejoins={} degraded_now={} \
         fast_path_admits={} fast_path_fallbacks={} stalled_drops={} retired_ids={}",
        s.delivered,
        s.retired,
        s.reclaimed,
        s.retransmits,
        s.dup_dropped,
        s.stale_dropped,
        s.degraded_entries,
        s.rejoins,
        s.degraded_now,
        s.fast_path_admits,
        s.fast_path_fallbacks,
        s.stalled_drops,
        retired.join(","),
    );
    let _ = std::io::stdout().flush();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let node = match PeerNode::spawn(PeerConfig {
        node: args.node,
        listen: args.listen.clone(),
        seed_leases: args.seed_leases,
        visits: args.visits,
        lease: LeaseConfig {
            expiry: Duration::from_millis(args.expiry_ms),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            jitter_seed: 7 + args.node,
        },
        visit_delay: Duration::from_millis(args.visit_delay_ms),
        ..PeerConfig::default()
    }) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("peer_node: spawn failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("READY {}", node.addr());
    let _ = std::io::stdout().flush();

    // First stdin line names the successor; EOF afterwards means "shut
    // down cleanly". A dedicated reader thread keeps the stats loop
    // free to tick.
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        let node_addr = node.addr();
        let next = {
            let mut line = String::new();
            if std::io::stdin().lock().read_line(&mut line).is_err() || line.trim().is_empty() {
                eprintln!("peer_node: no successor address on stdin");
                return ExitCode::FAILURE;
            }
            line.trim().to_string()
        };
        node.set_next(&next);
        eprintln!("peer_node {}: {} -> {}", args.node, node_addr, next);
        std::thread::spawn(move || {
            for line in std::io::stdin().lock().lines() {
                if line.is_err() {
                    break;
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
    }

    while !stop.load(Ordering::SeqCst) {
        print_stats(&node);
        std::thread::sleep(Duration::from_millis(20));
    }
    print_stats(&node);
    drop(node);
    ExitCode::SUCCESS
}
