//! The thread-per-connection front must not keep a descriptor per
//! closed connection. Its own test binary, so no other test's sockets
//! move the process's descriptor count while it is measured.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use amf_service::codec::{encode_request, read_frame, write_frame, Request};
use amf_service::{ServiceConfig, ServiceFront, TicketService};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn closed_connections_release_their_descriptors() {
    let mut handle = TicketService::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            front: ServiceFront::Threaded,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn service");
    let stats = encode_request(&Request::Stats);
    let start = open_fds();
    for _ in 0..200 {
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        write_frame(&mut conn, &stats).unwrap();
        assert!(matches!(read_frame(&mut conn), Ok(Some(_))));
    }
    // Each handler notices its client's close on its next read.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now_open = open_fds();
    while now_open > start + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now_open = open_fds();
    }
    handle.shutdown();
    assert!(
        now_open <= start + 4,
        "200 closed connections left {} descriptors open ({start} at the start)",
        now_open
    );
}
