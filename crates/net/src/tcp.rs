//! Framed TCP transport.
//!
//! Carries packets over real sockets so the examples can run as genuinely
//! networked processes. Frames are length-prefixed:
//!
//! ```text
//! [u32 payload-len (BE)] [u32 source-node (BE)] [payload bytes]
//! ```
//!
//! Each endpoint runs an accept loop; outgoing connections are opened
//! lazily per peer and cached. Reliability beyond TCP's own (reconnection,
//! retransmission across connection loss) belongs to the protocol layers
//! above, which already implement it for the lossy simulator.

use std::collections::HashMap;
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use newtop_flow::queue::Sender;
use parking_lot::Mutex;

use crate::sim::Packet;
use crate::site::NodeId;
use crate::transport::{TransportError, WireTransport};

const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Receive-side buffer per connection: a burst of frames is taken in
/// with one `read` instead of three per frame (length, source,
/// payload). A frame larger than the buffer is read straight into its
/// own allocation.
const READ_BUF: usize = 8 * 1024;

/// One peer's cached connection. Sends lock the slot (not the whole
/// table) for the duration of a frame write, so frames to one peer stay
/// atomic while sends to other peers proceed in parallel.
type ConnSlot = Arc<Mutex<Option<TcpStream>>>;

struct Shared {
    local: NodeId,
    peers: Mutex<HashMap<NodeId, SocketAddr>>,
    conns: Mutex<HashMap<NodeId, ConnSlot>>,
    closed: AtomicBool,
}

/// A TCP endpoint for one node.
///
/// Create with [`TcpEndpoint::bind`], register peers with
/// [`TcpEndpoint::register_peer`], and send through the [`WireTransport`]
/// impl. Incoming packets arrive on the channel supplied to `bind`.
pub struct TcpEndpoint {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TcpEndpoint(local={}, addr={})",
            self.shared.local, self.local_addr
        )
    }
}

impl TcpEndpoint {
    /// Binds a listener for `local` on `addr` (use port 0 for an ephemeral
    /// port; see [`Self::local_addr`]) and spawns the accept loop, which
    /// pushes every received frame to `incoming`.
    ///
    /// `incoming` is a *bounded* flow queue (see
    /// [`newtop_flow::queue::bounded`]); when it fills, the reader
    /// threads block — backpressure propagates to the senders through
    /// TCP's own window rather than buffering without bound. Blocking
    /// events are counted in the queue's
    /// [`newtop_flow::queue::QueueStats::blocked`].
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener.
    pub fn bind(
        local: NodeId,
        addr: SocketAddr,
        incoming: Sender<Packet>,
    ) -> std::io::Result<TcpEndpoint> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            local,
            peers: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("tcp-accept-{local}"))
            .spawn(move || accept_loop(&listener, &accept_shared, &incoming))?;
        Ok(TcpEndpoint {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The actual bound address (useful with ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Makes `peer` reachable at `addr`.
    pub fn register_peer(&self, peer: NodeId, addr: SocketAddr) {
        self.shared.peers.lock().insert(peer, addr);
    }

    /// A cloneable sending handle.
    #[must_use]
    pub fn handle(&self) -> TcpTransport {
        TcpTransport {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops the endpoint: closes cached connections and unblocks the
    /// accept loop. Idempotent; also performed on drop.
    pub fn shutdown(&mut self) {
        if self.shared.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        // Take the whole map under the guard, then close the sockets
        // with it released: per-slot locks (and the socket teardown
        // behind them) nest inside the registry lock everywhere else,
        // so holding it here would invert that order.
        let drained = std::mem::take(&mut *self.shared.conns.lock());
        for (_, slot) in drained {
            if let Some(conn) = slot.lock().take() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        // Poke the listener so `accept` returns and the loop observes
        // `closed`.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, incoming: &Sender<Packet>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.closed.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(shared);
        let incoming = incoming.clone();
        let _ = std::thread::Builder::new()
            .name(format!("tcp-read-{}", shared.local))
            .spawn(move || read_loop(stream, &shared, &incoming));
    }
}

fn read_loop(stream: TcpStream, shared: &Arc<Shared>, incoming: &Sender<Packet>) {
    let mut reader = BufReader::with_capacity(READ_BUF, stream);
    // One fixed-size header read: no fallible slice-to-array conversion
    // on the network-input path.
    let mut header = [0u8; 8];
    loop {
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        if reader.read_exact(&mut header).is_err() {
            return;
        }
        let [l0, l1, l2, l3, s0, s1, s2, s3] = header;
        let len = u32::from_be_bytes([l0, l1, l2, l3]);
        let src = u32::from_be_bytes([s0, s1, s2, s3]);
        if len > MAX_FRAME {
            return;
        }
        let mut payload = vec![0u8; len as usize];
        if reader.read_exact(&mut payload).is_err() {
            return;
        }
        let pkt = Packet {
            src: NodeId::from_index(src),
            dst: shared.local,
            payload: Bytes::from(payload),
        };
        if incoming.send(pkt).is_err() {
            return;
        }
    }
}

/// Writes `header` then `payload` with vectored writes — one syscall
/// for the whole frame when the socket takes it, and no copy of the
/// payload into an assembly buffer. Partial writes resume where they
/// stopped.
fn write_frame(stream: &mut impl Write, header: &[u8], payload: &[u8]) -> std::io::Result<()> {
    let mut bufs = [IoSlice::new(header), IoSlice::new(payload)];
    let mut bufs: &mut [IoSlice<'_>] = &mut bufs;
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The cloneable sending half of a [`TcpEndpoint`].
#[derive(Clone)]
pub struct TcpTransport {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpTransport(local={})", self.shared.local)
    }
}

impl WireTransport for TcpTransport {
    fn local(&self) -> NodeId {
        self.shared.local
    }

    fn send(&self, dst: NodeId, payload: Bytes) -> Result<(), TransportError> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        let addr = *self
            .shared
            .peers
            .lock()
            .get(&dst)
            .ok_or(TransportError::UnknownPeer(dst))?;
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_FRAME)
            .ok_or_else(|| {
                TransportError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "frame too large",
                ))
            })?;
        // Stack-allocated header; the payload is written straight from the
        // (possibly shared) `Bytes` buffer, so a multicast frame is never
        // copied per recipient here.
        let mut header = [0u8; 8];
        header[0..4].copy_from_slice(&len.to_be_bytes());
        header[4..8].copy_from_slice(&self.shared.local.index().to_be_bytes());
        // Take the per-peer slot under the table lock, then drop the table
        // lock before any I/O: sends to different peers never serialize on
        // each other, and a slow connect cannot stall the whole endpoint.
        let slot = {
            let mut conns = self.shared.conns.lock();
            Arc::clone(conns.entry(dst).or_default())
        };
        // The slot lock is held across connect + write on purpose: frames
        // to one peer must not interleave (allowlisted for lock-hygiene).
        let mut guard = slot.lock();
        if guard.is_none() {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            *guard = Some(stream);
        }
        let Some(stream) = guard.as_mut() else {
            return Err(TransportError::Closed);
        };
        if let Err(e) = write_frame(stream, &header, &payload) {
            *guard = None;
            return Err(TransportError::Io(e));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_flow::queue::bounded;
    use std::time::Duration;

    fn ephemeral() -> SocketAddr {
        "127.0.0.1:0".parse().expect("valid addr")
    }

    fn inbox() -> (
        newtop_flow::queue::Sender<Packet>,
        newtop_flow::queue::Receiver<Packet>,
    ) {
        bounded(newtop_flow::FlowConfig::default().queue_capacity)
    }

    #[test]
    fn two_endpoints_exchange_frames() {
        let (tx_a, rx_a) = inbox();
        let (tx_b, rx_b) = inbox();
        let a = TcpEndpoint::bind(NodeId::from_index(0), ephemeral(), tx_a).unwrap();
        let b = TcpEndpoint::bind(NodeId::from_index(1), ephemeral(), tx_b).unwrap();
        a.register_peer(NodeId::from_index(1), b.local_addr());
        b.register_peer(NodeId::from_index(0), a.local_addr());

        a.handle()
            .send(NodeId::from_index(1), Bytes::from_static(b"over tcp"))
            .unwrap();
        let pkt = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&pkt.payload[..], b"over tcp");
        assert_eq!(pkt.src, NodeId::from_index(0));

        b.handle()
            .send(NodeId::from_index(0), Bytes::from_static(b"reply"))
            .unwrap();
        let pkt = rx_a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&pkt.payload[..], b"reply");
    }

    #[test]
    fn many_frames_stay_ordered_per_peer() {
        let (tx_a, _rx_a) = inbox();
        let (tx_b, rx_b) = inbox();
        let a = TcpEndpoint::bind(NodeId::from_index(0), ephemeral(), tx_a).unwrap();
        let b = TcpEndpoint::bind(NodeId::from_index(1), ephemeral(), tx_b).unwrap();
        a.register_peer(NodeId::from_index(1), b.local_addr());
        let h = a.handle();
        for i in 0..200u32 {
            h.send(NodeId::from_index(1), Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..200u32 {
            let pkt = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(pkt.payload.as_ref(), i.to_be_bytes());
        }
    }

    /// A payload with a 251-byte period — prime, so it lines up with no
    /// buffer or segment size, and a dropped, repeated or shifted chunk
    /// shows up as a mismatch.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn pair() -> (
        TcpEndpoint,
        TcpEndpoint,
        newtop_flow::queue::Receiver<Packet>,
    ) {
        let (tx_a, _rx_a) = inbox();
        let (tx_b, rx_b) = inbox();
        let a = TcpEndpoint::bind(NodeId::from_index(0), ephemeral(), tx_a).unwrap();
        let b = TcpEndpoint::bind(NodeId::from_index(1), ephemeral(), tx_b).unwrap();
        a.register_peer(NodeId::from_index(1), b.local_addr());
        (a, b, rx_b)
    }

    #[test]
    fn frame_larger_than_the_read_buffer_arrives_intact() {
        let (a, _b, rx_b) = pair();
        let big = pattern((1 << 20) + 7);
        assert!(big.len() > READ_BUF);
        let h = a.handle();
        h.send(NodeId::from_index(1), Bytes::from(big.clone()))
            .unwrap();
        h.send(NodeId::from_index(1), Bytes::from_static(b"after"))
            .unwrap();
        let pkt = rx_b.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(pkt.payload.len(), big.len());
        assert!(pkt.payload[..] == big[..]);
        let pkt = rx_b.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(&pkt.payload[..], b"after");
    }

    #[test]
    fn a_thousand_small_frames_arrive_intact_and_in_order() {
        let (a, _b, rx_b) = pair();
        let frame = |i: u32| {
            let mut f = i.to_be_bytes().to_vec();
            f.extend(pattern(i as usize % 61));
            f
        };
        let h = a.handle();
        let sender = std::thread::spawn(move || {
            for i in 0..1000u32 {
                h.send(NodeId::from_index(1), Bytes::from(frame(i)))
                    .unwrap();
            }
        });
        for i in 0..1000u32 {
            let pkt = rx_b.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(pkt.src, NodeId::from_index(0));
            assert_eq!(pkt.payload.as_ref(), frame(i).as_slice(), "frame {i}");
        }
        sender.join().unwrap();
        assert!(rx_b.try_recv().is_err());
    }

    #[test]
    fn four_mib_frame_to_a_slow_reader_completes() {
        // A bare listener stands in for the peer so the test controls
        // how fast the bytes are taken off the socket. Whether the
        // kernel splits this write is up to it; the partial-write path
        // itself is pinned down by `write_frame_resumes_partial_vectored_writes`.
        let listener = TcpListener::bind(ephemeral()).unwrap();
        let peer = listener.local_addr().unwrap();
        let payload = pattern(4 << 20);
        let reader = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(100));
            let mut got = Vec::new();
            let mut chunk = vec![0u8; 64 * 1024];
            loop {
                match conn.read(&mut chunk).unwrap() {
                    0 => return got,
                    n => got.extend_from_slice(&chunk[..n]),
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let (tx, _rx) = inbox();
        let mut a = TcpEndpoint::bind(NodeId::from_index(0), ephemeral(), tx).unwrap();
        a.register_peer(NodeId::from_index(1), peer);
        a.handle()
            .send(NodeId::from_index(1), Bytes::from(payload.clone()))
            .unwrap();
        a.shutdown();
        let got = reader.join().unwrap();
        assert_eq!(got.len(), 8 + payload.len());
        assert_eq!(got[..4], (payload.len() as u32).to_be_bytes());
        assert_eq!(got[4..8], 0u32.to_be_bytes());
        assert!(got[8..] == payload[..]);
    }

    /// A writer that takes at most a few bytes per call, like a socket
    /// whose send buffer is nearly full.
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(5);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_resumes_partial_vectored_writes() {
        let mut w = Trickle {
            out: Vec::new(),
            calls: 0,
        };
        write_frame(&mut w, b"HEADER!!", b"payload bytes").unwrap();
        assert_eq!(w.out, b"HEADER!!payload bytes");
        assert!(w.calls >= 5, "{} writes", w.calls);
        let mut w = Trickle {
            out: Vec::new(),
            calls: 0,
        };
        write_frame(&mut w, b"HEADER!!", b"").unwrap();
        assert_eq!(w.out, b"HEADER!!");
    }

    #[test]
    fn unknown_peer_and_shutdown_errors() {
        let (tx, _rx) = inbox();
        let mut e = TcpEndpoint::bind(NodeId::from_index(7), ephemeral(), tx).unwrap();
        let h = e.handle();
        assert!(matches!(
            h.send(NodeId::from_index(1), Bytes::new()),
            Err(TransportError::UnknownPeer(_))
        ));
        e.shutdown();
        assert!(matches!(
            h.send(NodeId::from_index(1), Bytes::new()),
            Err(TransportError::Closed)
        ));
    }
}
