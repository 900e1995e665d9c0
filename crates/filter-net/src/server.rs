//! The serving reactor: a single nonblocking event loop bridging framed
//! TCP connections to the sharded filter service.
//!
//! One thread owns every socket. Decoded data requests are handed to
//! [`ServiceHandle::submit_batch`]; the per-key results come back on
//! worker threads via completion callbacks, cross back to the reactor
//! over an unbounded channel (paired with a [`Waker`] so a parked poller
//! notices), and are written out as response frames.
//! Connection slots carry a generation counter so a completion for a
//! connection that died mid-batch is counted (`resp_dropped`) rather than
//! delivered to whoever reused the slot.
//!
//! Backpressure composes end to end: a full shard queue blocks the
//! reactor inside `submit_batch`, the reactor stops reading sockets, TCP
//! receive windows fill, and an open-loop client sees the queueing delay
//! as latency. [`BatchPolicy::Adaptive`] bounds that delay by shedding
//! (answering [`RespStatus::Shed`]) once shard queues pass the configured
//! depth; [`BatchPolicy::Static`] demonstrates the collapse.

use crate::adaptive::{BatchPolicy, Controller};
use crate::codec::{encode_response, Response};
use crate::conn::FramedConn;
use crate::poll::{waker, Interest, Poller, Waker};
use crate::pool::{BufPool, PoolStats, DEFAULT_POOLED_BUFS};
use filter_core::wire::{OpKind, RespStatus};
use filter_service::{ServiceControl, ServiceHandle};
use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller keys 0 and 1 are the listener and the waker; connections start
/// at 2.
const KEY_LISTENER: u64 = 0;
const KEY_WAKER: u64 = 1;
const KEY_CONN_BASE: u64 = 2;

/// Serving-tier configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Accept cap; connections beyond it are refused at accept time.
    pub max_conns: usize,
    /// Batching/admission policy.
    pub policy: BatchPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_conns: 1024, policy: BatchPolicy::Adaptive(Default::default()) }
    }
}

#[derive(Default)]
struct NetStatsInner {
    conns_accepted: AtomicU64,
    conns_refused: AtomicU64,
    conns_open: AtomicU64,
    protocol_errors: AtomicU64,
    req_insert: AtomicU64,
    req_query: AtomicU64,
    req_delete: AtomicU64,
    req_ping: AtomicU64,
    resp_ok: AtomicU64,
    resp_shed: AtomicU64,
    resp_error: AtomicU64,
    resp_dropped: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// A snapshot of the serving tier's counters. Byte counts are
/// application-level (framed request/response bytes), not socket-level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    pub conns_accepted: u64,
    pub conns_refused: u64,
    pub conns_open: u64,
    pub protocol_errors: u64,
    pub req_insert: u64,
    pub req_query: u64,
    pub req_delete: u64,
    pub req_ping: u64,
    pub resp_ok: u64,
    pub resp_shed: u64,
    pub resp_error: u64,
    /// Completions whose connection closed before the response could be
    /// written — counted, never silently lost.
    pub resp_dropped: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Response-frame buffers currently parked in the reactor's pool.
    pub pool_bufs: u64,
    /// Response buffers served from the pool instead of the allocator.
    pub pool_hits: u64,
    /// Response buffers the pool had to allocate fresh.
    pub pool_misses: u64,
    /// Buffers the pool released instead of parking (list full or
    /// oversized).
    pub pool_dropped: u64,
}

impl NetStatsInner {
    fn snapshot(&self, pool: &BufPool) -> NetStats {
        let p: PoolStats = pool.stats();
        NetStats {
            pool_bufs: p.pooled,
            pool_hits: p.hits,
            pool_misses: p.misses,
            pool_dropped: p.dropped,
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_refused: self.conns_refused.load(Ordering::Relaxed),
            conns_open: self.conns_open.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            req_insert: self.req_insert.load(Ordering::Relaxed),
            req_query: self.req_query.load(Ordering::Relaxed),
            req_delete: self.req_delete.load(Ordering::Relaxed),
            req_ping: self.req_ping.load(Ordering::Relaxed),
            resp_ok: self.resp_ok.load(Ordering::Relaxed),
            resp_shed: self.resp_shed.load(Ordering::Relaxed),
            resp_error: self.resp_error.load(Ordering::Relaxed),
            resp_dropped: self.resp_dropped.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

impl NetStats {
    /// Total requests decoded.
    pub fn requests(&self) -> u64 {
        self.req_insert + self.req_query + self.req_delete + self.req_ping
    }

    /// Total responses accounted for (delivered or dropped).
    pub fn responses(&self) -> u64 {
        self.resp_ok + self.resp_shed + self.resp_error + self.resp_dropped
    }

    /// One-line human rendering for binaries and logs.
    pub fn render(&self) -> String {
        format!(
            "conns {}/{} open {} | req i:{} q:{} d:{} ping:{} | resp ok:{} shed:{} err:{} drop:{} | proto-err {} | bytes in:{} out:{} | pool {} bufs hit:{} miss:{} drop:{}",
            self.conns_accepted,
            self.conns_accepted + self.conns_refused,
            self.conns_open,
            self.req_insert,
            self.req_query,
            self.req_delete,
            self.req_ping,
            self.resp_ok,
            self.resp_shed,
            self.resp_error,
            self.resp_dropped,
            self.protocol_errors,
            self.bytes_in,
            self.bytes_out,
            self.pool_bufs,
            self.pool_hits,
            self.pool_misses,
            self.pool_dropped,
        )
    }
}

/// One live connection slot.
struct Slot {
    conn: FramedConn,
    /// Bumped every time the slot is vacated; stale completions compare
    /// against it.
    gen: u64,
    /// Whether write interest is currently registered.
    armed_write: bool,
}

/// A reactor completion: response bytes destined for `(slot, gen)`. The
/// status rides along so the reactor can account the response exactly
/// once — as delivered, or as dropped if the slot turned over.
type Completion = (usize, u64, RespStatus, Vec<u8>);

/// A handle onto a running server: address, live stats, and shutdown.
pub struct RunningServer {
    addr: std::net::SocketAddr,
    stats: Arc<NetStatsInner>,
    pool: Arc<BufPool>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    thread: JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> NetStats {
        self.stats.snapshot(&self.pool)
    }

    /// Force the reactor down now (open connections are dropped) and
    /// collect final stats.
    pub fn shutdown(self) -> io::Result<NetStats> {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.join()
    }

    /// Wait for the reactor to exit on its own — an in-protocol
    /// [`OpKind::Shutdown`] drains in-flight work first — and collect
    /// final stats.
    pub fn join(self) -> io::Result<NetStats> {
        let stats = Arc::clone(&self.stats);
        let pool = Arc::clone(&self.pool);
        match self.thread.join() {
            Ok(result) => result.map(|()| stats.snapshot(&pool)),
            Err(_) => Err(io::Error::other("reactor thread panicked")),
        }
    }
}

/// Bind `addr` and start the reactor thread serving `handle`.
pub fn serve<A: ToSocketAddrs>(
    addr: A,
    handle: ServiceHandle,
    control: ServiceControl,
    cfg: ServerConfig,
) -> io::Result<RunningServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stats: Arc<NetStatsInner> = Arc::default();
    let pool = Arc::new(BufPool::new(DEFAULT_POOLED_BUFS));
    let stop = Arc::new(AtomicBool::new(false));
    let (wake_tx, wake_rx) = waker()?;
    let waker_arc = Arc::new(wake_tx);

    let reactor = Reactor {
        listener,
        handle,
        control,
        cfg,
        stats: Arc::clone(&stats),
        pool: Arc::clone(&pool),
        stop: Arc::clone(&stop),
        waker: Arc::clone(&waker_arc),
        wake_rx,
    };
    let thread = std::thread::Builder::new()
        .name("filter-net-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(RunningServer { addr: local, stats, pool, stop, waker: waker_arc, thread })
}

struct Reactor {
    listener: TcpListener,
    handle: ServiceHandle,
    control: ServiceControl,
    cfg: ServerConfig,
    stats: Arc<NetStatsInner>,
    pool: Arc<BufPool>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    wake_rx: crate::poll::WakeReceiver,
}

impl Reactor {
    fn run(self) -> io::Result<()> {
        let Reactor { listener, handle, control, cfg, stats, pool, stop, waker, wake_rx } = self;
        use std::os::unix::io::AsRawFd;

        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), KEY_LISTENER, Interest::READ)?;
        poller.add(wake_rx.fd(), KEY_WAKER, Interest::READ)?;

        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let mut slots: Vec<Option<Slot>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut generation: u64 = 0;
        let mut in_flight: usize = 0;
        let mut draining = false;

        // Resolve the batching policy: static applies once; adaptive
        // installs its floor and runs the control loop on a tick.
        let mut controller = match cfg.policy {
            BatchPolicy::Static { linger } => {
                control.set_linger(linger);
                None
            }
            BatchPolicy::Adaptive(acfg) => {
                control.set_linger(acfg.min_linger);
                Some(Controller::new(acfg))
            }
        };
        let tick = match &controller {
            Some(c) => c.config().tick,
            None => Duration::from_millis(50),
        };
        let mut next_tick = Instant::now() + tick;

        let mut events = Vec::new();
        let mut to_close: Vec<usize> = Vec::new();
        loop {
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            // Orderly exit: shutdown frame seen, every response delivered.
            if draining && in_flight == 0 && slots.iter().flatten().all(|s| !s.conn.wants_write()) {
                return Ok(());
            }

            let timeout = next_tick.saturating_duration_since(Instant::now());
            poller.wait(&mut events, Some(timeout.max(Duration::from_millis(1))))?;

            // Drain completions first so their write interest registers
            // in the same pass as the socket events.
            while let Ok((idx, gen, status, bytes)) = done_rx.try_recv() {
                in_flight -= 1;
                match slots.get_mut(idx).and_then(Option::as_mut) {
                    Some(slot) if slot.gen == gen => {
                        match status {
                            RespStatus::Ok => stats.resp_ok.fetch_add(1, Ordering::Relaxed),
                            RespStatus::Shed => stats.resp_shed.fetch_add(1, Ordering::Relaxed),
                            RespStatus::Error => stats.resp_error.fetch_add(1, Ordering::Relaxed),
                        };
                        stats.bytes_out.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                        slot.conn.queue_bytes(&bytes);
                        pool.put(bytes);
                    }
                    _ => {
                        stats.resp_dropped.fetch_add(1, Ordering::Relaxed);
                        pool.put(bytes);
                    }
                }
            }
            wake_rx.drain();

            for ev in events.drain(..) {
                match ev.key {
                    KEY_WAKER => { /* drained above */ }
                    KEY_LISTENER => {
                        if draining {
                            continue;
                        }
                        loop {
                            match listener.accept() {
                                Ok((sock, _)) => {
                                    let open = slots.iter().flatten().count();
                                    if open >= cfg.max_conns {
                                        stats.conns_refused.fetch_add(1, Ordering::Relaxed);
                                        continue; // sock drops: refused
                                    }
                                    let conn = match FramedConn::new(sock) {
                                        Ok(c) => c,
                                        Err(_) => continue,
                                    };
                                    generation += 1;
                                    let idx = free.pop().unwrap_or_else(|| {
                                        slots.push(None);
                                        slots.len() - 1
                                    });
                                    poller.add(
                                        conn.fd(),
                                        KEY_CONN_BASE + idx as u64,
                                        Interest::READ,
                                    )?;
                                    slots[idx] =
                                        Some(Slot { conn, gen: generation, armed_write: false });
                                    stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                                    stats.conns_open.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                                Err(e) => return Err(e),
                            }
                        }
                    }
                    key => {
                        let idx = (key - KEY_CONN_BASE) as usize;
                        let Some(slot) = slots.get_mut(idx).and_then(Option::as_mut) else {
                            continue; // already closed this pass
                        };
                        let mut close = false;
                        if ev.readable || ev.hangup {
                            // A peer that closes right after its last write
                            // delivers the frame and the FIN in one event:
                            // drain the buffer into frames *before* acting
                            // on the EOF, or final frames (e.g. Shutdown)
                            // would be silently dropped.
                            let alive: bool = slot.conn.fill().unwrap_or_default();
                            while !close {
                                match slot.conn.next_request() {
                                    Ok(Some(req)) => {
                                        let drain_now = dispatch(
                                            &handle,
                                            controller.as_ref(),
                                            &stats,
                                            &pool,
                                            &done_tx,
                                            &waker,
                                            slot,
                                            idx,
                                            req,
                                            &mut in_flight,
                                        );
                                        draining |= drain_now;
                                    }
                                    Ok(None) => break,
                                    Err(_) => {
                                        stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                        close = true;
                                    }
                                }
                            }
                            close |= !alive;
                        }
                        if close {
                            to_close.push(idx);
                        }
                    }
                }
            }

            // Flush every connection with queued output; arm or disarm
            // write interest to match what's left.
            for idx in 0..slots.len() {
                let Some(slot) = slots.get_mut(idx).and_then(Option::as_mut) else {
                    continue;
                };
                if slot.conn.wants_write() {
                    match slot.conn.flush() {
                        Ok(drained) => {
                            let want = !drained;
                            if want != slot.armed_write {
                                let interest =
                                    if want { Interest::READ_WRITE } else { Interest::READ };
                                poller.modify(
                                    slot.conn.fd(),
                                    KEY_CONN_BASE + idx as u64,
                                    interest,
                                )?;
                                slot.armed_write = want;
                            }
                        }
                        Err(_) => to_close.push(idx),
                    }
                } else if slot.armed_write {
                    poller.modify(slot.conn.fd(), KEY_CONN_BASE + idx as u64, Interest::READ)?;
                    slot.armed_write = false;
                }
            }

            to_close.sort_unstable();
            to_close.dedup();
            for idx in to_close.drain(..) {
                if let Some(slot) = slots[idx].take() {
                    let _ = poller.remove(slot.conn.fd());
                    free.push(idx);
                    stats.conns_open.fetch_sub(1, Ordering::Relaxed);
                }
            }

            // The adaptive control loop.
            let now = Instant::now();
            if now >= next_tick {
                next_tick = now + tick;
                if let Some(c) = controller.as_mut() {
                    if let Some(linger) = c.tick(
                        now,
                        control.ops_accepted(),
                        control.queue_depth() as usize,
                        control.shards(),
                    ) {
                        control.set_linger(linger);
                    }
                }
            }
        }
    }
}

/// Handle one decoded request on its connection slot. Returns `true` when
/// the request asks the server to drain and exit.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    handle: &ServiceHandle,
    controller: Option<&Controller>,
    stats: &Arc<NetStatsInner>,
    pool: &Arc<BufPool>,
    done_tx: &mpsc::Sender<Completion>,
    waker: &Arc<Waker>,
    slot: &mut Slot,
    idx: usize,
    req: crate::codec::Request,
    in_flight: &mut usize,
) -> bool {
    let frame_bytes = (4 + crate::codec::HEADER_BYTES + 8 * req.keys.len()) as u64;
    stats.bytes_in.fetch_add(frame_bytes, Ordering::Relaxed);

    let respond_now = |slot: &mut Slot, stats: &NetStatsInner, status: RespStatus| {
        let resp = Response { id: req.id, status, results: Vec::new() };
        let mut bytes = pool.get();
        encode_response(&resp, &mut bytes);
        stats.bytes_out.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        slot.conn.queue_bytes(&bytes);
        pool.put(bytes);
        match status {
            RespStatus::Ok => stats.resp_ok.fetch_add(1, Ordering::Relaxed),
            RespStatus::Shed => stats.resp_shed.fetch_add(1, Ordering::Relaxed),
            RespStatus::Error => stats.resp_error.fetch_add(1, Ordering::Relaxed),
        };
    };

    match req.op {
        OpKind::Ping => {
            stats.req_ping.fetch_add(1, Ordering::Relaxed);
            respond_now(slot, stats, RespStatus::Ok);
            false
        }
        OpKind::Shutdown => {
            respond_now(slot, stats, RespStatus::Ok);
            true
        }
        op => {
            let counter = match op {
                OpKind::Insert => &stats.req_insert,
                OpKind::Query => &stats.req_query,
                _ => &stats.req_delete,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            if controller.is_some_and(|c| c.shedding()) {
                respond_now(slot, stats, RespStatus::Shed);
                return false;
            }
            let id = req.id;
            let gen = slot.gen;
            let tx = done_tx.clone();
            let wk = Arc::clone(waker);
            let pl = Arc::clone(pool);
            let submitted = handle.submit_batch(op, &req.keys, move |report| {
                let (status, results) = if report.aborted > 0 {
                    (RespStatus::Error, Vec::new())
                } else {
                    (RespStatus::Ok, report.results)
                };
                let mut bytes = pl.get();
                encode_response(&Response { id, status, results }, &mut bytes);
                // A closed reactor just drops the send; nothing to do.
                let _ = tx.send((idx, gen, status, bytes));
                wk.wake();
            });
            match submitted {
                Ok(()) => {
                    *in_flight += 1;
                    false
                }
                Err(_) => {
                    // Unsupported op for this service (e.g. deletes on a
                    // non-deletable build): immediate protocol-level error.
                    respond_now(slot, stats, RespStatus::Error);
                    false
                }
            }
        }
    }
}
