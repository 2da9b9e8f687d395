//! The readiness-driven event loop: the testbed's one socket
//! implementation.
//!
//! One [`Reactor`] owns one epoll instance and one loop thread that
//! multiplexes every socket the testbed touches: origin, proxy and
//! responder listeners, their accepted connections, upstream relay
//! connections, and the client side of every in-flight exchange. Each
//! connection role is one small state machine, and the parity the
//! cross-transport gates assert comes from running the sim's own
//! parse/finalize/fault logic (`hdiff_servers`) inside them.
//!
//! Design points:
//!
//! * **Edge-triggered epoll, slab tokens.** Every fd registers once with
//!   `EPOLLIN|EPOLLOUT|EPOLLRDHUP|EPOLLET`; the event token packs a slab
//!   index and a generation counter so a recycled slot can never receive
//!   a stale event. Handlers read/write until `WouldBlock`.
//! * **Deadline wheel, not per-socket timeouts.** Sockets are
//!   nonblocking; the shared per-read timeout becomes a [`wheel::Wheel`]
//!   entry re-armed on every read with progress. Cancellation is a
//!   sequence-number bump: a superseded entry stays armed until its
//!   instant and then fires as a no-op, so the wheel holds at most one
//!   read timeout plus one tick of arms. Every entry fires within one
//!   16 ms tick after its instant, and the `epoll_pwait` timeout is the
//!   time until the first occupied tick ends (see the [`wheel`] module
//!   docs).
//! * **Log before EOF.** A server-side connection delivers its log to
//!   the paired exchange *before* it closes, and server finalize and
//!   client EOF run on the same loop thread, so a client that saw EOF
//!   sees the complete log — no sleeps, no polling.
//! * **Fault effects travel with the job.** An [`ExchangeSpec`] carries
//!   an optional [`FaultEffect`]. Assigning the exchange registers a
//!   pairing ticket (listener, client address) → (job, effect) before the
//!   client writes a byte, so the accepted connection — fresh or warm —
//!   reads the effect from the ticket when its first bytes arrive.
//! * **Lingering close after a reject.** An origin that rejects a message
//!   (the engine closes on error) flushes the response, stops parsing,
//!   and keeps reading to the client's FIN, bounded by the read timeout,
//!   before it delivers its log and closes. `bytes_in` therefore counts
//!   every byte the client sent, whatever the TCP segmentation, and the
//!   close never resets a connection with unread bytes. The
//!   `max_messages` cap still closes at once: it is how a server hangs up
//!   on a keep-alive client.
//! * **Segmented sends stay separate writes.** An exchange in
//!   [`SendMode::Segmented`] issues one `write` per segment, so partial
//!   reads on the server side stay exercised.
//! * **Responders.** One connection kind reads a whole connection to EOF
//!   (or its read deadline), answers with a function of the bytes, and
//!   closes: the Fig. 6 echo (no log) and the h2 downgrade fronts (an
//!   [`H2FrontLog`] per connection).
//! * **Warm connection pool.** `warm()` pre-opens idle connections per
//!   listener address; an exchange submitted with `warm: true` claims
//!   one (pool hit) instead of connecting (miss). A server-side close of
//!   an idle connection is detected by its read readiness and counted as
//!   an eviction; a claimed-but-stale connection (empty response, no
//!   server log) is retried once on a fresh connection.
//! * **Blocking `connect`, bounded burst.** Loopback connects complete
//!   in microseconds *when the listener backlog has room*, so the loop
//!   issues at most [`CONNECT_BURST`] connects per iteration and drains
//!   accepts in between — the backlog (128) can never overflow and the
//!   kernel's 1 s SYN-retry stall can never trigger.

pub mod sys;
pub mod wheel;

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::rc::Rc;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hdiff_servers::fault::FaultDecision;
use hdiff_servers::{
    DowngradeProfile, EchoServer, ForwardAction, ParserProfile, Proxy, ProxyResult, Server,
    ServerReply,
};
use hdiff_wire::parse_response;

use crate::error::NetError;
use crate::h2front::{self, H2FrontLog};
use crate::proxy::{NetProxyConfig, ProxyConnLog};
use crate::server::{is_final, ConnectionLog, NetServerConfig, ServerFault, Teardown};

use sys::{Epoll, EpollEvent, EPOLLET, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use wheel::Wheel;

/// Event token reserved for the loop's wake channel.
const WAKE_TOKEN: u64 = u64::MAX;

/// Maximum outbound connects initiated per loop iteration (see module
/// docs: must stay below the listen backlog).
const CONNECT_BURST: usize = 64;

/// Read chunk size.
const CHUNK: usize = 4096;

/// Idle epoll wait cap when no deadline is armed.
const IDLE_WAIT_MS: u64 = 100;

/// Opaque handle to a listener hosted by the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListenerId(u64);

/// A listener the reactor serves, as seen by the submitting thread.
#[derive(Debug, Clone)]
pub struct AsyncListener {
    /// Product name (profile name) this listener serves.
    pub name: String,
    /// Bound loopback address.
    pub addr: SocketAddr,
    /// Handle for log collection and exchange pairing.
    pub id: ListenerId,
}

/// How an exchange puts its request bytes on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendMode {
    /// One write of the whole stream.
    Whole,
    /// Split the stream at the given byte offsets (ascending), one
    /// `write` per segment — exercises partial-read paths.
    Segmented(Vec<usize>),
    /// Send only the first `n` bytes, then FIN — models a client (or a
    /// mid-stream reset) that never delivers the rest.
    TruncateAt(usize),
}

/// A fault effect an exchange job carries to the connection it pairs
/// with. The campaign decides faults on its own thread; the job carries
/// only the effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// Applied by a paired origin connection.
    Origin(ServerFault),
    /// Applied by a paired proxy connection to every message it forwards.
    Forward(FaultDecision),
}

/// One unit of client work submitted to the loop.
#[derive(Debug, Clone)]
pub enum Job {
    /// Campaign-style exchange: write, FIN, read to EOF.
    Exchange(ExchangeSpec),
    /// Bench-style drive: N framed keep-alive requests on one connection.
    Drive(DriveSpec),
}

/// Parameters of one campaign exchange.
#[derive(Debug, Clone)]
pub struct ExchangeSpec {
    /// Target address.
    pub addr: SocketAddr,
    /// Request stream bytes.
    pub bytes: Vec<u8>,
    /// How the bytes go on the wire.
    pub mode: SendMode,
    /// Read deadline, re-armed on progress.
    pub read_timeout: Duration,
    /// Listener whose connection log this exchange collects, if any.
    pub pair: Option<ListenerId>,
    /// Fault effect the paired connection applies (needs `pair`).
    pub fault: Option<FaultEffect>,
    /// Claim a pre-warmed pool connection when one is available.
    pub warm: bool,
}

impl ExchangeSpec {
    /// A fault-free exchange of `bytes` against `listener`, paired with
    /// it, on a fresh connection, under the shared read timeout.
    pub fn paired(listener: &AsyncListener, bytes: &[u8], mode: SendMode) -> ExchangeSpec {
        ExchangeSpec {
            addr: listener.addr,
            bytes: bytes.to_vec(),
            mode,
            read_timeout: crate::timeout::io_timeout(),
            pair: Some(listener.id),
            fault: None,
            warm: false,
        }
    }
}

/// Parameters of one throughput drive.
#[derive(Debug, Clone)]
pub struct DriveSpec {
    /// Target address.
    pub addr: SocketAddr,
    /// One framed request; sent `requests` times.
    pub payload: Vec<u8>,
    /// Total requests to complete.
    pub requests: u64,
    /// Requests kept in flight per refill (1 = strict request/response).
    pub pipeline: usize,
    /// Read deadline (re-armed on progress).
    pub read_timeout: Duration,
}

/// Result of one [`Job::Exchange`].
#[derive(Debug, Clone, Default)]
pub struct ExchangeOutput {
    /// Raw response bytes read before EOF (or the deadline).
    pub response: Vec<u8>,
    /// Whether the read ended on the deadline rather than EOF.
    pub timed_out: bool,
    /// Connect or stream failure, if the exchange never completed.
    pub error: Option<NetError>,
    /// The paired origin listener's connection log, when requested.
    pub server_log: Option<ConnectionLog>,
    /// The paired proxy listener's connection log, when requested.
    pub proxy_log: Option<ProxyConnLog>,
    /// The paired h2 front's connection log, when requested.
    pub front_log: Option<H2FrontLog>,
    /// Wall time from job assignment to completion.
    pub rtt_ns: u64,
    /// Whether a warm pooled connection was claimed.
    pub reused: bool,
    /// Whether the exchange re-ran on a fresh connection after a stale
    /// pooled one.
    pub retried: bool,
}

/// Result of one [`Job::Drive`].
#[derive(Debug, Clone, Default)]
pub struct DriveOutput {
    /// Requests that received a complete framed response.
    pub completed: u64,
    /// Connect or stream errors (the drive stops on the first).
    pub errors: u64,
    /// Wall time for the whole drive.
    pub elapsed_ns: u64,
    /// Per-request RTTs, recorded only at `pipeline == 1`.
    pub rtt_ns: Vec<u64>,
    /// Whether the drive ended on the deadline.
    pub timed_out: bool,
}

/// Output of one [`Job`], in submission order.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Result of an exchange job.
    Exchange(ExchangeOutput),
    /// Result of a drive job.
    Drive(DriveOutput),
}

impl JobOutput {
    /// The exchange result, when this job was an exchange.
    pub fn as_exchange(&self) -> Option<&ExchangeOutput> {
        match self {
            JobOutput::Exchange(e) => Some(e),
            JobOutput::Drive(_) => None,
        }
    }

    /// The drive result, when this job was a drive.
    pub fn as_drive(&self) -> Option<&DriveOutput> {
        match self {
            JobOutput::Drive(d) => Some(d),
            JobOutput::Exchange(_) => None,
        }
    }
}

/// Loop-side counters, snapshotted via [`Reactor::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactorStats {
    /// `epoll_wait` returns.
    pub wakeups: u64,
    /// Readiness events delivered.
    pub events: u64,
    /// Connections the loop opened or accepted.
    pub conns_opened: u64,
    /// Connections the loop closed.
    pub conns_closed: u64,
    /// Warm-pool connections opened beyond each address's first fill —
    /// the keep-alive churn signal.
    pub conn_churn: u64,
    /// Exchanges that claimed a warm pooled connection.
    pub pool_hits: u64,
    /// Warm-requested exchanges that found the pool empty.
    pub pool_misses: u64,
    /// Idle pooled connections discarded after a server-side close.
    pub pool_evictions: u64,
    /// Deadline-wheel entries that fired against a live connection.
    pub deadline_fires: u64,
}

// ---------------------------------------------------------------------------
// Commands from the handle to the loop.
// ---------------------------------------------------------------------------

enum Cmd {
    Listen { listener: TcpListener, role: Role, ack: Sender<ListenerId> },
    Warm { addr: SocketAddr, depth: usize, ack: Sender<()> },
    Submit { jobs: Vec<Job>, done: Sender<Vec<JobOutput>> },
    TakeServerLogs { id: ListenerId, ack: Sender<Vec<ConnectionLog>> },
    Stats { ack: Sender<ReactorStats> },
    Shutdown,
}

/// What a new listener serves.
enum Role {
    Origin { server: Server, config: NetServerConfig, record: bool },
    Proxy { proxy: Proxy, config: NetProxyConfig },
    Responder { respond: Respond, read_timeout: Duration },
}

/// What a responder connection answers once it has read its whole
/// connection.
enum Respond {
    /// The Fig. 6 echo: a 200 carrying the bytes back; keeps no log.
    Echo,
    /// An h2 downgrade front: h2 responses echoing each request's h1
    /// translation, plus an [`H2FrontLog`] for the paired exchange.
    H2Front(DowngradeProfile),
}

impl Respond {
    fn answer(&self, bytes: &[u8]) -> (Vec<u8>, Option<H2FrontLog>) {
        match self {
            Respond::Echo => (EchoServer::echo(bytes).to_bytes(), None),
            Respond::H2Front(front) => {
                let (out, log) = h2front::serve(front, bytes);
                (out, Some(log))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Loop-side state.
// ---------------------------------------------------------------------------

struct OriginListener {
    listener: TcpListener,
    server: Rc<Server>,
    config: Rc<NetServerConfig>,
    record: bool,
    /// Logs of connections no exchange paired with.
    logs: Vec<ConnectionLog>,
}

struct ProxyListener {
    listener: TcpListener,
    proxy: Rc<Proxy>,
    config: Rc<NetProxyConfig>,
}

struct ResponderListener {
    listener: TcpListener,
    respond: Rc<Respond>,
    read_timeout: Duration,
}

/// Where an origin connection is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OriginPhase {
    /// Accepted, nothing read yet: the paired job's fault effect is read
    /// when the first bytes (or EOF) arrive.
    Awaiting,
    /// Parsing and answering messages.
    Serving,
    /// Rejected a message: flushing the response and reading, without
    /// parsing, until the client's FIN.
    Lingering,
    /// Flushing the last responses, then closing.
    Closing,
    /// Stall fault: log delivered, draining quietly until EOF.
    Stalling,
}

struct OriginConn {
    stream: TcpStream,
    server: Rc<Server>,
    config: Rc<NetServerConfig>,
    record: bool,
    owner: usize,
    peer: SocketAddr,
    buf: Vec<u8>,
    pos: usize,
    replies: Vec<ServerReply>,
    bytes_out: usize,
    eof: bool,
    teardown: Teardown,
    out: Vec<u8>,
    out_pos: usize,
    phase: OriginPhase,
    finalized: bool,
    seq: u64,
}

struct PendingRelay {
    result: ProxyResult,
    consumed: usize,
    rejected: bool,
    drop_rest: bool,
}

struct ProxyConn {
    stream: TcpStream,
    proxy: Rc<Proxy>,
    config: Rc<NetProxyConfig>,
    owner: usize,
    peer: SocketAddr,
    buf: Vec<u8>,
    pos: usize,
    results: Vec<ProxyResult>,
    eof: bool,
    teardown: Teardown,
    out: Vec<u8>,
    out_pos: usize,
    closing: bool,
    relay: Option<PendingRelay>,
    seq: u64,
}

struct UpstreamConn {
    stream: TcpStream,
    /// Slab index of the proxy connection awaiting this relay.
    owner: usize,
    out: Vec<u8>,
    out_pos: usize,
    fin_sent: bool,
    resp: Vec<u8>,
    seq: u64,
}

struct ResponderConn {
    stream: TcpStream,
    respond: Rc<Respond>,
    owner: usize,
    peer: SocketAddr,
    buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    responded: bool,
    seq: u64,
}

struct ExchangeState {
    batch: usize,
    job: usize,
    out: Vec<u8>,
    /// Offsets that end each write but the last (see [`SendMode`]).
    cuts: Vec<usize>,
    out_pos: usize,
    fin_sent: bool,
    resp: Vec<u8>,
    read_timeout: Duration,
    started: Instant,
    reused: bool,
    retried: bool,
    /// The pairing ticket's key, when the exchange is paired.
    ticket: Option<(usize, SocketAddr)>,
    /// Original spec kept for the stale-connection retry.
    spec: ExchangeSpec,
}

struct DriveState {
    batch: usize,
    job: usize,
    payload: Vec<u8>,
    requests: u64,
    sent: u64,
    completed: u64,
    pipeline: usize,
    out: Vec<u8>,
    out_pos: usize,
    resp_buf: Vec<u8>,
    rtts: Vec<u64>,
    last_send: Instant,
    read_timeout: Duration,
    started: Instant,
}

enum ClientKind {
    /// Warm pool member, waiting for an exchange to claim it.
    Idle {
        addr: SocketAddr,
    },
    Exchange(Box<ExchangeState>),
    Drive(Box<DriveState>),
}

struct ClientConn {
    stream: TcpStream,
    kind: ClientKind,
    seq: u64,
}

enum Entry {
    OriginListener(OriginListener),
    ProxyListener(ProxyListener),
    ResponderListener(ResponderListener),
    Origin(OriginConn),
    ProxyDown(Box<ProxyConn>),
    Upstream(UpstreamConn),
    Responder(ResponderConn),
    Client(ClientConn),
}

struct Slot {
    gen: u32,
    entry: Option<Entry>,
}

/// A paired exchange's claim on the server-side connection its client
/// opened: where that connection's log goes, and the fault effect it
/// applies.
struct Ticket {
    batch: usize,
    job: usize,
    fault: Option<FaultEffect>,
}

/// A server-side connection log on its way to a paired exchange.
enum PairedLog {
    Server(ConnectionLog),
    Proxy(ProxyConnLog),
    Front(H2FrontLog),
}

struct BatchState {
    outputs: Vec<Option<JobOutput>>,
    remaining: usize,
    done: Sender<Vec<JobOutput>>,
    pending_logs: HashMap<usize, PairedLog>,
}

enum ConnectIntent {
    Exchange { batch: usize, job: usize, spec: ExchangeSpec, retried: bool },
    Drive { batch: usize, job: usize, spec: DriveSpec },
    Idle { addr: SocketAddr },
    Upstream { owner: usize, addr: SocketAddr, bytes: Vec<u8>, read_timeout: Duration },
}

enum Wake {
    Io(u64),
    Deadline(usize, u64),
    Resume(usize),
    RelayDone(usize, Result<Vec<u8>, ()>),
}

enum ReadOutcome {
    /// Read until `WouldBlock`; `true` when any bytes arrived.
    More(bool),
    /// Peer sent FIN.
    Eof,
    /// Hard stream error.
    Error,
}

/// Drains `stream` into `buf` until `WouldBlock`, EOF, or error.
fn drain_read(stream: &mut TcpStream, buf: &mut Vec<u8>) -> ReadOutcome {
    let mut any = false;
    let mut chunk = [0u8; CHUNK];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                any = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ReadOutcome::More(any),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Error,
        }
    }
}

enum WriteOutcome {
    Flushed,
    Partial,
    Error,
}

/// Writes `out[*pos..]` until `WouldBlock`, completion, or error.
fn drain_write(stream: &mut TcpStream, out: &[u8], pos: &mut usize) -> WriteOutcome {
    while *pos < out.len() {
        match stream.write(&out[*pos..]) {
            Ok(0) => return WriteOutcome::Error,
            Ok(n) => *pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return WriteOutcome::Partial,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return WriteOutcome::Error,
        }
    }
    WriteOutcome::Flushed
}

/// The exact bytes an exchange puts on the wire, and the offsets that
/// end each of its writes but the last.
fn mode_bytes(bytes: &[u8], mode: &SendMode) -> (Vec<u8>, Vec<usize>) {
    match mode {
        SendMode::Whole => (bytes.to_vec(), Vec::new()),
        SendMode::Segmented(offsets) => {
            let mut cuts: Vec<usize> = Vec::new();
            for &off in offsets {
                let off = off.min(bytes.len());
                if off > cuts.last().copied().unwrap_or(0) {
                    cuts.push(off);
                }
            }
            (bytes.to_vec(), cuts)
        }
        SendMode::TruncateAt(n) => (bytes[..(*n).min(bytes.len())].to_vec(), Vec::new()),
    }
}

/// Writes an exchange's pending bytes, one `write` run per segment.
fn write_segments(stream: &mut TcpStream, state: &mut ExchangeState) -> WriteOutcome {
    while state.out_pos < state.out.len() {
        let end =
            state.cuts.iter().copied().find(|&cut| cut > state.out_pos).unwrap_or(state.out.len());
        match drain_write(stream, &state.out[..end], &mut state.out_pos) {
            WriteOutcome::Flushed => {}
            other => return other,
        }
    }
    WriteOutcome::Flushed
}

struct EventLoop {
    ep: Epoll,
    wake_rx: TcpStream,
    cmds: Arc<Mutex<VecDeque<Cmd>>>,
    slab: Vec<Slot>,
    free: Vec<usize>,
    wheel: Wheel,
    next_seq: u64,
    batches: Vec<Option<BatchState>>,
    free_batches: Vec<usize>,
    /// Pairing tickets by (listener slab idx, client local address).
    tickets: HashMap<(usize, SocketAddr), Ticket>,
    /// Idle pooled connections per address, as (slab idx, generation).
    warm: HashMap<SocketAddr, VecDeque<(usize, u32)>>,
    /// Registered pool depth per address.
    warm_targets: HashMap<SocketAddr, usize>,
    /// Addresses that completed their first pool fill (for churn
    /// accounting).
    warm_filled: HashMap<SocketAddr, bool>,
    pending_connects: VecDeque<ConnectIntent>,
    agenda: VecDeque<Wake>,
    stats: ReactorStats,
}

impl EventLoop {
    fn new(ep: Epoll, wake_rx: TcpStream, cmds: Arc<Mutex<VecDeque<Cmd>>>) -> EventLoop {
        EventLoop {
            ep,
            wake_rx,
            cmds,
            slab: Vec::new(),
            free: Vec::new(),
            wheel: Wheel::new(Instant::now()),
            next_seq: 1,
            batches: Vec::new(),
            free_batches: Vec::new(),
            tickets: HashMap::new(),
            warm: HashMap::new(),
            warm_targets: HashMap::new(),
            warm_filled: HashMap::new(),
            pending_connects: VecDeque::new(),
            agenda: VecDeque::new(),
            stats: ReactorStats::default(),
        }
    }

    // -- slab ------------------------------------------------------------

    fn insert(&mut self, entry: Entry) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.slab[idx].entry = Some(entry);
                idx
            }
            None => {
                self.slab.push(Slot { gen: 0, entry: Some(entry) });
                self.slab.len() - 1
            }
        }
    }

    fn token(&self, idx: usize) -> u64 {
        ((self.slab[idx].gen as u64) << 32) | idx as u64
    }

    /// Frees a slot whose entry has already been taken out.
    fn release(&mut self, idx: usize) {
        self.slab[idx].gen = self.slab[idx].gen.wrapping_add(1);
        self.slab[idx].entry = None;
        self.free.push(idx);
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn arm(&mut self, idx: usize, seq: u64, after: Duration) {
        self.wheel.arm(Instant::now(), idx, seq, after);
    }

    fn register(&mut self, fd: std::os::fd::RawFd, idx: usize) -> std::io::Result<()> {
        self.ep.add(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, self.token(idx))
    }

    // -- main loop -------------------------------------------------------

    fn run(mut self) {
        let mut events = vec![EpollEvent::default(); 1024];
        loop {
            let timeout_ms = if self.pending_connects.is_empty() && self.agenda.is_empty() {
                self.wheel.next_timeout_ms(Instant::now(), IDLE_WAIT_MS) as i32
            } else {
                0
            };
            let n = self.ep.wait(&mut events, timeout_ms).unwrap_or(0);
            self.stats.wakeups += 1;
            self.stats.events += n as u64;
            let mut woken = false;
            for ev in &events[..n] {
                if ev.data() == WAKE_TOKEN {
                    woken = true;
                } else {
                    self.agenda.push_back(Wake::Io(ev.data()));
                }
            }
            if woken {
                let mut sink = [0u8; 256];
                while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            }
            let now = Instant::now();
            let mut fired = Vec::new();
            self.wheel.advance(now, |c, s| fired.push((c, s)));
            for (c, s) in fired {
                self.agenda.push_back(Wake::Deadline(c, s));
            }
            loop {
                let cmd = self.cmds.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                match cmd {
                    Some(Cmd::Shutdown) => return,
                    Some(cmd) => self.handle_cmd(cmd),
                    None => break,
                }
            }
            while let Some(wake) = self.agenda.pop_front() {
                self.dispatch(wake);
            }
            for _ in 0..CONNECT_BURST {
                match self.pending_connects.pop_front() {
                    Some(intent) => self.do_connect(intent),
                    None => break,
                }
            }
        }
    }

    fn handle_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::Listen { listener, role, ack } => {
                let _ = listener.set_nonblocking(true);
                let fd = listener.as_raw_fd();
                let entry = match role {
                    Role::Origin { server, config, record } => {
                        Entry::OriginListener(OriginListener {
                            listener,
                            server: Rc::new(server),
                            config: Rc::new(config),
                            record,
                            logs: Vec::new(),
                        })
                    }
                    Role::Proxy { proxy, config } => Entry::ProxyListener(ProxyListener {
                        listener,
                        proxy: Rc::new(proxy),
                        config: Rc::new(config),
                    }),
                    Role::Responder { respond, read_timeout } => {
                        Entry::ResponderListener(ResponderListener {
                            listener,
                            respond: Rc::new(respond),
                            read_timeout,
                        })
                    }
                };
                let idx = self.insert(entry);
                let _ = self.register(fd, idx);
                let _ = ack.send(ListenerId(self.token(idx)));
            }
            Cmd::Warm { addr, depth, ack } => {
                self.warm_targets.insert(addr, depth);
                let have = self.idle_count(addr);
                for _ in have..depth {
                    self.pending_connects.push_back(ConnectIntent::Idle { addr });
                }
                let _ = ack.send(());
            }
            Cmd::Submit { jobs, done } => self.handle_submit(jobs, done),
            Cmd::TakeServerLogs { id, ack } => {
                let logs = match self.resolve(id).and_then(|idx| self.slab[idx].entry.as_mut()) {
                    Some(Entry::OriginListener(l)) => std::mem::take(&mut l.logs),
                    _ => Vec::new(),
                };
                let _ = ack.send(logs);
            }
            Cmd::Stats { ack } => {
                let _ = ack.send(self.stats);
            }
            Cmd::Shutdown => {}
        }
    }

    fn resolve(&self, id: ListenerId) -> Option<usize> {
        let idx = (id.0 & 0xffff_ffff) as usize;
        let gen = (id.0 >> 32) as u32;
        (idx < self.slab.len() && self.slab[idx].gen == gen).then_some(idx)
    }

    fn idle_count(&self, addr: SocketAddr) -> usize {
        self.warm.get(&addr).map_or(0, VecDeque::len)
    }

    // -- submission ------------------------------------------------------

    fn handle_submit(&mut self, jobs: Vec<Job>, done: Sender<Vec<JobOutput>>) {
        let batch = match self.free_batches.pop() {
            Some(b) => b,
            None => {
                self.batches.push(None);
                self.batches.len() - 1
            }
        };
        self.batches[batch] = Some(BatchState {
            outputs: vec![None; jobs.len()],
            remaining: jobs.len(),
            done,
            pending_logs: HashMap::new(),
        });
        if jobs.is_empty() {
            self.finish_batch_if_done(batch);
            return;
        }
        for (job, spec) in jobs.into_iter().enumerate() {
            match spec {
                Job::Exchange(spec) => self.submit_exchange(batch, job, spec, false),
                Job::Drive(spec) => {
                    self.pending_connects.push_back(ConnectIntent::Drive { batch, job, spec });
                }
            }
        }
    }

    fn submit_exchange(&mut self, batch: usize, job: usize, spec: ExchangeSpec, retried: bool) {
        if spec.warm && !retried {
            if let Some(idx) = self.claim_idle(spec.addr) {
                self.stats.pool_hits += 1;
                self.replenish(spec.addr);
                self.assign_exchange(idx, batch, job, spec, true, false);
                return;
            }
            self.stats.pool_misses += 1;
            self.replenish(spec.addr);
        }
        self.pending_connects.push_back(ConnectIntent::Exchange { batch, job, spec, retried });
    }

    /// Pops idle pooled connections for `addr` until a live one is found.
    fn claim_idle(&mut self, addr: SocketAddr) -> Option<usize> {
        let deque = self.warm.get_mut(&addr)?;
        while let Some((idx, gen)) = deque.pop_front() {
            if self.slab.get(idx).is_some_and(|s| {
                s.gen == gen
                    && matches!(
                        s.entry,
                        Some(Entry::Client(ClientConn { kind: ClientKind::Idle { .. }, .. }))
                    )
            }) {
                return Some(idx);
            }
        }
        None
    }

    /// Tops the pool back up to the registered depth for `addr`.
    fn replenish(&mut self, addr: SocketAddr) {
        let Some(&depth) = self.warm_targets.get(&addr) else { return };
        if self.idle_count(addr) < depth {
            self.pending_connects.push_back(ConnectIntent::Idle { addr });
        }
    }

    /// Converts a connected client slot into a running exchange. The
    /// pairing ticket is registered here, before the client writes, so
    /// the server side finds it with the first bytes.
    fn assign_exchange(
        &mut self,
        idx: usize,
        batch: usize,
        job: usize,
        spec: ExchangeSpec,
        reused: bool,
        retried: bool,
    ) {
        let Some(Entry::Client(c)) = self.slab[idx].entry.as_ref() else { return };
        let owner = spec.pair.and_then(|id| self.resolve(id));
        let ticket = owner.zip(c.stream.local_addr().ok());
        if let Some(key) = ticket {
            self.tickets.insert(key, Ticket { batch, job, fault: spec.fault });
        }
        let seq = self.next_seq();
        let read_timeout = spec.read_timeout;
        let (out, cuts) = mode_bytes(&spec.bytes, &spec.mode);
        let state = ExchangeState {
            batch,
            job,
            out,
            cuts,
            out_pos: 0,
            fin_sent: false,
            resp: Vec::new(),
            read_timeout,
            started: Instant::now(),
            reused,
            retried,
            ticket,
            spec,
        };
        if let Some(Entry::Client(c)) = self.slab[idx].entry.as_mut() {
            c.kind = ClientKind::Exchange(Box::new(state));
            c.seq = seq;
        }
        self.arm(idx, seq, read_timeout);
        self.agenda.push_back(Wake::Resume(idx));
    }

    // -- connect processing ---------------------------------------------

    fn do_connect(&mut self, intent: ConnectIntent) {
        match intent {
            ConnectIntent::Exchange { batch, job, spec, retried } => match self.open(spec.addr) {
                Ok(idx) => self.assign_exchange(idx, batch, job, spec, false, retried),
                Err(e) => {
                    let out = ExchangeOutput {
                        error: Some(NetError::connect(e)),
                        retried,
                        ..ExchangeOutput::default()
                    };
                    self.complete(batch, job, JobOutput::Exchange(out));
                }
            },
            ConnectIntent::Drive { batch, job, spec } => match self.open(spec.addr) {
                Ok(idx) => {
                    let seq = self.next_seq();
                    let read_timeout = spec.read_timeout;
                    let mut state = DriveState {
                        batch,
                        job,
                        payload: spec.payload,
                        requests: spec.requests,
                        sent: 0,
                        completed: 0,
                        pipeline: spec.pipeline.max(1),
                        out: Vec::new(),
                        out_pos: 0,
                        resp_buf: Vec::new(),
                        rtts: Vec::new(),
                        last_send: Instant::now(),
                        read_timeout,
                        started: Instant::now(),
                    };
                    refill_drive(&mut state);
                    if let Some(Entry::Client(c)) = self.slab[idx].entry.as_mut() {
                        c.kind = ClientKind::Drive(Box::new(state));
                        c.seq = seq;
                    }
                    self.arm(idx, seq, read_timeout);
                    self.agenda.push_back(Wake::Resume(idx));
                }
                Err(_) => {
                    let out = DriveOutput { errors: 1, ..DriveOutput::default() };
                    self.complete(batch, job, JobOutput::Drive(out));
                }
            },
            ConnectIntent::Idle { addr } => {
                let depth = self.warm_targets.get(&addr).copied().unwrap_or(0);
                if self.idle_count(addr) >= depth {
                    return; // pool refilled by a competing intent
                }
                if let Ok(idx) = self.open(addr) {
                    let gen = self.slab[idx].gen;
                    self.warm.entry(addr).or_default().push_back((idx, gen));
                    if self.warm_filled.get(&addr).copied().unwrap_or(false) {
                        self.stats.conn_churn += 1;
                    } else if self.idle_count(addr) >= depth {
                        self.warm_filled.insert(addr, true);
                    }
                }
            }
            ConnectIntent::Upstream { owner, addr, bytes, read_timeout } => {
                match TcpStream::connect(addr) {
                    Ok(stream) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        self.stats.conns_opened += 1;
                        let fd = stream.as_raw_fd();
                        let seq = self.next_seq();
                        let idx = self.insert(Entry::Upstream(UpstreamConn {
                            stream,
                            owner,
                            out: bytes,
                            out_pos: 0,
                            fin_sent: false,
                            resp: Vec::new(),
                            seq,
                        }));
                        let _ = self.register(fd, idx);
                        self.arm(idx, seq, read_timeout);
                    }
                    Err(_) => {
                        self.agenda.push_back(Wake::RelayDone(owner, Err(())));
                    }
                }
            }
        }
    }

    /// Opens a client connection and registers it as an (unassigned)
    /// idle entry; the caller converts it.
    fn open(&mut self, addr: SocketAddr) -> std::io::Result<usize> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        self.stats.conns_opened += 1;
        let fd = stream.as_raw_fd();
        let idx = self.insert(Entry::Client(ClientConn {
            stream,
            kind: ClientKind::Idle { addr },
            seq: 0,
        }));
        let _ = self.register(fd, idx);
        Ok(idx)
    }

    // -- dispatch --------------------------------------------------------

    fn dispatch(&mut self, wake: Wake) {
        let (idx, deadline_seq, relay) = match wake {
            Wake::Io(token) => {
                let idx = (token & 0xffff_ffff) as usize;
                let gen = (token >> 32) as u32;
                if idx >= self.slab.len() || self.slab[idx].gen != gen {
                    return;
                }
                (idx, None, None)
            }
            Wake::Resume(idx) => (idx, None, None),
            Wake::Deadline(idx, seq) => (idx, Some(seq), None),
            Wake::RelayDone(idx, result) => (idx, None, Some(result)),
        };
        let Some(entry) = self.slab.get_mut(idx).and_then(|s| s.entry.take()) else {
            return;
        };
        // A deadline entry superseded by a later re-arm fires as a no-op.
        let live_deadline = |seq: u64| deadline_seq == Some(seq);
        let stale_deadline = |seq: u64| deadline_seq.is_some_and(|s| s != seq);
        let keep = match entry {
            Entry::OriginListener(l) => {
                self.accept_origin(idx, &l);
                self.slab[idx].entry = Some(Entry::OriginListener(l));
                return;
            }
            Entry::ProxyListener(l) => {
                self.accept_proxy(idx, &l);
                self.slab[idx].entry = Some(Entry::ProxyListener(l));
                return;
            }
            Entry::ResponderListener(l) => {
                self.accept_responder(idx, &l);
                self.slab[idx].entry = Some(Entry::ResponderListener(l));
                return;
            }
            Entry::Origin(mut c) => {
                let keep = if stale_deadline(c.seq) {
                    true
                } else if live_deadline(c.seq) {
                    self.stats.deadline_fires += 1;
                    self.origin_deadline(&mut c)
                } else {
                    self.origin_step(idx, &mut c)
                };
                if keep {
                    self.slab[idx].entry = Some(Entry::Origin(c));
                }
                keep
            }
            Entry::ProxyDown(mut c) => {
                let keep = if stale_deadline(c.seq) {
                    true
                } else if live_deadline(c.seq) {
                    self.stats.deadline_fires += 1;
                    self.proxy_deadline(&mut c)
                } else if let Some(result) = relay {
                    self.proxy_relay_done(idx, &mut c, result)
                } else {
                    self.proxy_step(idx, &mut c)
                };
                if keep {
                    self.slab[idx].entry = Some(Entry::ProxyDown(c));
                }
                keep
            }
            Entry::Upstream(mut c) => {
                let keep = if stale_deadline(c.seq) {
                    true
                } else if live_deadline(c.seq) {
                    self.stats.deadline_fires += 1;
                    self.agenda.push_back(Wake::RelayDone(c.owner, Err(())));
                    false
                } else {
                    self.upstream_step(&mut c)
                };
                if keep {
                    self.slab[idx].entry = Some(Entry::Upstream(c));
                }
                keep
            }
            Entry::Responder(mut c) => {
                let keep = if stale_deadline(c.seq) {
                    true
                } else if live_deadline(c.seq) {
                    self.stats.deadline_fires += 1;
                    self.responder_deadline(&mut c)
                } else {
                    self.responder_step(&mut c)
                };
                if keep {
                    self.slab[idx].entry = Some(Entry::Responder(c));
                }
                keep
            }
            Entry::Client(mut c) => {
                let keep = if stale_deadline(c.seq) {
                    true
                } else if live_deadline(c.seq) {
                    self.stats.deadline_fires += 1;
                    self.client_deadline(&mut c)
                } else {
                    self.client_step(idx, &mut c)
                };
                if keep {
                    self.slab[idx].entry = Some(Entry::Client(c));
                }
                keep
            }
        };
        if !keep {
            self.stats.conns_closed += 1;
            self.release(idx);
        }
    }

    // -- accept ----------------------------------------------------------

    /// Accepts every pending connection on `listener`; `entry` builds
    /// each connection's slab entry (given the stream, its peer address
    /// and its deadline sequence) and names its read timeout.
    fn accept_each(
        &mut self,
        listener: &TcpListener,
        mut entry: impl FnMut(TcpStream, SocketAddr, u64) -> (Entry, Duration),
    ) {
        while let Ok((stream, peer)) = listener.accept() {
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            self.stats.conns_opened += 1;
            let fd = stream.as_raw_fd();
            let seq = self.next_seq();
            let (e, read_timeout) = entry(stream, peer, seq);
            let idx = self.insert(e);
            let _ = self.register(fd, idx);
            self.arm(idx, seq, read_timeout);
        }
    }

    fn accept_origin(&mut self, owner: usize, l: &OriginListener) {
        self.accept_each(&l.listener, |stream, peer, seq| {
            let conn = OriginConn {
                stream,
                server: Rc::clone(&l.server),
                config: Rc::clone(&l.config),
                record: l.record,
                owner,
                peer,
                buf: Vec::new(),
                pos: 0,
                replies: Vec::new(),
                bytes_out: 0,
                eof: false,
                teardown: Teardown::Fin,
                out: Vec::new(),
                out_pos: 0,
                phase: OriginPhase::Awaiting,
                finalized: false,
                seq,
            };
            (Entry::Origin(conn), l.config.read_timeout)
        });
    }

    fn accept_proxy(&mut self, owner: usize, l: &ProxyListener) {
        self.accept_each(&l.listener, |stream, peer, seq| {
            let conn = ProxyConn {
                stream,
                proxy: Rc::clone(&l.proxy),
                config: Rc::clone(&l.config),
                owner,
                peer,
                buf: Vec::new(),
                pos: 0,
                results: Vec::new(),
                eof: false,
                teardown: Teardown::Fin,
                out: Vec::new(),
                out_pos: 0,
                closing: false,
                relay: None,
                seq,
            };
            (Entry::ProxyDown(Box::new(conn)), l.config.read_timeout)
        });
    }

    fn accept_responder(&mut self, owner: usize, l: &ResponderListener) {
        self.accept_each(&l.listener, |stream, peer, seq| {
            let conn = ResponderConn {
                stream,
                respond: Rc::clone(&l.respond),
                owner,
                peer,
                buf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                responded: false,
                seq,
            };
            (Entry::Responder(conn), l.read_timeout)
        });
    }

    // -- pairing ---------------------------------------------------------

    /// The fault effect the exchange paired with a server-side
    /// connection carries, if any.
    fn ticket_fault(&self, owner: usize, peer: SocketAddr) -> Option<FaultEffect> {
        self.tickets.get(&(owner, peer)).and_then(|t| t.fault)
    }

    /// Delivers a connection log to its paired exchange. An origin log no
    /// exchange paired with accumulates on its listener (see
    /// [`Reactor::take_server_logs`]); other unpaired logs are dropped.
    fn deliver_log(&mut self, owner: usize, peer: SocketAddr, log: PairedLog) {
        if let Some(t) = self.tickets.remove(&(owner, peer)) {
            if let Some(Some(b)) = self.batches.get_mut(t.batch) {
                b.pending_logs.insert(t.job, log);
                return;
            }
        }
        if let (Some(Entry::OriginListener(l)), PairedLog::Server(log)) =
            (self.slab.get_mut(owner).and_then(|s| s.entry.as_mut()), log)
        {
            l.logs.push(log);
        }
    }

    // -- origin connection state machine ---------------------------------

    fn origin_finalize(&mut self, c: &mut OriginConn) {
        if c.finalized {
            return;
        }
        c.finalized = true;
        let replies = if c.record { std::mem::take(&mut c.replies) } else { Vec::new() };
        let log = ConnectionLog {
            replies,
            bytes_in: c.buf.len(),
            bytes_out: c.bytes_out,
            teardown: c.teardown,
        };
        self.deliver_log(c.owner, c.peer, PairedLog::Server(log));
    }

    fn origin_fault(&self, c: &OriginConn) -> Option<ServerFault> {
        match self.ticket_fault(c.owner, c.peer)? {
            FaultEffect::Origin(fault) => Some(fault),
            FaultEffect::Forward(_) => None,
        }
    }

    /// Returns `true` to keep the connection alive.
    fn origin_step(&mut self, idx: usize, c: &mut OriginConn) -> bool {
        match c.phase {
            OriginPhase::Stalling => {
                // Drain quietly; close silently on EOF or error.
                let mut sink = Vec::new();
                return matches!(drain_read(&mut c.stream, &mut sink), ReadOutcome::More(_));
            }
            OriginPhase::Closing => return self.origin_flush_close(c),
            _ => {}
        }

        let mut progressed = false;
        match drain_read(&mut c.stream, &mut c.buf) {
            ReadOutcome::More(any) => progressed = any,
            ReadOutcome::Eof => c.eof = true,
            ReadOutcome::Error => {
                c.teardown = Teardown::Abort;
                c.phase = OriginPhase::Closing;
            }
        }

        if c.phase == OriginPhase::Awaiting && (!c.buf.is_empty() || c.eof) {
            // The first bytes: a whole-connection fault starts now.
            match self.origin_fault(c) {
                Some(ServerFault::CloseNoReply) => {
                    // Abort without a byte.
                    c.teardown = Teardown::Abort;
                    self.origin_finalize(c);
                    return false;
                }
                Some(ServerFault::Stall) => {
                    // Never reply: the log goes out before the stall, and
                    // the socket stays open until the client gives up.
                    c.teardown = Teardown::Stalled;
                    self.origin_finalize(c);
                    c.phase = OriginPhase::Stalling;
                    return !c.eof;
                }
                _ => c.phase = OriginPhase::Serving,
            }
        }
        if c.phase == OriginPhase::Serving {
            self.origin_parse(c);
            if c.phase == OriginPhase::Serving
                && (c.eof || c.replies.len() >= c.config.max_messages)
            {
                c.phase = OriginPhase::Closing;
            }
        }
        if c.phase == OriginPhase::Lingering && c.eof {
            c.phase = OriginPhase::Closing;
        }
        if c.phase == OriginPhase::Closing {
            return self.origin_flush_close(c);
        }

        match drain_write(&mut c.stream, &c.out, &mut c.out_pos) {
            WriteOutcome::Error => {
                c.teardown = Teardown::Abort;
                self.origin_finalize(c);
                return false;
            }
            WriteOutcome::Partial => {}
            WriteOutcome::Flushed => {
                c.out.clear();
                c.out_pos = 0;
            }
        }
        if progressed {
            c.seq = self.next_seq();
            self.arm(idx, c.seq, c.config.read_timeout);
        }
        true
    }

    fn origin_parse(&mut self, c: &mut OriginConn) {
        let fault = self.origin_fault(c);
        while c.replies.len() < c.config.max_messages && c.pos < c.buf.len() {
            let reply = c.server.handle(&c.buf[c.pos..]);
            if !is_final(&reply.interpretation, c.buf.len() - c.pos, c.eof) {
                break; // wait for more bytes (or EOF)
            }
            let consumed = reply.interpretation.consumed;
            let rejected = !reply.interpretation.outcome.is_accept();
            let mut reply = reply;
            if let Some(fault) = fault {
                c.server.fault_reply(fault.kind(), &mut reply);
            }
            let wire = reply.response.to_bytes();
            c.out.extend_from_slice(&wire);
            c.bytes_out += wire.len();
            c.replies.push(reply);
            if rejected || consumed == 0 {
                // The connection closes on error, like the engine — once
                // the client's FIN arrives (see module docs).
                c.phase = OriginPhase::Lingering;
                break;
            }
            c.pos += consumed;
        }
    }

    fn origin_flush_close(&mut self, c: &mut OriginConn) -> bool {
        match drain_write(&mut c.stream, &c.out, &mut c.out_pos) {
            WriteOutcome::Flushed => {
                self.origin_finalize(c);
                let _ = c.stream.shutdown(Shutdown::Both);
                false
            }
            WriteOutcome::Partial => true,
            WriteOutcome::Error => {
                c.teardown = Teardown::Abort;
                self.origin_finalize(c);
                false
            }
        }
    }

    fn origin_deadline(&mut self, c: &mut OriginConn) -> bool {
        match c.phase {
            // The stalled connection's log went out when the stall began.
            OriginPhase::Stalling => {}
            // A close whose flush stalled past the read budget; give up.
            OriginPhase::Closing => self.origin_finalize(c),
            _ => {
                c.teardown = Teardown::TimedOut;
                self.origin_finalize(c);
            }
        }
        false
    }

    // -- proxy connection state machine ----------------------------------

    fn proxy_step(&mut self, idx: usize, c: &mut ProxyConn) -> bool {
        if c.closing {
            return self.proxy_flush_close(c);
        }
        let mut progressed = false;
        match drain_read(&mut c.stream, &mut c.buf) {
            ReadOutcome::More(any) => progressed = any,
            ReadOutcome::Eof => c.eof = true,
            ReadOutcome::Error => {
                c.teardown = Teardown::Abort;
                c.closing = true;
            }
        }
        if !c.closing && c.relay.is_none() {
            self.proxy_parse(idx, c);
            self.proxy_close_if_done(c);
        }
        if c.closing {
            return self.proxy_flush_close(c);
        }
        match drain_write(&mut c.stream, &c.out, &mut c.out_pos) {
            WriteOutcome::Error => {
                c.teardown = Teardown::Abort;
                self.proxy_finalize(c);
                return false;
            }
            WriteOutcome::Partial => {}
            WriteOutcome::Flushed => {
                c.out.clear();
                c.out_pos = 0;
            }
        }
        if progressed && c.relay.is_none() {
            c.seq = self.next_seq();
            self.arm(idx, c.seq, c.config.read_timeout);
        }
        true
    }

    /// Starts closing once the stream is done: EOF or the message cap,
    /// with no relay in flight.
    fn proxy_close_if_done(&mut self, c: &mut ProxyConn) {
        if c.relay.is_none() && !c.closing && (c.eof || c.results.len() >= c.config.max_messages) {
            c.closing = true;
        }
    }

    fn proxy_parse(&mut self, idx: usize, c: &mut ProxyConn) {
        let fault = match self.ticket_fault(c.owner, c.peer) {
            Some(FaultEffect::Forward(decision)) => Some(decision),
            _ => None,
        };
        while c.relay.is_none()
            && !c.closing
            && c.results.len() < c.config.max_messages
            && c.pos < c.buf.len()
        {
            let mut r = c.proxy.forward(&c.buf[c.pos..]);
            if !is_final(&r.interpretation, c.buf.len() - c.pos, c.eof) {
                break; // wait for more bytes (or EOF)
            }
            let consumed = r.interpretation.consumed;
            let rejected = matches!(r.action, ForwardAction::Rejected(_));
            // The pre-decided forward-stage fault, applied by the code the
            // in-process proxy stream runs.
            let drop_rest = fault.is_some_and(|d| r.action.apply_fault(d));

            match &r.action {
                ForwardAction::Forwarded(bytes) if !bytes.is_empty() => {
                    self.pending_connects.push_back(ConnectIntent::Upstream {
                        owner: idx,
                        addr: c.config.upstream,
                        bytes: bytes.clone(),
                        read_timeout: c.config.read_timeout,
                    });
                    // Suspend the downstream deadline for the relay's
                    // duration; the upstream connection has its own.
                    c.seq = self.next_seq();
                    c.relay = Some(PendingRelay { result: r, consumed, rejected, drop_rest });
                    return;
                }
                ForwardAction::Forwarded(_) => {
                    // A stalled forward sends nothing upstream and
                    // answers nothing downstream.
                    c.results.push(r);
                    if drop_rest {
                        c.teardown = Teardown::Abort;
                    }
                    if rejected || consumed == 0 || drop_rest {
                        c.closing = true;
                        return;
                    }
                    c.pos += consumed;
                }
                ForwardAction::Rejected(response) => {
                    c.out.extend_from_slice(&response.to_bytes());
                    c.results.push(r);
                    c.closing = true;
                    return;
                }
            }
        }
    }

    fn proxy_relay_done(
        &mut self,
        idx: usize,
        c: &mut ProxyConn,
        result: Result<Vec<u8>, ()>,
    ) -> bool {
        let Some(pending) = c.relay.take() else { return true };
        let Ok(response) = result else {
            c.teardown = Teardown::Abort;
            c.results.push(pending.result);
            self.proxy_finalize(c);
            return false;
        };
        c.out.extend_from_slice(&response);
        c.results.push(pending.result);
        if pending.drop_rest {
            c.teardown = Teardown::Abort;
        }
        if pending.rejected || pending.consumed == 0 || pending.drop_rest {
            c.closing = true;
        } else {
            c.pos += pending.consumed;
            c.seq = self.next_seq();
            self.arm(idx, c.seq, c.config.read_timeout);
            self.proxy_parse(idx, c);
            self.proxy_close_if_done(c);
        }
        if c.closing {
            return self.proxy_flush_close(c);
        }
        match drain_write(&mut c.stream, &c.out, &mut c.out_pos) {
            WriteOutcome::Error => {
                c.teardown = Teardown::Abort;
                self.proxy_finalize(c);
                false
            }
            WriteOutcome::Partial => true,
            WriteOutcome::Flushed => {
                c.out.clear();
                c.out_pos = 0;
                true
            }
        }
    }

    fn proxy_finalize(&mut self, c: &mut ProxyConn) {
        let log = ProxyConnLog { results: std::mem::take(&mut c.results), teardown: c.teardown };
        self.deliver_log(c.owner, c.peer, PairedLog::Proxy(log));
    }

    fn proxy_flush_close(&mut self, c: &mut ProxyConn) -> bool {
        match drain_write(&mut c.stream, &c.out, &mut c.out_pos) {
            WriteOutcome::Flushed => {
                self.proxy_finalize(c);
                let _ = c.stream.shutdown(Shutdown::Both);
                false
            }
            WriteOutcome::Partial => true,
            WriteOutcome::Error => {
                c.teardown = Teardown::Abort;
                self.proxy_finalize(c);
                false
            }
        }
    }

    fn proxy_deadline(&mut self, c: &mut ProxyConn) -> bool {
        if c.relay.is_some() {
            return true; // suspended during a relay; stale by construction
        }
        c.teardown = Teardown::TimedOut;
        self.proxy_finalize(c);
        false
    }

    // -- upstream relay connection ---------------------------------------

    fn upstream_step(&mut self, c: &mut UpstreamConn) -> bool {
        if !c.fin_sent {
            match drain_write(&mut c.stream, &c.out, &mut c.out_pos) {
                WriteOutcome::Flushed => {
                    let _ = c.stream.shutdown(Shutdown::Write);
                    c.fin_sent = true;
                }
                WriteOutcome::Partial => {}
                WriteOutcome::Error => {
                    self.agenda.push_back(Wake::RelayDone(c.owner, Err(())));
                    return false;
                }
            }
        }
        match drain_read(&mut c.stream, &mut c.resp) {
            ReadOutcome::More(_) => true,
            ReadOutcome::Eof => {
                self.agenda.push_back(Wake::RelayDone(c.owner, Ok(std::mem::take(&mut c.resp))));
                false
            }
            ReadOutcome::Error => {
                self.agenda.push_back(Wake::RelayDone(c.owner, Err(())));
                false
            }
        }
    }

    // -- responder connection --------------------------------------------

    fn responder_step(&mut self, c: &mut ResponderConn) -> bool {
        if !c.responded {
            if let ReadOutcome::More(_) = drain_read(&mut c.stream, &mut c.buf) {
                return true;
            }
            self.responder_answer(c);
        }
        responder_flush(c)
    }

    /// Answers whatever arrived before the read deadline.
    fn responder_deadline(&mut self, c: &mut ResponderConn) -> bool {
        if !c.responded {
            self.responder_answer(c);
        }
        responder_flush(c)
    }

    /// Computes the answer and delivers the log, if the role keeps one,
    /// before a byte of the answer is written.
    fn responder_answer(&mut self, c: &mut ResponderConn) {
        let (out, log) = c.respond.answer(&c.buf);
        c.out = out;
        c.responded = true;
        if let Some(log) = log {
            self.deliver_log(c.owner, c.peer, PairedLog::Front(log));
        }
    }

    // -- client connections ----------------------------------------------

    fn client_step(&mut self, idx: usize, c: &mut ClientConn) -> bool {
        match &mut c.kind {
            ClientKind::Idle { addr } => {
                // Any readiness on an idle pooled connection means the
                // server closed (or errored) it: evict.
                let mut sink = Vec::new();
                match drain_read(&mut c.stream, &mut sink) {
                    ReadOutcome::More(false) => true, // spurious (writable edge)
                    _ => {
                        self.stats.pool_evictions += 1;
                        let addr = *addr;
                        if let Some(q) = self.warm.get_mut(&addr) {
                            q.retain(|(i, _)| *i != idx);
                        }
                        false
                    }
                }
            }
            ClientKind::Exchange(_) => self.exchange_step(idx, c),
            ClientKind::Drive(_) => self.drive_step(idx, c),
        }
    }

    fn exchange_step(&mut self, idx: usize, c: &mut ClientConn) -> bool {
        let ClientKind::Exchange(state) = &mut c.kind else { return true };
        if !state.fin_sent {
            match write_segments(&mut c.stream, state) {
                WriteOutcome::Flushed => {
                    let _ = c.stream.shutdown(Shutdown::Write);
                    state.fin_sent = true;
                }
                WriteOutcome::Partial => {}
                WriteOutcome::Error => return self.exchange_done(c, ExchangeEnd::WriteError),
            }
        }
        let ClientKind::Exchange(state) = &mut c.kind else { return true };
        let progressed = match drain_read(&mut c.stream, &mut state.resp) {
            ReadOutcome::More(any) => any,
            // Read errors end the exchange like EOF.
            ReadOutcome::Eof | ReadOutcome::Error => {
                return self.exchange_done(c, ExchangeEnd::Eof);
            }
        };
        if progressed {
            let read_timeout = state.read_timeout;
            c.seq = self.next_seq();
            self.arm(idx, c.seq, read_timeout);
        }
        true
    }

    fn client_deadline(&mut self, c: &mut ClientConn) -> bool {
        match &mut c.kind {
            ClientKind::Idle { .. } => true,
            ClientKind::Exchange(_) => {
                // Take the exchange to completion with timed_out set.
                self.exchange_complete(c, true, None);
                false
            }
            ClientKind::Drive(_) => {
                self.drive_complete(c, true);
                false
            }
        }
    }

    fn exchange_done(&mut self, c: &mut ClientConn, end: ExchangeEnd) -> bool {
        let ClientKind::Exchange(state) = &mut c.kind else { return true };
        // Stale pooled connection: the server closed it between claim
        // and use — no bytes, no log, nothing charged. Retry once fresh.
        let log_pending = state.ticket.is_some_and(|key| self.tickets.contains_key(&key));
        if state.reused && !state.retried && state.resp.is_empty() && log_pending {
            if let Some(key) = state.ticket {
                self.tickets.remove(&key);
            }
            let (batch, job, spec) = (state.batch, state.job, state.spec.clone());
            self.submit_exchange(batch, job, spec, true);
            return false;
        }
        let error = match end {
            ExchangeEnd::WriteError => {
                Some(NetError::io(std::io::Error::other("write failed mid-exchange")))
            }
            ExchangeEnd::Eof => None,
        };
        self.exchange_complete(c, false, error);
        false
    }

    fn exchange_complete(&mut self, c: &mut ClientConn, timed_out: bool, error: Option<NetError>) {
        let ClientKind::Exchange(state) = &mut c.kind else { return };
        let (batch, job) = (state.batch, state.job);
        // Drop a still-pending ticket, so a late log cannot land in
        // whatever batch reuses this slot.
        if let Some(key) = state.ticket {
            self.tickets.remove(&key);
        }
        let mut out = ExchangeOutput {
            response: std::mem::take(&mut state.resp),
            timed_out,
            error,
            rtt_ns: state.started.elapsed().as_nanos() as u64,
            reused: state.reused,
            retried: state.retried,
            ..ExchangeOutput::default()
        };
        let log = self.batches.get_mut(batch).and_then(Option::as_mut);
        match log.and_then(|b| b.pending_logs.remove(&job)) {
            Some(PairedLog::Server(log)) => out.server_log = Some(log),
            Some(PairedLog::Proxy(log)) => out.proxy_log = Some(log),
            Some(PairedLog::Front(log)) => out.front_log = Some(log),
            None => {}
        }
        let _ = c.stream.shutdown(Shutdown::Both);
        self.complete(batch, job, JobOutput::Exchange(out));
    }

    fn drive_step(&mut self, idx: usize, c: &mut ClientConn) -> bool {
        let ClientKind::Drive(state) = &mut c.kind else { return true };
        let mut progressed = false;
        loop {
            // Flush whatever is queued.
            match drain_write(&mut c.stream, &state.out, &mut state.out_pos) {
                WriteOutcome::Flushed => {
                    state.out.clear();
                    state.out_pos = 0;
                }
                WriteOutcome::Partial => {}
                WriteOutcome::Error => {
                    self.drive_complete(c, false);
                    return false;
                }
            }
            // Read and frame responses.
            match drain_read(&mut c.stream, &mut state.resp_buf) {
                ReadOutcome::More(any) => progressed |= any,
                ReadOutcome::Eof | ReadOutcome::Error => {
                    drive_parse(state);
                    self.drive_complete(c, false);
                    return false;
                }
            }
            drive_parse(state);
            if state.completed >= state.requests {
                self.drive_complete(c, false);
                return false;
            }
            let inflight = state.sent - state.completed;
            if inflight == 0 && state.sent < state.requests {
                refill_drive(state);
                continue; // write the fresh batch now
            }
            break;
        }
        if progressed {
            let t = state.read_timeout;
            c.seq = self.next_seq();
            self.arm(idx, c.seq, t);
        }
        true
    }

    fn drive_complete(&mut self, c: &mut ClientConn, timed_out: bool) {
        let ClientKind::Drive(state) = &mut c.kind else { return };
        let out = DriveOutput {
            completed: state.completed,
            errors: u64::from(state.completed < state.requests && !timed_out),
            elapsed_ns: state.started.elapsed().as_nanos() as u64,
            rtt_ns: std::mem::take(&mut state.rtts),
            timed_out,
        };
        let batch = state.batch;
        let job = state.job;
        let _ = c.stream.shutdown(Shutdown::Both);
        self.complete(batch, job, JobOutput::Drive(out));
    }

    // -- batch completion ------------------------------------------------

    fn complete(&mut self, batch: usize, job: usize, output: JobOutput) {
        let Some(Some(b)) = self.batches.get_mut(batch) else { return };
        if b.outputs[job].is_none() {
            b.outputs[job] = Some(output);
            b.remaining -= 1;
        }
        self.finish_batch_if_done(batch);
    }

    fn finish_batch_if_done(&mut self, batch: usize) {
        let done = matches!(&self.batches[batch], Some(b) if b.remaining == 0);
        if done {
            if let Some(b) = self.batches[batch].take() {
                let outputs = b
                    .outputs
                    .into_iter()
                    .map(|o| o.unwrap_or(JobOutput::Exchange(ExchangeOutput::default())))
                    .collect();
                let _ = b.done.send(outputs);
            }
            self.free_batches.push(batch);
        }
    }
}

enum ExchangeEnd {
    Eof,
    WriteError,
}

/// Writes a responder's answer, then closes; `true` while bytes remain.
fn responder_flush(c: &mut ResponderConn) -> bool {
    match drain_write(&mut c.stream, &c.out, &mut c.out_pos) {
        WriteOutcome::Flushed => {
            let _ = c.stream.shutdown(Shutdown::Both);
            false
        }
        WriteOutcome::Partial => true,
        WriteOutcome::Error => false,
    }
}

/// Queues the next pipeline window of requests on a drive.
fn refill_drive(state: &mut DriveState) {
    let window = (state.requests - state.sent).min(state.pipeline as u64);
    for _ in 0..window {
        state.out.extend_from_slice(&state.payload);
    }
    state.sent += window;
    if state.pipeline == 1 {
        state.last_send = Instant::now();
    }
}

/// Frames completed responses out of a drive's read buffer.
fn drive_parse(state: &mut DriveState) {
    while let Ok(parsed) = parse_response(&state.resp_buf) {
        state.resp_buf.drain(..parsed.consumed);
        state.completed += 1;
        if state.pipeline == 1 {
            state.rtts.push(state.last_send.elapsed().as_nanos() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// The handle.
// ---------------------------------------------------------------------------

/// Handle to a running event loop. Operations go through an internal
/// command queue plus a loopback wake byte; dropping the handle shuts
/// the loop down and joins its thread.
#[derive(Debug)]
pub struct Reactor {
    cmds: Arc<Mutex<VecDeque<Cmd>>>,
    wake_tx: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for EventLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoop").field("slots", &self.slab.len()).finish()
    }
}

impl std::fmt::Debug for Cmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Cmd")
    }
}

impl Reactor {
    /// Starts the loop thread. Fails with a typed error when the target
    /// has no epoll backend or when the wake channel cannot be
    /// established.
    pub fn spawn() -> Result<Reactor, NetError> {
        if !sys::supported() {
            return Err(NetError::spawn(std::io::Error::other(
                "epoll reactor unsupported on this target",
            )));
        }
        // Portable in-process wake channel: a loopback TCP pair (no
        // platform-gated socketpair needed outside sys.rs).
        let listener = TcpListener::bind("127.0.0.1:0").map_err(NetError::bind)?;
        let addr = listener.local_addr().map_err(NetError::bind)?;
        let wake_tx = TcpStream::connect(addr).map_err(NetError::connect)?;
        let (wake_rx, _) = listener.accept().map_err(NetError::accept)?;
        drop(listener);
        wake_tx.set_nodelay(true).map_err(NetError::connect)?;
        wake_rx.set_nonblocking(true).map_err(NetError::accept)?;

        let ep = Epoll::new().map_err(NetError::spawn)?;
        ep.add(wake_rx.as_raw_fd(), EPOLLIN | EPOLLET, WAKE_TOKEN).map_err(NetError::spawn)?;

        let cmds: Arc<Mutex<VecDeque<Cmd>>> = Arc::new(Mutex::new(VecDeque::new()));
        let thread = {
            let cmds = Arc::clone(&cmds);
            std::thread::Builder::new()
                .name("hdiff-reactor".to_string())
                .spawn(move || EventLoop::new(ep, wake_rx, cmds).run())
                .map_err(NetError::spawn)?
        };
        Ok(Reactor { cmds, wake_tx, thread: Some(thread) })
    }

    fn send(&self, cmd: Cmd) {
        self.cmds.lock().unwrap_or_else(|e| e.into_inner()).push_back(cmd);
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    /// Binds an ephemeral loopback port and hosts `role` on it.
    fn listen(&self, name: String, role: Role) -> Result<AsyncListener, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(NetError::bind)?;
        let addr = listener.local_addr().map_err(NetError::bind)?;
        let (ack, rx) = channel();
        self.send(Cmd::Listen { listener, role, ack });
        let id = rx.recv().map_err(|_| {
            NetError::spawn(std::io::Error::other("reactor loop gone while adding a listener"))
        })?;
        Ok(AsyncListener { name, addr, id })
    }

    /// Hosts an origin server (a behavioral profile) on an ephemeral
    /// loopback port inside the loop. `record: false` drops per-reply
    /// accounting (bench mode — memory stays flat over millions of
    /// requests).
    pub fn add_origin(
        &self,
        profile: ParserProfile,
        config: NetServerConfig,
        record: bool,
    ) -> Result<AsyncListener, NetError> {
        let name = profile.name.clone();
        self.listen(name, Role::Origin { server: Server::new(profile), config, record })
    }

    /// Hosts a proxy hop inside the loop.
    ///
    /// # Panics
    ///
    /// Panics if `profile` has no proxy behavior configured (same
    /// contract as [`hdiff_servers::Proxy::new`]).
    pub fn add_proxy(
        &self,
        profile: ParserProfile,
        config: NetProxyConfig,
    ) -> Result<AsyncListener, NetError> {
        let name = profile.name.clone();
        self.listen(name, Role::Proxy { proxy: Proxy::new(profile), config })
    }

    /// Hosts an echo origin inside the loop. It reads each connection to
    /// EOF (or `read_timeout`) and answers with the bytes in a 200,
    /// keeping no record of them: the forwarded bytes a campaign replays
    /// come from the proxy logs.
    pub fn add_echo(&self, read_timeout: Duration) -> Result<AsyncListener, NetError> {
        self.listen("echo".to_string(), Role::Responder { respond: Respond::Echo, read_timeout })
    }

    /// Hosts an HTTP/2 downgrade front inside the loop (see
    /// [`crate::h2front`]). A paired exchange receives the connection's
    /// [`H2FrontLog`].
    pub fn add_h2_front(
        &self,
        front: DowngradeProfile,
        read_timeout: Duration,
    ) -> Result<AsyncListener, NetError> {
        let name = front.name.clone();
        self.listen(name, Role::Responder { respond: Respond::H2Front(front), read_timeout })
    }

    /// Registers `addr` for keep-alive pooling at `depth` pre-opened
    /// connections, and fills the pool.
    pub fn warm(&self, addr: SocketAddr, depth: usize) {
        let (ack, rx) = channel();
        self.send(Cmd::Warm { addr, depth, ack });
        let _ = rx.recv();
    }

    /// Runs `jobs` to completion concurrently and returns their outputs
    /// in submission order. Blocks the calling thread; the loop itself
    /// never blocks on any single job.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<JobOutput> {
        let (done, rx) = channel();
        self.send(Cmd::Submit { jobs, done });
        rx.recv().unwrap_or_default()
    }

    /// Drains the logs of an origin listener's connections that no
    /// exchange paired with (unpaired exchanges, or an outside client).
    pub fn take_server_logs(&self, id: ListenerId) -> Vec<ConnectionLog> {
        let (ack, rx) = channel();
        self.send(Cmd::TakeServerLogs { id, ack });
        rx.recv().unwrap_or_default()
    }

    /// Snapshot of the loop-side counters.
    pub fn stats(&self) -> ReactorStats {
        let (ack, rx) = channel();
        self.send(Cmd::Stats { ack });
        rx.recv().unwrap_or_default()
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.send(Cmd::Shutdown);
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeout::{io_timeout, stall_observe_timeout};
    use hdiff_servers::ParserProfile;
    use hdiff_wire::StatusCode;

    fn job(l: &AsyncListener, bytes: &[u8], mode: SendMode, fault: Option<FaultEffect>) -> Job {
        Job::Exchange(ExchangeSpec { fault, ..ExchangeSpec::paired(l, bytes, mode) })
    }

    fn exchange(reactor: &Reactor, job: Job) -> ExchangeOutput {
        match reactor.run(vec![job]).into_iter().next() {
            Some(JobOutput::Exchange(e)) => e,
            other => panic!("expected exchange output, got {other:?}"),
        }
    }

    fn strict_origin(reactor: &Reactor) -> AsyncListener {
        reactor.add_origin(ParserProfile::strict("wire"), NetServerConfig::default(), true).unwrap()
    }

    #[test]
    fn serves_a_simple_request() {
        let reactor = Reactor::spawn().unwrap();
        let l = strict_origin(&reactor);
        let ex = exchange(
            &reactor,
            job(&l, b"GET /x HTTP/1.1\r\nHost: h1.com\r\n\r\n", SendMode::Whole, None),
        );
        let text = String::from_utf8_lossy(&ex.response);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("host=h1.com"), "{text}");
        let log = ex.server_log.expect("paired log");
        assert_eq!(log.replies.len(), 1);
        assert_eq!(log.teardown, Teardown::Fin);
        assert_eq!(log.bytes_out, ex.response.len());
    }

    #[test]
    fn drive_completes_a_pipelined_run() {
        let reactor = Reactor::spawn().unwrap();
        let config = NetServerConfig { max_messages: 1 << 20, ..NetServerConfig::default() };
        let l = reactor.add_origin(ParserProfile::strict("wire"), config, false).unwrap();
        let outs = reactor.run(vec![Job::Drive(DriveSpec {
            addr: l.addr,
            payload: b"GET / HTTP/1.1\r\nHost: h\r\n\r\n".to_vec(),
            requests: 100,
            pipeline: 8,
            read_timeout: io_timeout(),
        })]);
        let d = outs[0].as_drive().expect("drive output");
        assert_eq!(d.completed, 100, "{d:?}");
        assert_eq!(d.errors, 0, "{d:?}");
        assert!(!d.timed_out);
        assert!(d.elapsed_ns > 0);
    }

    #[test]
    fn close_no_reply_fault_delivers_an_abort_log() {
        let reactor = Reactor::spawn().unwrap();
        let l = strict_origin(&reactor);
        let fault = Some(FaultEffect::Origin(ServerFault::CloseNoReply));
        let ex = exchange(
            &reactor,
            job(&l, b"GET / HTTP/1.1\r\nHost: h\r\n\r\n", SendMode::Whole, fault),
        );
        assert!(ex.response.is_empty(), "{ex:?}");
        assert!(!ex.timed_out);
        let log = ex.server_log.expect("paired log");
        assert_eq!(log.teardown, Teardown::Abort);
        assert!(log.replies.is_empty());
    }

    #[test]
    fn stall_fault_never_replies_and_delivers_a_stalled_log() {
        let reactor = Reactor::spawn().unwrap();
        let l = strict_origin(&reactor);
        // The exchange client FINs after writing; the stalling server's
        // drain observes it and closes, so the client sees EOF with
        // nothing received, and the Stalled log is already delivered.
        let Job::Exchange(mut spec) = job(
            &l,
            b"GET / HTTP/1.1\r\nHost: h\r\n\r\n",
            SendMode::Whole,
            Some(FaultEffect::Origin(ServerFault::Stall)),
        ) else {
            unreachable!()
        };
        spec.read_timeout = stall_observe_timeout();
        let ex = exchange(&reactor, Job::Exchange(spec));
        assert!(ex.response.is_empty(), "{ex:?}");
        let log = ex.server_log.expect("stall log is pushed before the stall begins");
        assert_eq!(log.teardown, Teardown::Stalled);
    }

    #[test]
    fn substitute_and_truncate_faults_mirror_the_sim_effects() {
        let reactor = Reactor::spawn().unwrap();
        let l = strict_origin(&reactor);
        let bytes = b"GET / HTTP/1.1\r\nHost: h1.com\r\n\r\n";
        let ex = exchange(
            &reactor,
            job(&l, bytes, SendMode::Whole, Some(FaultEffect::Origin(ServerFault::Substitute503))),
        );
        assert!(String::from_utf8_lossy(&ex.response).starts_with("HTTP/1.1 503"), "{ex:?}");
        assert_eq!(ex.server_log.expect("log").replies[0].response.status, StatusCode(503));

        let ex = exchange(
            &reactor,
            job(&l, bytes, SendMode::Whole, Some(FaultEffect::Origin(ServerFault::TruncateBody))),
        );
        let full = Server::new(ParserProfile::strict("wire")).handle(bytes);
        let log = ex.server_log.expect("log");
        assert_eq!(log.replies[0].response.body.len(), full.response.body.len() / 2);
        // The wire carries fewer body bytes than the Content-Length claims.
        assert!(ex.response.len() < full.response.to_bytes().len());
    }

    #[test]
    fn a_fault_reaches_only_its_own_exchange_even_on_a_warm_connection() {
        let reactor = Reactor::spawn().unwrap();
        let l = strict_origin(&reactor);
        reactor.warm(l.addr, 2);
        let bytes = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        let warm = |fault| {
            let Job::Exchange(mut spec) = job(&l, bytes, SendMode::Whole, fault) else {
                unreachable!()
            };
            spec.warm = true;
            Job::Exchange(spec)
        };
        let status =
            |ex: &ExchangeOutput| ex.server_log.as_ref().unwrap().replies[0].response.status;
        // The pool fills asynchronously, so the first batches may miss.
        let mut both_reused = false;
        for _ in 0..20 {
            let fault = Some(FaultEffect::Origin(ServerFault::Substitute503));
            let outs = reactor.run(vec![warm(fault), warm(None)]);
            let faulted = outs[0].as_exchange().unwrap();
            let clean = outs[1].as_exchange().unwrap();
            assert_eq!(status(faulted), StatusCode(503));
            assert_eq!(status(clean), StatusCode(200));
            both_reused |= faulted.reused && clean.reused;
        }
        assert!(both_reused, "no batch claimed two warm connections");
    }

    #[test]
    fn deadline_wheel_times_out_a_drive_with_no_response() {
        let reactor = Reactor::spawn().unwrap();
        // The echo answers at EOF, and a drive never half-closes, so only
        // the deadline wheel can end the job.
        let echo = reactor.add_echo(io_timeout()).unwrap();
        let outs = reactor.run(vec![Job::Drive(DriveSpec {
            addr: echo.addr,
            payload: b"GET / HTTP/1.1\r\nHost: h\r\n\r\n".to_vec(),
            requests: 4,
            pipeline: 1,
            read_timeout: stall_observe_timeout(),
        })]);
        let d = outs[0].as_drive().expect("drive output");
        assert!(d.timed_out, "{d:?}");
        assert_eq!(d.completed, 0, "{d:?}");
        assert!(reactor.stats().deadline_fires >= 1);
    }

    #[test]
    fn batch_outputs_keep_submission_order() {
        let reactor = Reactor::spawn().unwrap();
        let l = strict_origin(&reactor);
        let jobs: Vec<Job> = (0..16)
            .map(|i| {
                let bytes = format!("GET /{i} HTTP/1.1\r\nHost: h\r\n\r\n").into_bytes();
                job(&l, &bytes, SendMode::Whole, None)
            })
            .collect();
        let outs = reactor.run(jobs);
        assert_eq!(outs.len(), 16);
        for (i, out) in outs.iter().enumerate() {
            let ex = out.as_exchange().expect("exchange");
            let log = ex.server_log.as_ref().expect("own log");
            assert_eq!(log.replies.len(), 1, "job {i}: {ex:?}");
            let text = String::from_utf8_lossy(&ex.response);
            assert!(text.starts_with("HTTP/1.1 200"), "job {i}: {text}");
        }
    }

    #[test]
    fn segmented_and_truncated_sends_match_the_in_process_engine() {
        let reactor = Reactor::spawn().unwrap();
        let l = strict_origin(&reactor);
        let server = Server::new(ParserProfile::strict("wire"));
        let bytes: &[u8] = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello";
        let cuts: Vec<usize> = (7..bytes.len()).step_by(7).collect();
        let prefix = bytes.len() - 3;
        let outs = reactor.run(vec![
            job(&l, bytes, SendMode::Whole, None),
            job(&l, bytes, SendMode::Segmented(cuts), None),
            job(&l, bytes, SendMode::TruncateAt(prefix), None),
        ]);
        let [whole, seg, cut] = [0, 1, 2].map(|i| outs[i].as_exchange().unwrap().clone());
        assert!(!whole.timed_out && !seg.timed_out);
        assert_eq!(whole.response, seg.response, "segmentation is invisible to the reply");
        let seg_log = seg.server_log.expect("log");
        assert_eq!(seg_log.replies, server.handle_stream(bytes));
        assert!(seg_log.replies[0].interpretation.outcome.is_accept());

        // The prefix finalizes at EOF as a truncated message.
        assert!(String::from_utf8_lossy(&cut.response).starts_with("HTTP/1.1 408"), "{cut:?}");
        assert_eq!(cut.server_log.expect("log").replies, server.handle_stream(&bytes[..prefix]));
    }

    #[test]
    fn a_reject_reads_to_the_client_fin_before_closing() {
        let reactor = Reactor::spawn().unwrap();
        let l = strict_origin(&reactor);
        let head: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost : h\r\n\r\n";
        let tail: &[u8] = b"GET /c HTTP/1.1\r\nHost: h\r\n\r\n";
        let engine = Server::new(ParserProfile::strict("wire"));
        assert_eq!(engine.handle_stream(&[head, tail].concat()).len(), 2, "200, then the reject");

        // The tail goes out only after the reject's response arrived, so
        // the server has already parsed the reject when it comes.
        let mut client = TcpStream::connect(l.addr).unwrap();
        client.set_read_timeout(Some(io_timeout())).unwrap();
        client.write_all(head).unwrap();
        let mut seen = Vec::new();
        let mut chunk = [0u8; CHUNK];
        let responses = |buf: &[u8]| {
            let mut pos = 0;
            std::iter::from_fn(|| {
                let r = parse_response(&buf[pos..]).ok()?;
                pos += r.consumed;
                Some(())
            })
            .count()
        };
        while responses(&seen) < 2 {
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0, "closed before answering: {seen:?}");
            seen.extend_from_slice(&chunk[..n]);
        }
        client.write_all(tail).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        client.read_to_end(&mut rest).expect("a clean close, not a reset");
        assert!(rest.is_empty(), "nothing is answered after the reject: {rest:?}");

        let logs = reactor.take_server_logs(l.id);
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].bytes_in, head.len() + tail.len(), "every byte the client sent");
        assert_eq!(logs[0].replies.len(), 2);
        assert_eq!(logs[0].teardown, Teardown::Fin);
    }

    #[test]
    fn the_message_cap_closes_at_once() {
        let reactor = Reactor::spawn().unwrap();
        let config = NetServerConfig { max_messages: 1, ..NetServerConfig::default() };
        let l = reactor.add_origin(ParserProfile::strict("wire"), config, true).unwrap();
        let two: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        let ex = exchange(&reactor, job(&l, two, SendMode::Whole, None));
        let log = ex.server_log.as_ref().expect("log");
        assert_eq!(log.replies.len(), 1, "{log:?}");
        assert!(String::from_utf8_lossy(&ex.response).starts_with("HTTP/1.1 200"), "{ex:?}");
    }
}
