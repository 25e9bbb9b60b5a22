//! `cq-serve` — the long-lived analysis daemon.
//!
//! Speaks the newline-delimited JSON protocol of `docs/PROTOCOL.md`
//! (analyze / batch / stats / cache / metrics requests, one response
//! line each)
//! with every request routed through one process-wide warm
//! [`cq_engine::LpCache`], so repeated and structurally isomorphic
//! queries skip their LP solves entirely.
//!
//! ```text
//! cq-serve                          # serve stdin/stdout, exit on EOF
//! cq-serve --socket /run/cq.sock    # serve a Unix-domain socket
//! cq-serve --tcp 127.0.0.1:7171     # serve TCP (cq-cluster workers;
//!                                   #  port 0 picks a free port, the
//!                                   #  bound address is printed)
//! cq-serve --cache-file warm.snap   # load the LP cache on start,
//!                                   #  snapshot it on shutdown
//! cq-serve --threads 4              # cap the per-connection worker pool
//! cq-serve --no-cache               # cold runs (benchmark baseline)
//! cq-serve --trace                  # NDJSON span events on stderr
//!                                   #  (CQ_TRACE=PATH routes to a file)
//! cq-serve --metrics-file m.prom    # exposition dump on shutdown and
//!                                   #  on every `metrics` request
//! cq-serve --slow-ms 50             # log span trees of slow requests
//! ```
//!
//! In socket/TCP mode each accepted connection gets its own thread over
//! the shared engine; SIGTERM and SIGINT (or EOF on stdin in pipe mode)
//! shut the daemon down identically and gracefully — in-flight requests
//! drain, the Unix socket file is unlinked, the cache is snapshotted to
//! `--cache-file` if one is configured, and the exit code is 0. A
//! client disconnecting mid-stream only ends that connection; the
//! daemon keeps serving.

use cq_engine::ServeEngine;
use std::collections::HashMap;
use std::io::{self, Read, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn request_shutdown(_signal: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs [`request_shutdown`] for SIGINT (2) and SIGTERM (15) via the
/// C `signal` entry point — the offline build has no `libc` crate, but
/// std already links the platform libc that provides it. Both signals
/// share one handler on purpose: Ctrl-C and a supervisor's TERM must
/// take the same drain/unlink/snapshot path.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    #[allow(clippy::fn_to_numeric_cast_any)]
    let handler = request_shutdown as *const () as usize;
    unsafe {
        signal(2, handler); // SIGINT
        signal(15, handler); // SIGTERM
    }
}

const USAGE: &str = "usage: cq-serve [--socket PATH | --tcp HOST:PORT] [--threads N] \
                     [--no-cache] [--cache-file PATH] [--trace] [--metrics-file PATH] \
                     [--slow-ms N]";

struct Args {
    socket: Option<String>,
    tcp: Option<String>,
    threads: Option<usize>,
    no_cache: bool,
    cache_file: Option<String>,
    trace: bool,
    metrics_file: Option<String>,
    slow_ms: Option<u64>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--version") {
        println!("cq-serve {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // Install the trace sink before the engine exists so bring-up spans
    // (cache loading, first requests) are captured too.
    match cq_telemetry::init_tracing(args.trace) {
        Ok(_) => {}
        Err(e) => {
            eprintln!("cq-serve: cannot open trace sink: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut engine = ServeEngine::new();
    if let Some(threads) = args.threads {
        engine = engine.with_workers(threads);
    }
    if args.no_cache {
        engine = engine.without_cache();
    }
    if args.tcp.is_some() {
        // TCP peers are unauthenticated: `cache` requests may use the
        // operator's --cache-file but not name their own paths.
        engine = engine.restrict_cache_paths();
    }
    if let Some(path) = &args.cache_file {
        match engine.with_cache_file(path) {
            Ok((loaded, n)) => {
                engine = loaded;
                if n > 0 {
                    eprintln!("cq-serve: loaded {n} cache entries from {path}");
                }
            }
            Err(e) => {
                eprintln!("cq-serve: cannot load --cache-file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.metrics_file {
        engine = engine.with_metrics_file(path);
    }
    if let Some(ms) = args.slow_ms {
        engine = engine.with_slow_millis(ms);
    }
    install_signal_handlers();

    let served = match (&args.socket, &args.tcp) {
        (None, None) => serve_stdio(&engine),
        (Some(path), None) => serve_socket(&engine, path),
        (None, Some(addr)) => serve_tcp(&engine, addr),
        (Some(_), Some(_)) => unreachable!("rejected by parse_args"),
    };
    // Every graceful exit path persists the warm cache (EOF, SIGINT and
    // SIGTERM alike); failures to write are reported but do not turn a
    // clean shutdown into a dirty one retroactively.
    if let Some(result) = engine.snapshot_to_cache_file() {
        match result {
            Ok(entries) => eprintln!(
                "cq-serve: snapshot {entries} cache entries to {}",
                args.cache_file.as_deref().unwrap_or("?")
            ),
            Err(e) => eprintln!("cq-serve: cache snapshot failed: {e}"),
        }
    }
    // The final metrics dump rides the same graceful-exit path: after
    // the serve loop returns, every in-flight request has drained, so
    // the exposition file includes them.
    if let Some(result) = engine.dump_metrics_file() {
        match result {
            Ok(()) => eprintln!(
                "cq-serve: metrics written to {}",
                args.metrics_file.as_deref().unwrap_or("?")
            ),
            Err(e) => eprintln!("cq-serve: metrics dump failed: {e}"),
        }
    }
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cq-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Adapts stdin for the shutdown flag: a pump thread does the blocking
/// reads (a process-directed SIGTERM may land on any thread, so a read
/// blocked on a pipe cannot be counted on to wake), while this end
/// polls the channel and turns `SHUTDOWN` into EOF — after which the
/// engine drains in-flight requests and the daemon exits cleanly, even
/// though the pump may still be parked in `read`.
struct StdinPump {
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl StdinPump {
    fn spawn() -> StdinPump {
        let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(4);
        std::thread::spawn(move || {
            let mut stdin = io::stdin().lock();
            let mut chunk = [0u8; 8192];
            loop {
                match stdin.read(&mut chunk) {
                    Ok(0) | Err(_) => break, // EOF: drop tx, reader sees EOF
                    Ok(n) => {
                        if tx.send(chunk[..n].to_vec()).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        StdinPump {
            rx,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Read for StdinPump {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos >= self.buf.len() {
            if SHUTDOWN.load(Ordering::SeqCst) {
                return Ok(0); // signal received: present EOF, drain, exit
            }
            match self.rx.recv_timeout(Duration::from_millis(25)) {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Pipe mode: one connection on stdin/stdout; EOF or SIGTERM/SIGINT
/// ends the daemon (in-flight requests drain either way).
fn serve_stdio(engine: &ServeEngine) -> io::Result<()> {
    // Not the stdout lock: StdoutLock is !Send, and a pool worker may
    // write a response. Each response is flushed explicitly.
    let stdout = io::stdout();
    engine.serve_connection(StdinPump::spawn(), stdout)
}

/// What the generic accept loop needs from a connection-oriented
/// transport: nonblocking accept, fd-sharing clones (reader/writer
/// halves and the shutdown registry), and a read-side half-close (the
/// shutdown nudge for threads parked in `read_line`).
trait ServeListener {
    type Stream: Read + io::Write + Send;
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    fn accept_stream(&self) -> io::Result<Self::Stream>;
    fn try_clone_stream(stream: &Self::Stream) -> io::Result<Self::Stream>;
    fn shutdown_read(stream: &Self::Stream);
}

impl ServeListener for UnixListener {
    type Stream = UnixStream;
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixListener::set_nonblocking(self, nonblocking)
    }
    fn accept_stream(&self) -> io::Result<UnixStream> {
        self.accept().map(|(stream, _addr)| stream)
    }
    fn try_clone_stream(stream: &UnixStream) -> io::Result<UnixStream> {
        stream.try_clone()
    }
    fn shutdown_read(stream: &UnixStream) {
        let _ = stream.shutdown(Shutdown::Read);
    }
}

impl ServeListener for TcpListener {
    type Stream = TcpStream;
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpListener::set_nonblocking(self, nonblocking)
    }
    fn accept_stream(&self) -> io::Result<TcpStream> {
        self.accept().map(|(stream, _addr)| stream)
    }
    fn try_clone_stream(stream: &TcpStream) -> io::Result<TcpStream> {
        stream.try_clone()
    }
    fn shutdown_read(stream: &TcpStream) {
        let _ = stream.shutdown(Shutdown::Read);
    }
}

/// Socket mode: accept until SIGTERM/SIGINT, one thread per connection
/// over the shared engine, unlink the socket on the way out.
fn serve_socket(engine: &ServeEngine, path: &str) -> io::Result<()> {
    // A previous daemon instance that was SIGKILLed leaves a stale
    // socket file behind; binding over it needs the unlink first. A
    // *live* daemon on the same path is indistinguishable here — the
    // deployment owns the pathname either way.
    if std::fs::metadata(path).is_ok() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    eprintln!("cq-serve: listening on {path}");
    let result = serve_listener(engine, &listener);
    let _ = std::fs::remove_file(path);
    eprintln!("cq-serve: shut down");
    result
}

/// TCP mode: the same accept loop over an internet socket — the
/// transport `cq-cluster` workers speak. The *actual* bound address is
/// printed (so `--tcp 127.0.0.1:0` both works and is discoverable:
/// spawners read the port from this line).
fn serve_tcp(engine: &ServeEngine, addr: &str) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("cq-serve: listening on {}", listener.local_addr()?);
    let result = serve_listener(engine, &listener);
    eprintln!("cq-serve: shut down");
    result
}

/// The accept loop shared by the Unix and TCP transports: poll accept
/// until a shutdown signal, one thread per connection over the shared
/// engine, half-close every resident connection on the way out so the
/// scope join drains in-flight work instead of hanging on blocked
/// readers.
fn serve_listener<L: ServeListener>(engine: &ServeEngine, listener: &L) -> io::Result<()> {
    listener.set_nonblocking(true)?; // poll so shutdown is observed

    // Live-connection registry: on shutdown, half-close (read side)
    // every resident connection so its thread — likely parked in
    // read_line — sees EOF, drains its in-flight requests, flushes the
    // responses, and exits.
    let connections: Mutex<HashMap<u64, L::Stream>> = Mutex::new(HashMap::new());
    let mut next_id: u64 = 0;

    std::thread::scope(|scope| -> io::Result<()> {
        while !SHUTDOWN.load(Ordering::SeqCst) {
            match listener.accept_stream() {
                Ok(stream) => {
                    // Accepted sockets are blocking (O_NONBLOCK does not
                    // inherit through accept on Linux).
                    let id = next_id;
                    next_id += 1;
                    if let Ok(clone) = L::try_clone_stream(&stream) {
                        connections.lock().expect("registry").insert(id, clone);
                    }
                    let connections = &connections;
                    scope.spawn(move || {
                        let mut writer = stream;
                        match L::try_clone_stream(&writer) {
                            Ok(read_half) => {
                                if let Err(e) = engine.serve_connection(read_half, &mut writer) {
                                    // The peer vanished mid-response; their loss.
                                    eprintln!("cq-serve: connection ended: {e}");
                                }
                                let _ = writer.flush();
                            }
                            Err(e) => eprintln!("cq-serve: cannot clone connection: {e}"),
                        }
                        connections.lock().expect("registry").remove(&id);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for stream in connections.lock().expect("registry").values() {
            L::shutdown_read(stream);
        }
        Ok(())
        // Scope exit joins the connection threads: in-flight requests
        // drain before the daemon reports a clean shutdown.
    })
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut socket = None;
    let mut tcp = None;
    let mut threads = None;
    let mut no_cache = false;
    let mut cache_file = None;
    let mut trace = false;
    let mut metrics_file = None;
    let mut slow_ms = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                i += 1;
                socket = Some(args.get(i).ok_or("--socket needs a path")?.to_string());
            }
            "--tcp" => {
                i += 1;
                tcp = Some(args.get(i).ok_or("--tcp needs HOST:PORT")?.to_string());
            }
            "--threads" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?;
                if n == 0 {
                    return Err("--threads needs N >= 1".to_string());
                }
                threads = Some(n);
            }
            "--no-cache" => no_cache = true,
            "--cache-file" => {
                i += 1;
                cache_file = Some(args.get(i).ok_or("--cache-file needs a path")?.to_string());
            }
            "--trace" => trace = true,
            "--metrics-file" => {
                i += 1;
                metrics_file = Some(
                    args.get(i)
                        .ok_or("--metrics-file needs a path")?
                        .to_string(),
                );
            }
            "--slow-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .ok_or("--slow-ms needs a value")?
                    .parse()
                    .map_err(|_| "--slow-ms needs an integer".to_string())?;
                slow_ms = Some(ms);
            }
            other => return Err(format!("unexpected argument {other}")),
        }
        i += 1;
    }
    if socket.is_some() && tcp.is_some() {
        return Err("--socket and --tcp are mutually exclusive (one transport per daemon)".into());
    }
    if no_cache && cache_file.is_some() {
        return Err("--cache-file needs the cache; drop --no-cache".to_string());
    }
    Ok(Args {
        socket,
        tcp,
        threads,
        no_cache,
        cache_file,
        trace,
        metrics_file,
        slow_ms,
    })
}
