//! The one driver for both state machines: TCP sockets and wall-clock
//! time. This is the only file in the crate that names a socket, a
//! thread, a lock or a clock.
//!
//! Each side runs one loop that owns its state machine and is the only
//! writer to its sockets. Reader threads (plus an accept thread on the
//! coordinator, an executor thread on the worker) forward what arrives
//! over one `mpsc` channel; the loop turns each message into an event,
//! and a `recv_timeout` that expires becomes a `Tick`.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use strata_expt::{cell_result, render_record, CellKey, Store};

use crate::coordinator::{self, Coordinator, FleetReport, ServeOptions, MIN_LEASE};
use crate::worker::{self, WorkOptions, Worker, WorkerReport};

/// How long a loop waits for input before it ticks its state machine.
const TICK: Duration = Duration::from_millis(50);

/// Interval between coordinator progress reports.
const PROGRESS_EVERY: Duration = Duration::from_secs(5);

/// What the loop's threads forward, tagged with a connection id.
enum Input {
    Accepted(TcpStream),
    Bytes(Vec<u8>),
    Closed(String),
    Executed(u32, String),
}

/// One loop's open connections and every thread it started.
struct Sockets {
    open: HashMap<u64, Arc<TcpStream>>,
    threads: Vec<JoinHandle<()>>,
    tx: Sender<(u64, Input)>,
}

impl Sockets {
    fn new(tx: Sender<(u64, Input)>) -> Sockets {
        Sockets {
            open: HashMap::new(),
            threads: Vec::new(),
            tx,
        }
    }

    /// Adopts a connection: a thread forwards what it delivers, then why
    /// it stopped.
    fn open(&mut self, id: u64, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let stream = Arc::new(stream);
        let (reader, tx) = (Arc::clone(&stream), self.tx.clone());
        self.threads.push(thread::spawn(move || {
            let mut buf = vec![0u8; 64 * 1024];
            let why = loop {
                match (&*reader).read(&mut buf) {
                    Ok(0) => break "connection closed".to_string(),
                    Ok(n) => drop(tx.send((id, Input::Bytes(buf[..n].to_vec())))),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => break e.to_string(),
                }
            };
            let _ = tx.send((id, Input::Closed(why)));
        }));
        self.open.insert(id, stream);
    }

    /// Writes one frame; a failed write shuts the socket, so its reader
    /// reports the loss.
    fn send(&self, id: u64, bytes: &[u8]) {
        if let Some(stream) = self.open.get(&id) {
            if (&**stream).write_all(bytes).is_err() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    fn close(&mut self, id: u64) {
        if let Some(stream) = self.open.remove(&id) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Closes every connection, so its reader returns, and joins every
    /// thread.
    fn stop(mut self) {
        for (_, stream) in self.open.drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for thread in self.threads {
            thread.join().expect("fleet driver thread panicked");
        }
    }
}

/// Serves workers until every manifest cell has a result, then renders
/// the suite (see [`Coordinator::finish`]). `bound` learns the listen
/// address (useful with port 0) before any worker can connect.
///
/// # Errors
///
/// Returns an error for a selection that is no plan (see
/// [`Coordinator::new`]), an unbindable address, or a failed render.
pub fn serve(opts: ServeOptions, bound: impl FnOnce(SocketAddr)) -> Result<FleetReport, String> {
    use coordinator::{Action, Event};
    let bind = opts.bind.clone();
    let mut core = Coordinator::new(opts)?;
    let listener = TcpListener::bind(&bind).map_err(|e| format!("bind {bind}: {e}"))?;
    let wake = listener.local_addr().map_err(|e| e.to_string())?;
    bound(wake);
    let (tx, rx) = mpsc::channel();
    let accepted = tx.clone();
    let accept = thread::spawn(move || {
        for (id, stream) in (1..).zip(listener.incoming()) {
            match stream {
                Ok(stream) => {
                    if accepted.send((id, Input::Accepted(stream))).is_err() {
                        return;
                    }
                }
                // Transient accept failures (EMFILE, resets) should
                // not kill a long run; note and keep serving.
                Err(e) => {
                    eprintln!("fleet: accept: {e}");
                    thread::sleep(Duration::from_millis(100));
                }
            }
        }
    });
    let mut sockets = Sockets::new(tx);
    let start = Instant::now();
    let mut next_progress = PROGRESS_EVERY;
    let mut event = Event::Tick;
    'serve: loop {
        let now = start.elapsed();
        for action in core.on(now, event) {
            match action {
                Action::Send(id, bytes) => sockets.send(id, &bytes),
                Action::Close(id) => sockets.close(id),
                Action::Done => break 'serve,
            }
        }
        if now >= next_progress {
            if let Some(line) = core.progress_line(now) {
                eprintln!("{line}");
            }
            next_progress += PROGRESS_EVERY;
        }
        event = match rx.recv_timeout(TICK) {
            Ok((id, Input::Accepted(stream))) => {
                // A peer that stops reading cannot stall the loop for
                // longer than the shortest lease.
                let _ = stream.set_write_timeout(Some(MIN_LEASE));
                sockets.open(id, stream);
                Event::Connected(id)
            }
            Ok((id, Input::Bytes(bytes))) => Event::Bytes(id, bytes),
            Ok((id, Input::Closed(_))) => {
                sockets.close(id);
                Event::Closed(id)
            }
            Ok((_, Input::Executed(..))) | Err(_) => Event::Tick,
        };
    }
    if let Some(line) = core.progress_line(start.elapsed()) {
        eprintln!("{line}");
    }
    // The accept thread stops when a send fails: drop the channel,
    // then wake it with one last connection.
    drop(rx);
    if TcpStream::connect(wake).is_ok() {
        sockets.threads.push(accept);
    }
    sockets.stop();
    core.finish()
}

/// Runs a worker until the coordinator reports the suite finished or the
/// retry budget is exhausted. Cells execute on a thread of their own, so
/// the loop keeps heartbeating through a long cell.
///
/// # Errors
///
/// Returns an error when the coordinator stays unreachable past the
/// retry budget, or on a fatal handshake problem (manifest fingerprint
/// mismatch — a version-skewed binary must not execute cells).
pub fn work(opts: WorkOptions) -> Result<WorkerReport, String> {
    use worker::{Action, Event};
    let (tx, rx) = mpsc::channel();
    let (jobs, assigned) = mpsc::channel::<(u32, CellKey)>();
    let (store, executed) = (Store::new(opts.context.clone(), None), tx.clone());
    let mut sockets = Sockets::new(tx);
    let executor = thread::spawn(move || {
        for (index, cell) in assigned {
            let record = render_record(&cell.key_string(), &cell_result(&store, &cell));
            let _ = executed.send((0, Input::Executed(index, record)));
        }
    });
    let (address, name) = (opts.connect.clone(), opts.name.clone());
    let mut core = Worker::new(opts);
    let start = Instant::now();
    // The id of the latest connection; connections count from 1.
    let mut link = 0u64;
    // A failed connect, reported before anything else.
    let mut refused = Some(Event::Tick);
    let result = 'work: loop {
        // The executor stops early only by panicking in a cell; the lease
        // goes back to the coordinator with the connection.
        if executor.is_finished() {
            break Err(format!("{name}: a cell panicked (see above)"));
        }
        let event = match refused.take() {
            Some(event) => event,
            None => match rx.recv_timeout(TICK) {
                Ok((_, Input::Executed(index, record))) => Event::Executed { index, record },
                Ok((id, Input::Bytes(bytes))) if sockets.open.contains_key(&id) => {
                    Event::Bytes(bytes)
                }
                Ok((id, Input::Closed(why))) if sockets.open.contains_key(&id) => {
                    sockets.close(id);
                    Event::Closed(why)
                }
                // Input from a connection already given up on, or none.
                Ok(_) | Err(_) => Event::Tick,
            },
        };
        for action in core.on(start.elapsed(), event) {
            match action {
                Action::Connect => match TcpStream::connect(&address) {
                    Ok(stream) => {
                        link += 1;
                        sockets.open(link, stream);
                    }
                    Err(e) => refused = Some(Event::Closed(format!("connect {address}: {e}"))),
                },
                Action::Send(bytes) => sockets.send(link, &bytes),
                Action::Close => sockets.close(link),
                Action::Execute { index } => {
                    jobs.send((index, core.cell(index).clone()))
                        .expect("executor thread alive");
                }
                Action::Done(result) => break 'work result,
            }
        }
    };
    // The executor finishes the cell it is on, if any, and stops; a panic
    // in it is already the result.
    drop(jobs);
    sockets.stop();
    let _ = executor.join();
    result
}
