//! The deployed server as a child process, and the wire clients.
//!
//! The server is `litsearch serve --workers 2 --deadline-ms 1000` with
//! every other flag at its deployed default (shedding on, telemetry
//! on); see [`SERVER_DEADLINE_MS`].
//!
//! One client thread keeps the keep-alive connections. In the open loop
//! ([`drive`]) it sends each request when it is due, pipelining behind
//! any request still in flight; latency is timed from when the request
//! was due, so a stall also charges the requests queued behind it. In
//! the closed loop ([`drive_closed`]) each connection sends its next
//! request when its answer arrives, so the server never waits idle for
//! work.

use crate::check::wire_ok;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Server worker threads (the reference box's core count).
pub const SERVER_WORKERS: usize = 2;

/// The server's per-request deadline, ms, in place of the deployed
/// 50 ms. The reference box is a VM on a shared host, which now and
/// then stalls the guest for 45–50 ms; with a 50 ms deadline a request
/// in flight during such a stall is shed with a 429, and one run in
/// about thirty failed that way. With 1 s the admission code still
/// stamps every deadline and checks every budget against its cost
/// estimate; only a stall of a second would shed.
pub const SERVER_DEADLINE_MS: u64 = 1000;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

const SIGTERM: i32 = 15;
const POLLIN: i16 = 1;

/// `struct pollfd` (Linux).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` (Linux, 64-bit).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Wait until any of `streams` is readable or `wait_ns` has passed;
/// returns which are readable. Socket receive timeouts round up to
/// scheduler ticks (milliseconds), which would make the generator late;
/// `ppoll` sleeps on a high-resolution timer.
fn wait_readable(streams: &[TcpStream], wait_ns: u64) -> Vec<bool> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: (wait_ns / 1_000_000_000) as i64,
        tv_nsec: (wait_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` holds `fds.len()` live, properly laid out `pollfd`
    // values and `timeout` a live `timespec` for the duration of the
    // call; a null signal mask leaves the mask unchanged.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        )
    };
    fds.iter().map(|f| ready > 0 && f.revents != 0).collect()
}

/// A running `litsearch serve` child. Dropping it kills the child.
pub struct Server {
    child: Option<Child>,
    port: u16,
}

impl Server {
    /// Start the server on `snapshot` and wait until `/healthz` answers.
    pub fn start(litsearch: &Path, snapshot: &Path, work: &Path) -> Result<Self, String> {
        let port_file = work.join("port");
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(work.join("server.log"))
            .map_err(|e| format!("cannot create server log: {e}"))?;
        let child = Command::new(litsearch)
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--port", "0", "--workers", &SERVER_WORKERS.to_string()])
            .args(["--deadline-ms", &SERVER_DEADLINE_MS.to_string()])
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", litsearch.display()))?;
        let mut server = Self {
            child: Some(child),
            port: 0,
        };
        let give_up = Instant::now() + Duration::from_secs(60);
        while server.port == 0 {
            if let Some(status) = server.try_wait()? {
                return Err(format!("server exited during start-up: {status}"));
            }
            if Instant::now() > give_up {
                return Err("server did not write its port file within 60 s".into());
            }
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                server.port = text.trim().parse().unwrap_or(0);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        loop {
            if matches!(server.get("/healthz"), Ok((200, _))) {
                return Ok(server);
            }
            if Instant::now() > give_up {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn try_wait(&mut self) -> Result<Option<std::process::ExitStatus>, String> {
        match self.child.as_mut() {
            Some(c) => c.try_wait().map_err(|e| e.to_string()),
            None => Ok(None),
        }
    }

    /// The listening port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// One `GET` on a fresh connection: (status, body).
    pub fn get(&self, path: &str) -> Result<(u16, Vec<u8>), String> {
        let mut stream = TcpStream::connect(("127.0.0.1", self.port)).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
        stream
            .write_all(request.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        let mut chunk = [0u8; 65536];
        loop {
            if let Some((status, body, end)) = parse_response(&buf) {
                return Ok((status, buf[body..end].to_vec()));
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Err(format!("connection closed before the {path} response")),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("{path}: {e}")),
            }
        }
    }

    /// Drain the server with SIGTERM and wait for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
        // SAFETY: `kill` only sends a signal; `pid` is our own child,
        // which has not been reaped yet, so the id cannot be reused.
        unsafe { kill(pid, SIGTERM) };
        let give_up = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < give_up => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not drain within 20 s".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Parse one response at the start of `buf`: (status, body start, end).
pub fn parse_response(buf: &[u8]) -> Option<(u16, usize, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok()?;
            }
        }
    }
    let body = head_end + 4;
    (buf.len() >= body + length).then_some((status, body, body + length))
}

/// A `POST /v1/search` request with a JSON body.
pub fn search_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/search HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    /// When it is due, ns after the phase start.
    pub due_ns: u64,
    /// Index of its request bytes and expected body.
    pub item: usize,
    /// Connection it is sent on.
    pub conn: usize,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Sent at, ns after the phase start (`None`: never sent).
    pub sent_ns: Option<u64>,
    /// Answered at, ns after the phase start (`None`: no answer).
    pub recv_ns: Option<u64>,
    /// HTTP status, 0 without an answer.
    pub status: u16,
    /// Status 200 and the expected body.
    pub ok: bool,
}

/// How long after the last due time the client waits for answers.
const ANSWER_GRACE: Duration = Duration::from_secs(5);

/// Drive `connections` keep-alive connections from this one thread
/// through `schedule` (ascending due times), starting at `start`. A
/// request is written when due, pipelined behind any still in flight
/// on its connection; answers arrive in order per connection.
pub fn drive(
    port: u16,
    connections: usize,
    start: Instant,
    schedule: &[Scheduled],
    requests: &[Vec<u8>],
    expected: &[String],
) -> Vec<Outcome> {
    let mut out = vec![Outcome::default(); schedule.len()];
    let mut streams = Vec::new();
    for _ in 0..connections {
        let Ok(stream) = TcpStream::connect(("127.0.0.1", port)) else {
            return out;
        };
        let _ = stream.set_nodelay(true);
        streams.push(stream);
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only changes
    // this thread's timer slack (default 50 µs, which would make every
    // timed wake-up that late).
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
    let last_due = schedule.last().map_or(0, |s| s.due_ns);
    let give_up_ns = last_due + ANSWER_GRACE.as_nanos() as u64;
    let mut in_flight: Vec<VecDeque<usize>> = vec![VecDeque::new(); connections];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(1 << 16); connections];
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0;
    let mut answered = 0;
    let elapsed = || start.elapsed().as_nanos() as u64;
    while answered < schedule.len() {
        let mut now = elapsed();
        while next < schedule.len() && schedule[next].due_ns <= now {
            let s = schedule[next];
            if streams[s.conn].write_all(&requests[s.item]).is_err() {
                return out;
            }
            out[next].sent_ns = Some(elapsed());
            in_flight[s.conn].push_back(next);
            next += 1;
            now = elapsed();
        }
        if now > give_up_ns {
            return out;
        }
        let wait_ns = match schedule.get(next) {
            Some(s) => s.due_ns.saturating_sub(now),
            None => 50_000_000,
        };
        if wait_ns == 0 {
            continue;
        }
        for (c, readable) in wait_readable(&streams, wait_ns).into_iter().enumerate() {
            if !readable {
                continue;
            }
            let n = match streams[c].read(&mut chunk) {
                Ok(0) => return out,
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    continue
                }
                Err(_) => return out,
            };
            let at = elapsed();
            let buf = &mut bufs[c];
            buf.extend_from_slice(&chunk[..n]);
            let mut used = 0;
            while let Some((status, body, end)) = parse_response(&buf[used..]) {
                let Some(i) = in_flight[c].pop_front() else {
                    return out;
                };
                let body = &buf[used + body..used + end];
                out[i].recv_ns = Some(at);
                out[i].status = status;
                out[i].ok = wire_ok(status, body, &expected[schedule[i].item]);
                used += end;
                answered += 1;
            }
            buf.drain(..used);
        }
    }
    out
}

/// Drive `connections` keep-alive connections from this one thread in
/// a closed loop through `items` (indexes into `requests` and
/// `expected`), in order: each connection sends its next request as
/// soon as its previous answer has arrived. Returns what happened to
/// each request, with times in ns after the start, and the seconds
/// taken. If no answer arrives for [`ANSWER_GRACE`], the requests not
/// yet answered stay failed.
pub fn drive_closed(
    port: u16,
    connections: usize,
    items: &[usize],
    requests: &[Vec<u8>],
    expected: &[String],
) -> (Vec<Outcome>, f64) {
    let mut out = vec![Outcome::default(); items.len()];
    let mut streams = Vec::new();
    for _ in 0..connections {
        let Ok(stream) = TcpStream::connect(("127.0.0.1", port)) else {
            return (out, 0.0);
        };
        let _ = stream.set_nodelay(true);
        streams.push(stream);
    }
    let start = Instant::now();
    let elapsed = || start.elapsed().as_nanos() as u64;
    let mut in_flight: Vec<Option<usize>> = vec![None; connections];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(1 << 16); connections];
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0;
    let mut answered = 0;
    'run: while answered < items.len() {
        for (c, stream) in streams.iter_mut().enumerate() {
            if in_flight[c].is_none() && next < items.len() {
                if stream.write_all(&requests[items[next]]).is_err() {
                    break 'run;
                }
                out[next].sent_ns = Some(elapsed());
                in_flight[c] = Some(next);
                next += 1;
            }
        }
        let ready = wait_readable(&streams, ANSWER_GRACE.as_nanos() as u64);
        if !ready.contains(&true) {
            break;
        }
        for (c, readable) in ready.into_iter().enumerate() {
            if !readable {
                continue;
            }
            let n = match streams[c].read(&mut chunk) {
                Ok(0) => break 'run,
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    continue
                }
                Err(_) => break 'run,
            };
            let at = elapsed();
            let buf = &mut bufs[c];
            buf.extend_from_slice(&chunk[..n]);
            if let Some((status, body, end)) = parse_response(buf) {
                let Some(i) = in_flight[c].take() else {
                    break 'run;
                };
                out[i].recv_ns = Some(at);
                out[i].status = status;
                out[i].ok = wire_ok(status, &buf[body..end], &expected[items[i]]);
                buf.drain(..end);
                answered += 1;
            }
        }
    }
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_only_when_complete() {
        let full = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\n{}HTTP/1.1 429";
        let (status, body, end) = parse_response(full).unwrap();
        assert_eq!(status, 200);
        assert_eq!(&full[body..end], b"{}");
        assert!(parse_response(&full[..end - 1]).is_none());
        assert!(parse_response(&full[end..]).is_none());
    }
}
