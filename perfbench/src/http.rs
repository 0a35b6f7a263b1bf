//! A small HTTP/1.1 client for `tersoff-serve`, and the closed loop that
//! submits the served workload's jobs.

use crate::gen::Rng;
use crate::trace::Tracer;
use lammps_tersoff_vector::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest the client waits on one socket read.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A complete response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Read the status line and headers; returns the status and whether the
/// body is chunked.
fn read_head(reader: &mut impl BufRead) -> std::io::Result<(u16, bool)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut chunked = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
            chunked = true;
        }
    }
    Ok((status, chunked))
}

/// Read one chunk of a chunked body; `None` at the terminating chunk.
fn read_chunk(reader: &mut impl BufRead) -> std::io::Result<Option<Vec<u8>>> {
    let mut size_line = String::new();
    if reader.read_line(&mut size_line)? == 0 {
        return Err(bad("stream ended inside a chunked body"));
    }
    let size = usize::from_str_radix(size_line.trim(), 16)
        .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
    let mut data = vec![0; size + 2];
    reader.read_exact(&mut data)?;
    data.truncate(size);
    Ok((size > 0).then_some(data))
}

/// One request on a fresh connection (the server closes after each reply).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = connect(addr)?;
    send(&mut stream, method, path, body)?;
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_head(&mut reader)?;
    let mut bytes = Vec::new();
    if chunked {
        while let Some(chunk) = read_chunk(&mut reader)? {
            bytes.extend_from_slice(&chunk);
        }
    } else {
        reader.read_to_end(&mut bytes)?;
    }
    let body = String::from_utf8(bytes).map_err(|_| bad("reply is not UTF-8"))?;
    Ok(Reply { status, body })
}

/// When the job's events arrived, read off its NDJSON stream.
struct EventTimes {
    started: Option<Instant>,
    terminal: Instant,
}

/// Follow `/v1/jobs/{id}/events` until a terminal event. Events already
/// logged arrive together in the first chunk.
fn follow_events(addr: SocketAddr, id: u64) -> std::io::Result<EventTimes> {
    let mut stream = connect(addr)?;
    send(&mut stream, "GET", &format!("/v1/jobs/{id}/events"), "")?;
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_head(&mut reader)?;
    if status != 200 || !chunked {
        return Err(bad(format!("event stream answered {status}")));
    }
    let mut started = None;
    let mut pending = Vec::new();
    while let Some(chunk) = read_chunk(&mut reader)? {
        let now = Instant::now();
        pending.extend_from_slice(&chunk);
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=pos).collect();
            let event =
                json::parse(std::str::from_utf8(&line).map_err(|_| bad("event not UTF-8"))?)
                    .map_err(bad)?;
            match event.get("event").and_then(Json::as_str) {
                Some("started") => started = Some(now),
                Some("finished" | "faulted" | "cancelled") => {
                    return Ok(EventTimes {
                        started,
                        terminal: now,
                    })
                }
                _ => {}
            }
        }
    }
    Err(bad("event stream ended before a terminal event"))
}

/// What one served job came to.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Index of the job in the job list.
    pub index: usize,
    pub result: Result<JobTimes, String>,
}

/// Timings and output of a job that completed with status `ok`.
#[derive(Clone, Debug)]
pub struct JobTimes {
    /// POST sent → result fetched.
    pub latency: Duration,
    pub submit_rtt: Duration,
    pub result_rtt: Duration,
    /// Arrival of the `started` event minus the 202 receipt; includes the
    /// wait for the event stream's connection to be accepted.
    pub queue_wait: Duration,
    /// The engine's own run time from the report: seconds per step × steps.
    pub run_s: f64,
    /// Result fetches answered before the job's status turned terminal.
    pub early_fetches: u32,
    pub final_energy_bits: String,
}

/// Submit one scenario, wait for its terminal event and fetch its result.
/// Any reply other than 202 on submit, or a status other than `ok`, fails
/// the job.
pub fn run_job(
    addr: SocketAddr,
    spec: &str,
    group: u64,
    tracer: &mut Tracer,
) -> Result<JobTimes, String> {
    let t0 = Instant::now();
    let submitted = tracer
        .span("server.submit", group, |_| {
            request(addr, "POST", "/v1/jobs", spec)
        })
        .map_err(|e| format!("submit: {e}"))?;
    let accepted = Instant::now();
    if submitted.status != 202 {
        return Err(format!(
            "submit answered {}: {}",
            submitted.status,
            submitted.body.trim()
        ));
    }
    let id = json::parse(&submitted.body)
        .ok()
        .and_then(|j| j.get("jobs")?.as_arr()?.first()?.get("id")?.as_u64())
        .ok_or_else(|| format!("202 without a job id: {}", submitted.body))?;
    let events = tracer
        .span("server.events", group, |_| follow_events(addr, id))
        .map_err(|e| format!("events of job {id}: {e}"))?;
    let t_result = Instant::now();
    // The terminal event can reach the stream a moment before the job's
    // status turns terminal; fetch until it has (counted in `early_fetches`).
    let mut early_fetches = 0;
    let (parsed, done) = loop {
        let reply = tracer
            .span("server.result", group, |_| {
                request(addr, "GET", &format!("/v1/jobs/{id}"), "")
            })
            .map_err(|e| format!("result of job {id}: {e}"))?;
        if reply.status != 200 {
            return Err(format!("result of job {id} answered {}", reply.status));
        }
        let parsed = json::parse(&reply.body).map_err(|e| format!("result of job {id}: {e}"))?;
        if matches!(parsed.get("done"), Some(Json::Bool(true))) {
            break (parsed, Instant::now());
        }
        early_fetches += 1;
        if t_result.elapsed() > IO_TIMEOUT {
            return Err(format!(
                "job {id} never turned terminal after its terminal event"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let result = parsed.get("result");
    let status = result.and_then(|r| r.get("status")).and_then(Json::as_str);
    if status != Some("ok") {
        return Err(format!("job {id} ended with status {status:?}"));
    }
    let field = |key: &str| result.and_then(|r| r.get(key));
    let bits = field("final_total_energy_bits")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("job {id} result has no final_total_energy_bits"))?;
    let run_s = field("seconds_per_step")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
        * parsed
            .get("steps")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
    let started = events.started.unwrap_or(events.terminal);
    Ok(JobTimes {
        latency: done - t0,
        submit_rtt: accepted - t0,
        result_rtt: done - t_result,
        queue_wait: started.saturating_duration_since(accepted),
        run_s,
        early_fetches,
        final_energy_bits: bits.to_string(),
    })
}

/// Outcome of a closed-loop run.
pub struct LoopResult {
    pub outcomes: Vec<JobOutcome>,
    /// First submit to last completion.
    pub elapsed: Duration,
    pub spans: Vec<Vec<crate::trace::Span>>,
}

impl LoopResult {
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_err()).count()
    }
}

/// How a closed loop runs.
pub struct LoopConfig {
    pub connections: usize,
    /// No client starts a job after this instant.
    pub deadline: Instant,
    /// Each client waits a seeded uniform time in `[0, think)` before each
    /// submission.
    pub think: Duration,
    pub seed: u64,
    pub trace: bool,
    pub epoch: Instant,
}

/// Drive `jobs` through closed-loop clients: each client submits the next
/// job only after its previous one is fetched. Every job that was attempted
/// is kept, failed or not, and the attempted jobs are a prefix of `jobs`.
pub fn closed_loop(addr: SocketAddr, jobs: &[String], cfg: &LoopConfig) -> LoopResult {
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::new());
    let start = Instant::now();
    let spans = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.connections)
            .map(|client| {
                let (next, outcomes) = (&next, &outcomes);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(cfg.trace, cfg.epoch);
                    let mut rng = Rng::new(cfg.seed.wrapping_add(client as u64));
                    let think_us = cfg.think.as_micros() as usize;
                    while Instant::now() < cfg.deadline {
                        if think_us > 0 {
                            std::thread::sleep(Duration::from_micros(rng.below(think_us) as u64));
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = jobs.get(index) else { break };
                        let result = tracer.span("bench.job", index as u64, |t| {
                            run_job(addr, spec, index as u64, t)
                        });
                        outcomes
                            .lock()
                            .expect("a client thread panicked while recording")
                            .push(JobOutcome { index, result });
                    }
                    tracer.into_spans()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut outcomes = outcomes
        .into_inner()
        .expect("a client thread panicked while recording");
    outcomes.sort_by_key(|o| o.index);
    LoopResult {
        outcomes,
        elapsed,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Read a whole request (headers and `Content-Length` body), so closing
    /// the socket afterwards cannot reset the connection under the reply.
    fn read_request(stream: &mut TcpStream) {
        let mut reader = BufReader::new(stream);
        let mut length = 0;
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                length = v.trim().parse().unwrap();
            }
            line.clear();
        }
        reader.read_exact(&mut vec![0; length]).unwrap();
    }

    /// A stand-in server answering every request with `status`.
    fn fake_server(status: u16, requests: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for _ in 0..requests {
                let (mut stream, _) = listener.accept().unwrap();
                read_request(&mut stream);
                let body = "{\"error\":\"no\"}";
                let reply = format!(
                    "HTTP/1.1 {status} X\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                stream.write_all(reply.as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn closed_loop_counts_refused_submissions_as_failures() {
        for status in [400, 429, 503] {
            let (addr, server) = fake_server(status, 3);
            let jobs = vec!["{}".to_string(); 3];
            let cfg = LoopConfig {
                connections: 1,
                deadline: Instant::now() + Duration::from_secs(60),
                think: Duration::ZERO,
                seed: 0,
                trace: false,
                epoch: Instant::now(),
            };
            let result = closed_loop(addr, &jobs, &cfg);
            server.join().unwrap();
            assert_eq!(result.outcomes.len(), 3);
            assert_eq!(result.failed(), 3, "status {status}");
            let err = result.outcomes[0].result.as_ref().unwrap_err();
            assert!(err.contains(&status.to_string()), "{err}");
        }
    }

    #[test]
    fn reads_chunked_bodies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream);
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n")
                .unwrap();
        });
        let reply = request(addr, "GET", "/x", "").unwrap();
        server.join().unwrap();
        assert_eq!((reply.status, reply.body.as_str()), (200, "abcde"));
    }
}
