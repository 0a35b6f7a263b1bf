//! The served workload: `tersoff-serve --jobs 1` on loopback, driven by a
//! closed loop of two client connections.

use crate::http::{self, closed_loop, JobTimes, LoopConfig, LoopResult};
use crate::md::{MIN_SETUPS, SETUP_WINDOW};
use crate::stats::median;
use lammps_tersoff_vector::scenario::{Scenario, ScenarioReport};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Client connections of the closed loop.
pub const CONNECTIONS: usize = 2;

/// Upper end of the clients' think time. The server accepts connections on
/// a 25 ms poll; waiting a uniform time over one such period before each
/// submission spreads arrivals over the poll's phase instead of locking
/// every request to it, which would quantize latency in 25 ms steps.
pub const THINK: Duration = Duration::from_millis(25);

/// Longest a spawned server may take to answer `/healthz` or to exit.
const SERVER_DEADLINE: Duration = Duration::from_secs(30);

/// The server binary, built next to this one.
pub fn server_exe() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.with_file_name(format!("tersoff-serve{}", std::env::consts::EXE_SUFFIX))
}

/// A running `tersoff-serve` child process.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn the server on a free loopback port; returns it with the time
    /// from spawn until it announces its bound address. A `/healthz` 200
    /// then confirms it serves; that round trip is left out of the time,
    /// because it depends on the phase of the server's 25 ms accept poll.
    pub fn spawn(exe: &Path) -> Result<(ServerProc, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0", "--jobs", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout.read_line(&mut line).ok().and_then(|_| {
            line.trim()
                .rsplit("http://")
                .next()?
                .parse::<SocketAddr>()
                .ok()
        });
        let ready = t0.elapsed();
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not announce its address: {line:?}"));
        };
        let mut server = ServerProc {
            child,
            _stdout: stdout,
            addr,
        };
        loop {
            if matches!(http::request(addr, "GET", "/healthz", ""), Ok(r) if r.status == 200) {
                return Ok((server, ready));
            }
            if t0.elapsed() > SERVER_DEADLINE {
                server.kill();
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Ask for a graceful drain and wait for the process to exit; kill it
    /// if it does not within the deadline.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = http::request(self.addr, "POST", "/v1/shutdown", "");
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if t0.elapsed() < SERVER_DEADLINE => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("server did not drain in time".into());
                }
            }
        }
    }
}

/// Spawn the server repeatedly (as often as an MD set-up repeats, see
/// [`MIN_SETUPS`]) and keep the last one running. Returns the median time
/// to ready, the number of spawns and the server.
pub fn set_up(exe: &Path) -> Result<(f64, usize, ServerProc), String> {
    let mut times = Vec::new();
    let mut last = None;
    let window = Instant::now();
    while times.len() < MIN_SETUPS || window.elapsed() < SETUP_WINDOW {
        if let Some(previous) = last.take() {
            ServerProc::shutdown(previous)?;
        }
        let (server, setup) = ServerProc::spawn(exe)?;
        times.push(setup.as_secs_f64());
        last = Some(server);
    }
    Ok((
        median(&times),
        times.len(),
        last.expect("at least one spawn"),
    ))
}

/// Run every distinct spec in-process (untimed) and return its report.
pub fn reference_reports<'a>(
    specs: impl Iterator<Item = &'a str>,
) -> BTreeMap<&'a str, Result<ScenarioReport, String>> {
    let mut out = BTreeMap::new();
    for spec in specs {
        out.entry(spec).or_insert_with(|| {
            Scenario::from_json(spec)
                .map_err(|e| e.to_string())
                .and_then(|s| s.execute(None).map_err(|e| e.to_string()))
        });
    }
    out
}

/// Final total-energy bits of a one-variant report, as the server prints them.
pub fn energy_bits(report: &ScenarioReport) -> Option<String> {
    let run = report.variants.first()?.report.as_ref()?;
    Some(format!("{:016x}", run.final_thermo.total.to_bits()))
}

/// Check every job that completed against the in-process run of its spec.
/// A mismatch turns the job into a failure. Returns the reference reports.
pub fn check_against_references<'a>(
    result: &mut LoopResult,
    specs: &'a [String],
) -> BTreeMap<&'a str, Result<ScenarioReport, String>> {
    let references = reference_reports(
        result
            .outcomes
            .iter()
            .filter(|o| o.result.is_ok())
            .map(|o| specs[o.index].as_str()),
    );
    for outcome in &mut result.outcomes {
        let Ok(times) = &outcome.result else { continue };
        let expected = match &references[specs[outcome.index].as_str()] {
            Ok(report) => energy_bits(report),
            Err(e) => {
                outcome.result = Err(format!("in-process reference failed: {e}"));
                continue;
            }
        };
        if expected.as_deref() != Some(times.final_energy_bits.as_str()) {
            outcome.result = Err(format!(
                "job {} final energy bits {} != in-process {:?}",
                outcome.index, times.final_energy_bits, expected
            ));
        }
    }
    references
}

/// The completed jobs of a loop.
pub fn ok_times(result: &LoopResult) -> Vec<(usize, &JobTimes)> {
    result
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok().map(|t| (o.index, t)))
        .collect()
}

/// Engine cache counters scraped from `/metrics`: (hits, misses).
pub fn cache_counters(addr: SocketAddr) -> Option<(f64, f64)> {
    let text = http::request(addr, "GET", "/metrics", "").ok()?.body;
    let value = |name: &str| -> Option<f64> {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
    };
    Some((
        value("tersoff_cache_hits_total")?,
        value("tersoff_cache_misses_total")?,
    ))
}

/// Median `/healthz` round trip (ms) over `n` requests.
pub fn healthz_rtt_ms(addr: SocketAddr, n: usize) -> f64 {
    let samples: Vec<f64> = (0..n)
        .filter_map(|_| {
            let t0 = Instant::now();
            let reply = http::request(addr, "GET", "/healthz", "").ok()?;
            (reply.status == 200).then(|| t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    if samples.is_empty() {
        f64::NAN
    } else {
        median(&samples)
    }
}

/// Run the served workload's closed loop over `specs` on `server` for
/// `seconds`.
pub fn drive(
    server: &ServerProc,
    specs: &[String],
    seconds: f64,
    seed: u64,
    trace: bool,
    epoch: Instant,
) -> LoopResult {
    let cfg = LoopConfig {
        connections: CONNECTIONS,
        deadline: Instant::now() + Duration::from_secs_f64(seconds),
        think: THINK,
        seed,
        trace,
        epoch,
    };
    closed_loop(server.addr, specs, &cfg)
}
