//! Shared server state: the [`JobEngine`], the job registry, and the
//! per-job event logs the NDJSON streaming endpoint replays.
//!
//! The registry is the bridge between the engine's consume-on-wait
//! [`JobHandle`]s and HTTP's poll-any-number-of-times model: a
//! [`JobRecord`] keeps the typed handle until the job turns terminal, then
//! resolves it exactly once into a [`VariantReport`] that every later
//! `GET` re-reads. Event logs are append-only (fed by a single recorder
//! thread subscribed to the engine's [`EventBus`](md_core::jobs::EventBus)
//! before any submission), so a streaming client can join late and still
//! replay a job's full history before following it live.

use crate::json::{obj, Json};
use crate::scenario::{Scenario, Variant, VariantReport};
use md_core::jobs::{
    EventSub, JobEngine, JobEvent, JobHandle, JobId, JobOutcome, JobStatus, RecvError,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// One submitted job
// ---------------------------------------------------------------------------

enum Slot {
    /// Not yet terminal (or terminal but not yet resolved).
    Pending(JobHandle<VariantReport>),
    /// Transient while one reader resolves the handle (never observed —
    /// the slot lock is held across resolution).
    Resolving,
    /// Resolved once; shared by every later read.
    Done {
        report: Arc<VariantReport>,
        cancelled: bool,
    },
}

/// Where a job is on the queued → running → done arc, plus its resolved
/// report once done.
pub(crate) enum JobView {
    Queued,
    Running,
    Done {
        report: Arc<VariantReport>,
        cancelled: bool,
    },
}

impl JobView {
    /// The wire name of the job's state: `queued`, `running`, or — once
    /// done — the variant's terminal status (`ok`, `diverged`, `panicked`,
    /// `timeout`, `failed`) or `cancelled`.
    pub(crate) fn status_name(&self) -> &'static str {
        match self {
            JobView::Queued => "queued",
            JobView::Running => "running",
            JobView::Done {
                cancelled: true, ..
            } => "cancelled",
            JobView::Done { report, .. } => report.status.name(),
        }
    }

    /// Whether the job can make no further progress.
    pub(crate) fn is_terminal(&self) -> bool {
        matches!(self, JobView::Done { .. })
    }
}

/// One job accepted over the wire: which scenario variant it is, and the
/// handle-or-report lifecycle described on [`Slot`].
pub(crate) struct JobRecord {
    pub(crate) id: JobId,
    pub(crate) scenario: Arc<Scenario>,
    pub(crate) variant: Variant,
    pub(crate) label: String,
    pub(crate) steps: u64,
    slot: Mutex<Slot>,
}

impl JobRecord {
    pub(crate) fn new(
        scenario: Arc<Scenario>,
        variant: Variant,
        label: String,
        steps: u64,
        handle: JobHandle<VariantReport>,
    ) -> Arc<Self> {
        Arc::new(JobRecord {
            id: handle.id(),
            scenario,
            variant,
            label,
            steps,
            slot: Mutex::new(Slot::Pending(handle)),
        })
    }

    /// The job's current state. The first read after the job turns
    /// terminal consumes the handle (an immediate `wait`) and pins the
    /// resolved report; every later read shares it.
    pub(crate) fn view(&self) -> JobView {
        self.view_inner(false)
    }

    /// The job's terminal state, blocking until the engine resolves the
    /// handle. The engine emits a job's terminal event just *before* it
    /// resolves the handle, so a reader that saw that event waits here
    /// only for that hand-off, and every `GET` after it reports `done`.
    pub(crate) fn settle(&self) -> JobView {
        self.view_inner(true)
    }

    fn view_inner(&self, block: bool) -> JobView {
        let mut slot = lock(&self.slot);
        match &*slot {
            Slot::Pending(handle) if !block => match handle.poll() {
                JobStatus::Queued => return JobView::Queued,
                JobStatus::Running => return JobView::Running,
                JobStatus::Finished | JobStatus::Faulted | JobStatus::Cancelled => {}
            },
            Slot::Pending(_) => {}
            Slot::Resolving => unreachable!("resolution happens under the slot lock"),
            Slot::Done { report, cancelled } => {
                return JobView::Done {
                    report: report.clone(),
                    cancelled: *cancelled,
                }
            }
        }
        let Slot::Pending(handle) = std::mem::replace(&mut *slot, Slot::Resolving) else {
            unreachable!("checked Pending above");
        };
        // Immediate when the job is terminal; otherwise (`settle` only) a
        // wait for the engine's resolve that follows the terminal event.
        let outcome = handle.wait();
        let cancelled = matches!(outcome, JobOutcome::Cancelled);
        let report = Arc::new(self.scenario.resolve(self.variant, outcome));
        *slot = Slot::Done {
            report: report.clone(),
            cancelled,
        };
        JobView::Done { report, cancelled }
    }

    /// Cancel if still queued (exact queue-level semantics of
    /// [`JobHandle::cancel`]). `false` once running or terminal.
    pub(crate) fn cancel(&self) -> bool {
        match &*lock(&self.slot) {
            Slot::Pending(handle) => handle.cancel(),
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-job event logs
// ---------------------------------------------------------------------------

struct EventLogState {
    /// NDJSON lines (each one serialized [`JobEvent`]), in arrival order.
    lines: Vec<Arc<str>>,
    /// A terminal event landed; no further lines will ever be appended.
    terminal: bool,
}

/// The append-only event history of one job.
pub(crate) struct EventLog {
    state: Mutex<EventLogState>,
    grown: Condvar,
}

impl EventLog {
    fn new() -> Arc<Self> {
        Arc::new(EventLog {
            state: Mutex::new(EventLogState {
                lines: Vec::new(),
                terminal: false,
            }),
            grown: Condvar::new(),
        })
    }

    fn append(&self, line: Arc<str>, terminal: bool) {
        let mut state = lock(&self.state);
        state.lines.push(line);
        state.terminal |= terminal;
        drop(state);
        self.grown.notify_all();
    }

    fn mark_terminal(&self) {
        lock(&self.state).terminal = true;
        self.grown.notify_all();
    }

    /// Lines `from..` plus whether the log is complete. Blocks up to
    /// `timeout` when nothing new is available yet.
    pub(crate) fn wait_lines(&self, from: usize, timeout: Duration) -> (Vec<Arc<str>>, bool) {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.state);
        loop {
            if state.lines.len() > from || state.terminal {
                return (
                    state.lines[from.min(state.lines.len())..].to_vec(),
                    state.terminal,
                );
            }
            let now = Instant::now();
            if now >= deadline {
                return (Vec::new(), false);
            }
            let (guard, _) = self
                .grown
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// All jobs this server ever accepted, plus their event logs. Shared
/// between connection threads and the single recorder thread.
#[derive(Default)]
pub(crate) struct Registry {
    jobs: Mutex<HashMap<JobId, Arc<JobRecord>>>,
    events: Mutex<HashMap<JobId, Arc<EventLog>>>,
}

impl Registry {
    /// Register an accepted job.
    pub(crate) fn insert(&self, record: Arc<JobRecord>) {
        lock(&self.jobs).insert(record.id, record);
    }

    /// The record of job `id`, if this server accepted it.
    pub(crate) fn get(&self, id: JobId) -> Option<Arc<JobRecord>> {
        lock(&self.jobs).get(&id).cloned()
    }

    /// The event log of job `id`, created on first touch so a streamer can
    /// subscribe before the first event lands.
    pub(crate) fn event_log(&self, id: JobId) -> Arc<EventLog> {
        lock(&self.events)
            .entry(id)
            .or_insert_with(EventLog::new)
            .clone()
    }

    /// Job counts keyed by wire status name (for `/metrics`).
    pub(crate) fn status_counts(&self) -> Vec<(&'static str, usize)> {
        let records: Vec<Arc<JobRecord>> = lock(&self.jobs).values().cloned().collect();
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for record in records {
            *counts.entry(record.view().status_name()).or_default() += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort();
        out
    }

    /// Total accepted jobs.
    pub(crate) fn len(&self) -> usize {
        lock(&self.jobs).len()
    }

    /// Whether every registered job has reached a terminal state — the
    /// drain condition of [`Server::join`](super::Server::join). (Engine
    /// counters cannot express this: a rejected submit's balancing
    /// `Cancelled` bumps `cancelled` without bumping `submitted`.)
    pub(crate) fn all_terminal(&self) -> bool {
        let records: Vec<Arc<JobRecord>> = lock(&self.jobs).values().cloned().collect();
        records.iter().all(|record| record.view().is_terminal())
    }

    /// Append `event` to its job's log (recorder thread only).
    fn record(&self, event: &JobEvent) {
        let log = self.event_log(event.job());
        let terminal = matches!(event.kind(), "finished" | "faulted" | "cancelled");
        log.append(event_json(event).compact().into(), terminal);
    }

    /// Mark every log terminal — the bus closed, nothing more can arrive.
    fn close_all(&self) {
        for log in lock(&self.events).values() {
            log.mark_terminal();
        }
    }
}

/// One [`JobEvent`] as the NDJSON object the `/v1/jobs/{id}/events` stream
/// emits: always `event` (the kind) and `job` (the id), plus the kind's
/// own fields. Energies carry their exact bits alongside the decimal
/// rendering, keeping the wire format as bitwise-faithful as the report
/// artifacts.
pub(crate) fn event_json(event: &JobEvent) -> Json {
    let mut fields = vec![
        ("event", Json::Str(event.kind().to_string())),
        ("job", Json::Num(event.job() as f64)),
    ];
    match event {
        JobEvent::Queued { name, .. } | JobEvent::Cancelled { name, .. } => {
            fields.push(("name", Json::Str(name.clone())));
        }
        JobEvent::Started {
            name,
            threads,
            exclusive,
            ..
        } => {
            fields.push(("name", Json::Str(name.clone())));
            fields.push(("threads", Json::Num(*threads as f64)));
            fields.push(("exclusive", Json::Bool(*exclusive)));
        }
        JobEvent::Thermo {
            step,
            total_energy,
            temperature,
            ..
        } => {
            fields.push(("step", Json::Num(*step as f64)));
            fields.push(("total_energy", Json::Num(*total_energy)));
            fields.push((
                "total_energy_bits",
                Json::Str(format!("{:016x}", total_energy.to_bits())),
            ));
            fields.push(("temperature", Json::Num(*temperature)));
        }
        JobEvent::Checkpoint { step, .. } => {
            fields.push(("step", Json::Num(*step as f64)));
        }
        JobEvent::Finished { name, seconds, .. } => {
            fields.push(("name", Json::Str(name.clone())));
            fields.push(("seconds", Json::Num(*seconds)));
        }
        JobEvent::Faulted { name, message, .. } => {
            fields.push(("name", Json::Str(name.clone())));
            fields.push(("message", Json::Str(message.clone())));
        }
    }
    obj(fields)
}

// ---------------------------------------------------------------------------
// Server state and the recorder
// ---------------------------------------------------------------------------

/// Everything a connection thread can reach: the engine, the registry,
/// the shutdown flag, and the wire counters.
pub(crate) struct ServerState {
    pub(crate) engine: JobEngine,
    pub(crate) registry: Arc<Registry>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) started: Instant,
    pub(crate) http_requests: AtomicU64,
}

impl ServerState {
    /// Whether graceful shutdown was requested (signal or
    /// `POST /v1/shutdown`): intake is closed, the drain has begun.
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// The recorder loop: drain the engine's event stream into the registry's
/// per-job logs until the bus closes (engine shutdown). Runs on its own
/// thread, subscribed before the server accepts its first connection, so
/// no job's `queued` event can be missed.
pub(crate) fn run_recorder(sub: EventSub, registry: Arc<Registry>) {
    loop {
        match sub.recv() {
            Ok(event) => registry.record(&event),
            Err(RecvError::Closed) => break,
            Err(RecvError::Empty) => unreachable!("recv only returns events or Closed"),
        }
    }
    registry.close_all();
}

#[cfg(test)]
mod tests {
    use super::super::{Server, ServerConfig};
    use super::*;
    use crate::json::parse;
    use crate::scenario::RunPolicy;
    use md_core::jobs::JobSpec;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::mpsc;
    use std::thread;

    const FIXTURE: &str = r#"{
  "name": "settle",
  "system": {"lattice": "silicon", "cells": [2, 2, 2], "perturbation": 0.04,
             "lattice_seed": 21, "temperature": 400.0, "velocity_seed": 5},
  "potential": {"params": "silicon", "mode": "Opt-M", "scheme": "1b", "threads": 1},
  "run": {"timestep": 0.001, "skin": 1.0, "steps": 4, "thermo_every": 2}
}"#;

    /// One `Connection: close` GET; returns the raw response.
    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        raw
    }

    #[test]
    fn the_event_stream_ends_only_once_the_job_reports_done() {
        let server = Server::bind(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("bind loopback");
        let addr = server.local_addr();
        let state = server.state.clone();

        // Hold the only lane so the scenario job below stays queued.
        let (release, gate) = mpsc::channel::<()>();
        let blocker = state
            .engine
            .submit(JobSpec::new("gate", move |_| {
                let _ = gate.recv();
            }))
            .expect("submit the gate job");
        let scenario = Arc::new(Scenario::from_json(FIXTURE).expect("fixture parses"));
        let variant = scenario.variants()[0];
        let policy = RunPolicy {
            keep_going: true,
            ..RunPolicy::default()
        };
        let steps = scenario.capped_steps(&policy);
        let handle = scenario
            .try_submit(&state.engine, variant, steps, &policy)
            .expect("submit the scenario job");
        let id = handle.id();
        state.registry.insert(JobRecord::new(
            scenario.clone(),
            variant,
            "settle".to_string(),
            steps,
            handle,
        ));
        // A terminal line in the log while the handle is unresolved: the
        // gap the engine leaves between its terminal event and resolving
        // the handle, held open here for as long as the job stays queued.
        state.registry.record(&JobEvent::Finished {
            job: id,
            name: "settle".to_string(),
            seconds: 0.0,
        });

        let stream = thread::spawn(move || get(addr, &format!("/v1/jobs/{id}/events")));
        thread::sleep(Duration::from_millis(200));
        assert!(
            !stream.is_finished(),
            "the stream ended before the job was done"
        );
        release.send(()).expect("release the lane");
        let events = stream.join().expect("stream thread");
        assert!(events.contains("\"finished\""), "terminal line streamed");

        let status = get(addr, &format!("/v1/jobs/{id}"));
        let body = &status[status.find("\r\n\r\n").expect("response head") + 4..];
        let json = parse(body).expect("JSON status");
        assert_eq!(json.get("done"), Some(&Json::Bool(true)), "{body}");
        assert_eq!(json.get("status"), Some(&Json::Str("ok".into())), "{body}");

        blocker.wait();
        drop(state);
        server.request_shutdown();
        server.join();
    }
}
