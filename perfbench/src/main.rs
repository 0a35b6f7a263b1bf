//! The repository's benchmark: one workload per invocation, generated from a
//! seed, timed for a fixed wall time, checked, and reported as one JSON line.
//!
//! ```text
//! perfbench --workload <si_crystal|si_hot_domain|served_small_jobs>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line carries every end-to-end metric; with
//! `--trace 1` the run is split into an untraced and a traced half and the
//! last line carries every per-layer metric. Exit code 2 is a usage error
//! (including a set `TERSOFF_THREADS` or `VEKTOR_BACKEND`), 1 a run that
//! could not complete; neither prints a result line.

mod gen;
mod host;
mod http;
mod layers;
mod md;
mod served;
mod stats;
mod trace;
mod yardstick;

use gen::{
    job_list, md_seeds, scenario_json, MdConfig, Spec, MODES, SERVED_PROBE, SI_CRYSTAL,
    SI_HOT_DOMAIN,
};
use layers::Layer;
use md::{Check, Runner, Timed};
use stats::{highest_supported_percentile, median, percentile, samples_beyond};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics, printed by every `--trace 0` run: (name, unit).
const END_TO_END: [(&str, &str); 9] = [
    ("ref_atom_steps_per_s", "1/s"),
    ("optd_atom_steps_per_s", "1/s"),
    ("opts_atom_steps_per_s", "1/s"),
    ("optm_atom_steps_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Layer groups the traced run reports self time for; a span's group is the
/// first segment of its name.
const SPAN_GROUPS: [&str; 3] = ["bench", "md_core", "server"];

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ns_per_lane") {
        "ns"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_s_per_step") {
        "s"
    } else if name.ends_with("per_s") {
        "1/s"
    } else if name.ends_with("fraction") || name.ends_with("occupancy") || name.ends_with("ratio") {
        "fraction"
    } else {
        "count"
    }
}

/// Every per-layer metric, in report order.
fn per_layer_names() -> Vec<String> {
    let mut names = Vec::new();
    let shapes = ["f32x16", "f64x8"];
    for f in [
        "vektor.math.exp",
        "vektor.math.sin",
        "vektor.math.cos",
        "vektor.math.powf_uniform",
        "vektor.conflict.scatter_add3",
        "vektor.gather.adjacent_gather3",
        "tersoff.vector_kernel.bij_and_deriv",
        "tersoff.vector_kernel.zeta_term_and_gradients",
        "tersoff.vector_kernel.fa_and_deriv",
        "tersoff.vector_kernel.repulsive",
    ] {
        names.extend(shapes.map(|s| format!("{f}.{s}_ns_per_lane")));
    }
    for (_, _, prefix) in MODES {
        names.push(format!("tersoff.{prefix}.compute_ms"));
        names.push(format!("tersoff.{prefix}.range_compute_ms"));
    }
    names.push("md_core.force_engine.overhead_fraction".into());
    names.push("tersoff.filter.build_ms".into());
    for scheme in ["1a", "1b"] {
        for s in [
            "pair_occupancy",
            "k_occupancy",
            "k_spin_fraction",
            "k_iterations",
            "scalar_fallbacks",
        ] {
            names.push(format!("tersoff.stats.{scheme}.{s}"));
        }
    }
    names.extend(
        [
            "md_core.neighbor.build_binned_ms",
            "md_core.neighbor.avg_neighbors",
            "md_core.neighbor.rebuilds_per_1000_steps",
        ]
        .map(String::from),
    );
    for stage in md_core::Stage::ALL {
        names.push(format!("md_core.stage.{}_s_per_step", stage.name()));
    }
    names.extend(
        [
            "md_core.domain.migrations_per_1000_steps",
            "md_core.domain.ghost_fraction",
            "md_core.domain.comm_fraction",
            "md_core.lattice.build_ms",
            "tersoff.make_potential_ms",
            "md_core.simulation.build_ms",
            "md_core.jobs.queue_wait_ms",
            "md_core.jobs.run_ms",
            "md_core.jobs.cache_hit_ratio",
            "md_core.jobs.cache_hits",
            "md_core.jobs.cache_lookups",
            "scenario.from_json_us",
            "scenario.to_report_json_us",
            "server.healthz_rtt_ms",
            "server.submit_rtt_ms",
            "server.result_rtt_ms",
        ]
        .map(String::from),
    );
    for g in SPAN_GROUPS {
        names.push(format!("trace.{g}.self_ms"));
        names.push(format!("trace.{g}.spans"));
    }
    names.extend(
        [
            "trace.untraced.jobs_per_s",
            "trace.traced.jobs_per_s",
            "trace.overhead_fraction",
        ]
        .map(String::from),
    );
    names
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <si_crystal|si_hot_domain|served_small_jobs> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric; its unit comes from the declared lists.
struct Metric {
    name: String,
    value: f64,
    samples: usize,
}

/// Everything one run produced.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    spans: Vec<trace::Span>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples,
        });
    }

    fn layers(&mut self, layers: Vec<Layer>) {
        for (name, value) in layers {
            self.metric(&name, value, 1);
        }
    }

    fn checks(&mut self, checks: Vec<Check>) {
        self.attempted += checks.len() as u64;
        self.failed += checks.iter().filter(|(_, ok)| !ok).count() as u64;
        self.checks.extend(checks);
    }

    /// Latency percentiles of `ms` under their gated names, noting when the
    /// run left fewer than ten samples beyond p90.
    fn latency(&mut self, ms: &[f64]) {
        self.metric("job_latency_p50_ms", percentile(ms, 50.0), ms.len());
        self.metric("job_latency_p90_ms", percentile(ms, 90.0), ms.len());
        if samples_beyond(ms.len(), 90.0) < 10 {
            self.notes.push(format!(
                "only {} latency samples: fewer than 10 beyond p90",
                ms.len()
            ));
        }
        if let Some(p) = highest_supported_percentile(ms.len()) {
            self.notes.push(format!(
                "highest percentile with >=10 samples beyond: p{p} = {:.3} ms (n={})",
                percentile(ms, p),
                ms.len()
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// MD workloads
// ---------------------------------------------------------------------------

/// The MD end-to-end metrics. CPU-bound timings are scaled to the nominal
/// host speed by the run's median yardstick time (see [`yardstick`]); the
/// measured values are printed as notes.
fn md_end_to_end(
    out: &mut Outcome,
    cfg: &MdConfig,
    runners: &[Runner],
    timed: &Timed,
    setup: &md::Setup,
) {
    let atoms = runners[0].sim().atoms.n_local as f64;
    let scale = &timed.host_scale;
    out.notes.push(format!(
        "host speed: yardstick {:.4} ms in the timed rounds, {:.4} ms during set-up (nominal {:.4} ms)",
        median(&timed.yardstick_s) * 1e3,
        setup.yardstick_s * 1e3,
        yardstick::NOMINAL_S * 1e3
    ));
    let mut measured = Vec::new();
    for (m, (_, _, prefix)) in MODES.iter().enumerate() {
        let raw = &timed.block_s_per_step[m];
        let nominal: Vec<f64> = raw.iter().zip(scale).map(|(t, k)| t * k).collect();
        measured.push(format!("{prefix} {:.0}", atoms / median(raw)));
        out.metric(
            &format!("{prefix}_atom_steps_per_s"),
            atoms / median(&nominal),
            nominal.len(),
        );
    }
    let rounds = timed.round_s.len();
    let round_ms: Vec<f64> = timed
        .round_s
        .iter()
        .zip(scale)
        .map(|(t, k)| t * k * 1e3)
        .collect();
    out.latency(&round_ms);
    out.metric(
        "jobs_per_s",
        rounds as f64 / (round_ms.iter().sum::<f64>() / 1e3),
        rounds,
    );
    out.metric(
        "setup_s",
        setup.total_s * yardstick::NOMINAL_S / setup.yardstick_s,
        setup.reps,
    );
    out.notes.push(format!(
        "measured (unscaled): atom-steps/s {}; round p50 {:.3} ms; {:.4} rounds/s; set-up {:.6} s",
        measured.join(", "),
        percentile(&timed.round_s, 50.0) * 1e3,
        rounds as f64 / timed.round_s.iter().sum::<f64>(),
        setup.total_s
    ));
    out.attempted += (rounds * runners.len()) as u64;
    out.notes.push(format!(
        "{}: a job is one round of {} steps of each of the four modes; {} rounds in {:.2} s",
        cfg.name, cfg.block_steps, rounds, timed.elapsed_s
    ));
    let ref_rate = atoms / median(&timed.block_s_per_step[0]);
    for (m, (mode, _, _)) in MODES.iter().enumerate().skip(1) {
        let rate = atoms / median(&timed.block_s_per_step[m]);
        out.notes.push(format!(
            "speedup {mode}/Ref = {:.3} (not gated)",
            rate / ref_rate
        ));
    }
}

/// Spans, untraced-vs-traced throughput and self time of a traced run.
fn trace_layers(
    out: &mut Outcome,
    untraced_per_s: f64,
    traced_per_s: f64,
    spans: Vec<trace::Span>,
) {
    let totals = trace::self_times(&spans);
    for g in SPAN_GROUPS {
        let (ns, count) = totals
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(g))
            .fold((0, 0), |(a, b), (_, (ns, c))| (a + ns, b + c));
        out.metric(
            &format!("trace.{g}.self_ms"),
            ns as f64 / 1e6,
            count as usize,
        );
        out.metric(&format!("trace.{g}.spans"), count as f64, count as usize);
    }
    out.metric("trace.untraced.jobs_per_s", untraced_per_s, 1);
    out.metric("trace.traced.jobs_per_s", traced_per_s, 1);
    out.metric(
        "trace.overhead_fraction",
        1.0 - traced_per_s / untraced_per_s,
        1,
    );
    out.spans = spans;
}

fn setup_layers(s: &md::Setup) -> Vec<Layer> {
    vec![
        ("md_core.lattice.build_ms".into(), s.lattice_s * 1e3),
        ("tersoff.make_potential_ms".into(), s.make_potential_s * 1e3),
        (
            "md_core.simulation.build_ms".into(),
            s.simulation_build_s * 1e3,
        ),
    ]
}

/// Layer metrics of an MD run from its timed loop and frozen Opt-M state.
fn md_layers(cfg: &MdConfig, seed: u64, runners: &[Runner], timed: &Timed) -> Vec<Layer> {
    let backend = tersoff::driver::TersoffOptions::default().resolved_backend();
    let steps = timed.steps_per_mode * runners.len() as u64;
    let mut out = layers::stage_layers(&timed.stages, steps);
    out.push((
        "md_core.neighbor.rebuilds_per_1000_steps".into(),
        1000.0 * timed.rebuilds as f64 / steps.max(1) as f64,
    ));
    let optm = &runners[3];
    out.extend(match cfg.grid {
        Some(_) => layers::domain_layers(
            timed.migrations,
            steps,
            optm.ghost_fraction(),
            &timed.stages,
        ),
        None => {
            let (lattice_seed, velocity_seed) = md_seeds(seed);
            let b = md::builder(cfg, gen::md_state(cfg, lattice_seed), 3, velocity_seed);
            layers::domain_probe(b, 20)
        }
    });
    let frozen = md::Frozen::of(optm.sim());
    out.extend(layers::lane_layers(&frozen, backend));
    out.extend(layers::kernel_layers(&frozen, backend));
    out
}

fn run_md(cfg: &MdConfig, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup, mut runners) = md::set_up(cfg, args.seed);
    if cfg.grid.is_none() {
        out.checks(md::check_initial_forces(&runners));
    }
    for r in &mut runners {
        r.run(cfg.warmup_steps);
    }
    if cfg.grid.is_some() {
        out.checks(md::check_domain_bits(cfg, args.seed, &runners));
    }
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch);
    if !args.trace {
        let timed = md::timed_rounds(cfg, &mut runners, args.seconds, &mut off);
        md_end_to_end(&mut out, cfg, &runners, &timed, &setup);
    } else {
        let untraced = md::timed_rounds(cfg, &mut runners, args.seconds / 2.0, &mut off);
        let mut tracer = Tracer::new(true, epoch);
        let traced = md::timed_rounds(cfg, &mut runners, args.seconds / 2.0, &mut tracer);
        out.attempted += ((untraced.round_s.len() + traced.round_s.len()) * runners.len()) as u64;
        let rate = |t: &Timed| t.round_s.len() as f64 / t.elapsed_s;
        trace_layers(
            &mut out,
            rate(&untraced),
            rate(&traced),
            tracer.into_spans(),
        );
        out.layers(setup_layers(&setup));
        out.layers(md_layers(cfg, args.seed, &runners, &traced));
        let (lattice_seed, velocity_seed) = md_seeds(args.seed);
        let specs: Vec<String> = (0..MODES.len())
            .map(|mode| {
                scenario_json(&Spec {
                    material: "silicon",
                    cells: cfg.cells,
                    mode,
                    steps: 2,
                    lattice_seed,
                    velocity_seed,
                    perturbation: cfg.perturbation,
                    temperature: cfg.temperature,
                    skin: cfg.skin,
                })
            })
            .collect();
        served_probe(&mut out, &specs)?;
    }
    if cfg.grid.is_none() {
        out.checks(
            runners
                .iter()
                .zip(MODES)
                .map(|(r, (mode, _, _))| {
                    let drift = r.sim().max_drift();
                    (
                        format!("{mode} energy drift {drift:.2e} < 1e-3"),
                        drift < 1e-3,
                    )
                })
                .collect(),
        );
    }
    if !args.trace {
        out.metric(
            "peak_rss_mb",
            host::peak_rss_mb("self").ok_or("cannot read VmHWM")?,
            1,
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Served workload
// ---------------------------------------------------------------------------

/// Jobs generated per run; far more than a run can complete.
const MAX_JOBS: usize = 20_000;

fn job_layers(
    out: &mut Outcome,
    loops: &[&http::LoopResult],
    specs: &[String],
    healthz_ms: f64,
    cache: Option<(f64, f64)>,
    references: &BTreeMap<&str, Result<lammps_tersoff_vector::scenario::ScenarioReport, String>>,
) {
    let times: Vec<&http::JobTimes> = loops
        .iter()
        .flat_map(|l| served::ok_times(l))
        .map(|(_, t)| t)
        .collect();
    let med = |f: &dyn Fn(&http::JobTimes) -> f64| -> f64 {
        let v: Vec<f64> = times.iter().map(|t| f(t)).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    let n = times.len();
    out.metric(
        "md_core.jobs.queue_wait_ms",
        med(&|t| t.queue_wait.as_secs_f64() * 1e3),
        n,
    );
    out.metric("md_core.jobs.run_ms", med(&|t| t.run_s * 1e3), n);
    let early: u32 = times.iter().map(|t| t.early_fetches).sum();
    if early > 0 {
        out.notes.push(format!(
            "{early} result fetch(es) came before the job's status turned terminal, although its terminal event had been streamed; fetched again"
        ));
    }
    out.metric(
        "server.submit_rtt_ms",
        med(&|t| t.submit_rtt.as_secs_f64() * 1e3),
        n,
    );
    out.metric(
        "server.result_rtt_ms",
        med(&|t| t.result_rtt.as_secs_f64() * 1e3),
        n,
    );
    out.metric("server.healthz_rtt_ms", healthz_ms, HEALTHZ_PROBES);
    let (hits, misses) = cache.unwrap_or((f64::NAN, f64::NAN));
    out.metric("md_core.jobs.cache_hits", hits, 1);
    out.metric("md_core.jobs.cache_lookups", hits + misses, 1);
    out.metric("md_core.jobs.cache_hit_ratio", hits / (hits + misses), 1);
    let distinct: Vec<&str> = {
        let mut v: Vec<&str> = specs.iter().map(String::as_str).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let parse_us: Vec<f64> = distinct
        .iter()
        .map(|s| {
            let t0 = Instant::now();
            std::hint::black_box(lammps_tersoff_vector::scenario::Scenario::from_json(s).is_ok());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.metric("scenario.from_json_us", median(&parse_us), parse_us.len());
    let report_us: Vec<f64> = references
        .values()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| {
            let t0 = Instant::now();
            std::hint::black_box(r.to_report_json());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.metric(
        "scenario.to_report_json_us",
        if report_us.is_empty() {
            f64::NAN
        } else {
            median(&report_us)
        },
        report_us.len(),
    );
}

/// `/healthz` round trips per traced run.
const HEALTHZ_PROBES: usize = 20;

/// Serve `specs` (each twice, one at a time) on a fresh server and record the
/// job-, scenario- and server-layer metrics; the jobs are checked against
/// in-process runs like the served workload's.
fn served_probe(out: &mut Outcome, specs: &[String]) -> Result<(), String> {
    let (server, _) = served::ServerProc::spawn(&served::server_exe())?;
    let healthz = served::healthz_rtt_ms(server.addr, HEALTHZ_PROBES);
    let twice: Vec<String> = specs.iter().chain(specs).cloned().collect();
    let cfg = http::LoopConfig {
        connections: 1,
        deadline: Instant::now() + std::time::Duration::from_secs(3600),
        think: std::time::Duration::ZERO,
        seed: 0,
        trace: false,
        epoch: Instant::now(),
    };
    let mut result = http::closed_loop(server.addr, &twice, &cfg);
    let cache = served::cache_counters(server.addr);
    let drained = server.shutdown();
    out.checks(vec![(
        "probe server drained and exited 0".into(),
        drained.is_ok(),
    )]);
    let references = served::check_against_references(&mut result, &twice);
    out.attempted += result.outcomes.len() as u64;
    out.failed += result.failed() as u64;
    out.notes.extend(
        result
            .outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().err().cloned()),
    );
    job_layers(out, &[&result], &twice, healthz, cache, &references);
    Ok(())
}

fn served_end_to_end(out: &mut Outcome, jobs: &[gen::JobSpec], result: &http::LoopResult) {
    let ok = served::ok_times(result);
    let latency_ms: Vec<f64> = ok
        .iter()
        .map(|(_, t)| t.latency.as_secs_f64() * 1e3)
        .collect();
    // Per-mode throughput counts whole cycles only, so every seed weighs the
    // same jobs; attempted jobs are always a prefix of the list.
    let whole = result.outcomes.len() / gen::CYCLE * gen::CYCLE;
    out.notes.push(format!(
        "per-mode served throughput over the first {whole} jobs ({} whole cycles)",
        whole / gen::CYCLE
    ));
    for (m, (_, _, prefix)) in MODES.iter().enumerate() {
        let of_mode: Vec<_> = ok
            .iter()
            .filter(|(i, _)| *i < whole && jobs[*i].mode == m)
            .collect();
        let atom_steps: f64 = of_mode
            .iter()
            .map(|(i, _)| (jobs[*i].atoms() * jobs[*i].steps) as f64)
            .sum();
        let seconds: f64 = of_mode.iter().map(|(_, t)| t.latency.as_secs_f64()).sum();
        out.metric(
            &format!("{prefix}_atom_steps_per_s"),
            atom_steps / seconds,
            of_mode.len(),
        );
    }
    if latency_ms.is_empty() {
        out.metric("job_latency_p50_ms", f64::NAN, 0);
        out.metric("job_latency_p90_ms", f64::NAN, 0);
    } else {
        out.latency(&latency_ms);
    }
    out.metric(
        "jobs_per_s",
        ok.len() as f64 / result.elapsed.as_secs_f64(),
        ok.len(),
    );
}

fn run_served(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let exe = served::server_exe();
    let (setup_s, spawns, server) = served::set_up(&exe)?;
    out.metric("setup_s", setup_s, spawns);
    let jobs = job_list(args.seed, MAX_JOBS);
    let specs: Vec<String> = jobs.iter().map(gen::JobSpec::to_json).collect();
    let epoch = Instant::now();
    let mut loops = Vec::new();
    if !args.trace {
        loops.push(served::drive(
            &server,
            &specs,
            args.seconds,
            args.seed,
            false,
            epoch,
        ));
    } else {
        let untraced = served::drive(&server, &specs, args.seconds / 2.0, args.seed, false, epoch);
        let rest = untraced.outcomes.len();
        let mut traced = served::drive(
            &server,
            &specs[rest..],
            args.seconds / 2.0,
            args.seed,
            true,
            epoch,
        );
        for o in &mut traced.outcomes {
            o.index += rest;
        }
        loops.push(untraced);
        loops.push(traced);
    }
    let peak = host::peak_rss_mb(&server.pid());
    let healthz = if args.trace {
        served::healthz_rtt_ms(server.addr, HEALTHZ_PROBES)
    } else {
        f64::NAN
    };
    let cache = served::cache_counters(server.addr);
    let drained = server.shutdown();
    out.checks(vec![(
        "server drained and exited 0".into(),
        drained.is_ok(),
    )]);

    let mut references = BTreeMap::new();
    for l in &mut loops {
        references.extend(served::check_against_references(l, &specs));
        out.attempted += l.outcomes.len() as u64;
        out.failed += l.failed() as u64;
        out.notes.extend(
            l.outcomes
                .iter()
                .filter_map(|o| o.result.as_ref().err().cloned()),
        );
    }
    out.notes.push(format!(
        "{} distinct specs re-run in-process to check final energy bits",
        references.len()
    ));
    if !args.trace {
        served_end_to_end(&mut out, &jobs, &loops[0]);
        out.metric(
            "peak_rss_mb",
            peak.ok_or("cannot read the server's VmHWM")?,
            1,
        );
        return Ok(out);
    }
    let per_s = |l: &http::LoopResult| served::ok_times(l).len() as f64 / l.elapsed.as_secs_f64();
    let spans = trace::merge(std::mem::take(&mut loops[1].spans));
    trace_layers(&mut out, per_s(&loops[0]), per_s(&loops[1]), spans);
    let traced_specs: Vec<String> = loops[1]
        .outcomes
        .iter()
        .map(|o| specs[o.index].clone())
        .collect();
    job_layers(
        &mut out,
        &[&loops[1]],
        &traced_specs,
        healthz,
        cache,
        &references,
    );

    // The in-process layers, on the largest silicon system of the mix.
    let cfg = &SERVED_PROBE;
    let (setup, mut runners) = md::set_up(cfg, args.seed);
    out.layers(setup_layers(&setup));
    let timed = md::timed_rounds(cfg, &mut runners, 1.0, &mut Tracer::new(false, epoch));
    let steps = timed.steps_per_mode * runners.len() as u64;
    let mut layers = layers::stage_layers(&timed.stages, steps);
    layers.push((
        "md_core.neighbor.rebuilds_per_1000_steps".into(),
        1000.0 * timed.rebuilds as f64 / steps.max(1) as f64,
    ));
    let (lattice_seed, velocity_seed) = md_seeds(args.seed);
    layers.extend(layers::domain_probe(
        md::builder(cfg, gen::md_state(cfg, lattice_seed), 3, velocity_seed),
        20,
    ));
    let backend = tersoff::driver::TersoffOptions::default().resolved_backend();
    let frozen = md::Frozen::of(runners[3].sim());
    layers.extend(layers::lane_layers(&frozen, backend));
    layers.extend(layers::kernel_layers(&frozen, backend));
    out.layers(layers);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

fn json_number(v: f64) -> String {
    // `{:?}` prints every digit needed to round-trip the value.
    format!("{v:?}")
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print the report; returns the result line.
fn report(args: &Args, out: &Outcome, expected: &[(String, &'static str)]) -> String {
    let fingerprint = host::fingerprint();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &fingerprint {
        println!("  host {k:<22} {v}");
    }
    for (name, ok) in &out.checks {
        println!("  check {} {name}", if *ok { "ok  " } else { "FAIL" });
    }
    for note in &out.notes {
        println!("  note  {note}");
    }
    let by_name: BTreeMap<&str, &Metric> =
        out.metrics.iter().map(|m| (m.name.as_str(), m)).collect();
    let mut fields = Vec::new();
    let mut unmeasured = Vec::new();
    for (name, unit) in expected {
        let (value, samples) = match by_name.get(name.as_str()) {
            Some(m) if m.value.is_finite() => (m.value, m.samples),
            _ => {
                unmeasured.push(name.clone());
                (0.0, 0)
            }
        };
        println!("  {name:<52} {value:>16.6} {unit:<9} n={samples}");
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_string(name),
            json_number(value),
            json_string(unit)
        ));
    }
    for name in &unmeasured {
        println!("  could not measure {name} (reported as 0)");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  error_rate {error_rate} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    let correct = out.failed == 0 && out.checks.iter().all(|(_, ok)| *ok);
    let host_fields: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{{{}}},\"error_rate\":{},\"spans\":{}}}\n",
        json_string(&args.workload),
        args.seed,
        args.trace,
        host_fields.join(","),
        json_number(error_rate),
        trace::to_json(&out.spans)
    );
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, record)) {
        println!("  note  could not write {}: {e}", path.display());
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    // Either variable silently overrides what the benchmark asks for: every
    // requested thread count, or the kernels' vector backend.
    for var in ["TERSOFF_THREADS", "VEKTOR_BACKEND"] {
        if std::env::var_os(var).is_some() {
            return usage(&format!(
                "{var} is set; unset it so the run measures one thread on the detected backend"
            ));
        }
    }
    let outcome = match args.workload.as_str() {
        "si_crystal" => run_md(&SI_CRYSTAL, &args),
        "si_hot_domain" => run_md(&SI_HOT_DOMAIN, &args),
        "served_small_jobs" => run_served(&args),
        other => return usage(&format!("unknown workload {other:?}")),
    };
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let expected: Vec<(String, &'static str)> = if args.trace {
        per_layer_names()
            .into_iter()
            .map(|n| {
                let unit = layer_unit(&n);
                (n, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let line = report(&args, &out, &expected);
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use lammps_tersoff_vector::json::{self, Json};

    /// The metrics the program prints are the ones BENCHMARK.json declares,
    /// with the same units.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let decl =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            decl.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|n| {
                let u = layer_unit(&n).to_string();
                (n, u)
            })
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }
}
