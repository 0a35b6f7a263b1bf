//! The MD workloads: all four execution modes advanced in alternating short
//! blocks inside one process, on one engine thread each.

use crate::gen::{md_seeds, md_state, MdConfig, MODES};
use crate::stats::median;
use crate::trace::Tracer;
use crate::yardstick::Yardstick;
use md_core::atom::AtomData;
use md_core::neighbor::NeighborList;
use md_core::observer::RunReport;
use md_core::potential::Potential;
use md_core::simbox::SimBox;
use md_core::{units, DomainSimulation, Simulation, SimulationBuilder, Stage};
use std::time::{Duration, Instant};
use tersoff::driver::{make_potential, ExecutionMode, Scheme, TersoffOptions};
use tersoff::params::TersoffParams;

/// A run repeats its set-up at least this many times and for at least
/// [`SETUP_WINDOW`]; `setup_s` is the median.
pub const MIN_SETUPS: usize = 9;

/// Shortest wall time a run spends repeating its set-up.
pub const SETUP_WINDOW: Duration = Duration::from_millis(1500);

/// The one-thread options of mode `MODES[m]` in its paper-default scheme.
pub fn mode_options(m: usize) -> TersoffOptions {
    let (mode, scheme, _) = MODES[m];
    TersoffOptions {
        mode: mode
            .parse::<ExecutionMode>()
            .expect("MODES names valid modes"),
        scheme: scheme.parse::<Scheme>().expect("MODES names valid schemes"),
        width: 0,
        threads: 1,
        backend: None,
    }
}

type Sim = Simulation<Box<dyn Potential>>;

/// A single-domain or decomposed simulation of one mode.
pub enum Runner {
    Single(Box<Sim>),
    Domain(Box<DomainSimulation<Box<dyn Potential>>>),
}

impl Runner {
    pub fn run(&mut self, steps: u64) -> RunReport {
        match self {
            Runner::Single(s) => s.run(steps),
            Runner::Domain(d) => d.run(steps),
        }
    }

    pub fn sim(&self) -> &Sim {
        match self {
            Runner::Single(s) => s,
            Runner::Domain(d) => d.sim(),
        }
    }

    pub fn migrations(&self) -> u64 {
        match self {
            Runner::Single(_) => 0,
            Runner::Domain(d) => d.migrations(),
        }
    }

    pub fn ghost_fraction(&self) -> f64 {
        match self {
            Runner::Single(_) => 0.0,
            Runner::Domain(d) => d.ghost_fraction(),
        }
    }
}

/// The configured builder of mode `m` on a given state.
pub fn builder(
    cfg: &MdConfig,
    state: (SimBox, AtomData),
    m: usize,
    velocity_seed: u64,
) -> SimulationBuilder<Box<dyn Potential>> {
    let potential = make_potential(TersoffParams::silicon(), mode_options(m));
    configure(cfg, state, potential, velocity_seed)
}

fn configure(
    cfg: &MdConfig,
    (sim_box, atoms): (SimBox, AtomData),
    potential: Box<dyn Potential>,
    velocity_seed: u64,
) -> SimulationBuilder<Box<dyn Potential>> {
    Simulation::builder(atoms, sim_box, potential)
        .masses(vec![units::mass::SI])
        .temperature(cfg.temperature, velocity_seed)
        .skin(cfg.skin)
        .threads(1)
}

fn build_runner(cfg: &MdConfig, b: SimulationBuilder<Box<dyn Potential>>) -> Runner {
    match cfg.grid {
        None => Runner::Single(Box::new(b.build().expect("workload set-up is valid"))),
        Some(grid) => Runner::Domain(Box::new(
            DomainSimulation::new(b, grid).expect("workload grid is valid for its box"),
        )),
    }
}

/// Medians of the set-up phases over `reps` set-ups (seconds).
pub struct Setup {
    pub reps: usize,
    pub total_s: f64,
    /// Median yardstick time measured between the set-ups.
    pub yardstick_s: f64,
    pub lattice_s: f64,
    pub make_potential_s: f64,
    pub simulation_build_s: f64,
}

/// Set the workload up repeatedly (see [`MIN_SETUPS`]) and keep the last set
/// of runners: lattice, four potentials, four simulation builds (initial
/// neighbor list and first force).
pub fn set_up(cfg: &MdConfig, seed: u64) -> (Setup, Vec<Runner>) {
    let (lattice_seed, velocity_seed) = md_seeds(seed);
    let (mut total, mut lattice, mut potential, mut build) = (vec![], vec![], vec![], vec![]);
    let (mut yardstick, mut yard) = (Yardstick::new(), vec![]);
    let mut runners = Vec::new();
    let window = Instant::now();
    while total.len() < MIN_SETUPS || window.elapsed() < SETUP_WINDOW {
        runners.clear();
        yard.push(yardstick.time());
        let t0 = Instant::now();
        let state = md_state(cfg, lattice_seed);
        lattice.push(t0.elapsed().as_secs_f64());
        let (mut t_pot, mut t_build) = (0.0, 0.0);
        for m in 0..MODES.len() {
            let t = Instant::now();
            let pot = make_potential(TersoffParams::silicon(), mode_options(m));
            t_pot += t.elapsed().as_secs_f64();
            let b = configure(cfg, state.clone(), pot, velocity_seed);
            let t = Instant::now();
            runners.push(build_runner(cfg, b));
            t_build += t.elapsed().as_secs_f64();
        }
        potential.push(t_pot);
        build.push(t_build);
        total.push(t0.elapsed().as_secs_f64());
    }
    let setup = Setup {
        reps: total.len(),
        total_s: median(&total),
        yardstick_s: median(&yard),
        lattice_s: median(&lattice),
        make_potential_s: median(&potential),
        simulation_build_s: median(&build),
    };
    (setup, runners)
}

/// Result of one named correctness check.
pub type Check = (String, bool);

/// Forces of the optimized modes on the initial state agree with Ref within
/// the precision tolerances of the repository's accuracy test.
pub fn check_initial_forces(runners: &[Runner]) -> Vec<Check> {
    let reference = &runners[0].sim().compute_out;
    (1..runners.len())
        .map(|m| {
            let out = &runners[m].sim().compute_out;
            let (energy_tol, force_tol) = if MODES[m].0 == "Opt-D" { (1e-9, 1e-8) } else { (3e-5, 5e-3) };
            let rel = ((out.energy - reference.energy) / reference.energy).abs();
            let df = out.max_force_difference(reference);
            (
                format!("{} initial energy rel {rel:.2e} (<{energy_tol:e}), max force diff {df:.2e} (<{force_tol:e})", MODES[m].0),
                rel < energy_tol && df < force_tol,
            )
        })
        .collect()
}

/// The decomposed run after its warm-up has the total-energy bits of a
/// single-domain run of the same seed and mode (run here, untimed).
pub fn check_domain_bits(cfg: &MdConfig, seed: u64, runners: &[Runner]) -> Vec<Check> {
    let (lattice_seed, velocity_seed) = md_seeds(seed);
    runners
        .iter()
        .enumerate()
        .map(|(m, r)| {
            let mut single = builder(cfg, md_state(cfg, lattice_seed), m, velocity_seed)
                .build()
                .expect("workload set-up is valid");
            let reference = single.run(r.sim().step).final_thermo.total;
            let decomposed = r.sim().current_thermo().total;
            (
                format!(
                    "{} decomposed E(step {}) bits {:016x} == single-domain {:016x}",
                    MODES[m].0,
                    r.sim().step,
                    decomposed.to_bits(),
                    reference.to_bits()
                ),
                decomposed.to_bits() == reference.to_bits(),
            )
        })
        .collect()
}

/// Per-stage seconds of every runner, for before/after differences.
pub fn stage_seconds(runners: &[Runner]) -> Vec<[f64; 6]> {
    runners
        .iter()
        .map(|r| Stage::ALL.map(|s| r.sim().timers.seconds(s)))
        .collect()
}

/// What the interleaved timing loop measured.
#[derive(Default)]
pub struct Timed {
    /// Yardstick seconds, timed once per round outside the round.
    pub yardstick_s: Vec<f64>,
    /// Per round: the factor that scales its times to the nominal host
    /// speed (see [`crate::yardstick::round_scales`]).
    pub host_scale: Vec<f64>,
    /// Seconds per step of every block, per mode (as measured).
    pub block_s_per_step: Vec<Vec<f64>>,
    /// Wall time of every round (one block of each mode).
    pub round_s: Vec<f64>,
    pub elapsed_s: f64,
    pub steps_per_mode: u64,
    pub rebuilds: u64,
    pub migrations: u64,
    /// Stage seconds summed over modes.
    pub stages: [f64; 6],
}

/// Advance every mode by `block` steps in turn until `seconds` have passed.
pub fn timed_rounds(
    cfg: &MdConfig,
    runners: &mut [Runner],
    seconds: f64,
    tracer: &mut Tracer,
) -> Timed {
    let before = stage_seconds(runners);
    let migrations_before: u64 = runners.iter().map(Runner::migrations).sum();
    let mut out = Timed {
        block_s_per_step: vec![Vec::new(); runners.len()],
        ..Timed::default()
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    let mut yardstick = Yardstick::new();
    while Instant::now() < deadline {
        out.yardstick_s.push(yardstick.time());
        let t_round = Instant::now();
        tracer.span("bench.round", round, |t| {
            for (m, r) in runners.iter_mut().enumerate() {
                let t0 = Instant::now();
                let report = t.span("md_core.simulation.run", round, |_| r.run(cfg.block_steps));
                out.block_s_per_step[m].push(t0.elapsed().as_secs_f64() / cfg.block_steps as f64);
                out.rebuilds += report.rebuilds;
            }
        });
        out.round_s.push(t_round.elapsed().as_secs_f64());
        out.steps_per_mode += cfg.block_steps;
        round += 1;
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.host_scale = crate::yardstick::round_scales(&out.yardstick_s);
    out.migrations = runners.iter().map(Runner::migrations).sum::<u64>() - migrations_before;
    for (b, a) in before.iter().zip(stage_seconds(runners)) {
        for s in 0..6 {
            out.stages[s] += a[s] - b[s];
        }
    }
    out
}

/// The state a mode's simulation holds now, for the per-layer probes.
pub struct Frozen {
    pub atoms: AtomData,
    pub sim_box: SimBox,
    pub neighbors: NeighborList,
    pub skin: f64,
}

impl Frozen {
    pub fn of(sim: &Sim) -> Self {
        Frozen {
            atoms: sim.atoms.clone(),
            sim_box: sim.sim_box,
            neighbors: sim.neighbors.clone(),
            skin: sim.skin(),
        }
    }
}
