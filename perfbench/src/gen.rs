//! Seeded input generators: the MD workloads' initial states and the served
//! workload's job list. The same seed gives the same inputs, byte for byte.

use md_core::atom::AtomData;
use md_core::lattice::Lattice;
use md_core::simbox::SimBox;

/// SplitMix64: a small, fully specified generator, so the inputs do not
/// depend on any library's stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seed for a library generator: positive and below 2^31, so it
    /// round-trips exactly through a JSON number.
    pub fn seed(&mut self) -> u64 {
        1 + self.next_u64() % ((1 << 31) - 1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One MD workload's system and schedule.
#[derive(Clone, Copy, Debug)]
pub struct MdConfig {
    pub name: &'static str,
    /// Diamond Si conventional cells per side.
    pub cells: [usize; 3],
    /// Random displacement amplitude of the lattice sites (Å).
    pub perturbation: f64,
    /// Initial Maxwell–Boltzmann temperature (K).
    pub temperature: f64,
    /// Neighbor-list skin (Å).
    pub skin: f64,
    /// Rank grid of the decomposed run, if any.
    pub grid: Option<[usize; 3]>,
    /// Steps each mode advances per interleaved block.
    pub block_steps: u64,
    /// Steps run before timing; the bitwise domain check compares here.
    pub warmup_steps: u64,
}

/// 4096-atom crystal at 300 K: force-dominated, neighbor rebuilds rare.
pub const SI_CRYSTAL: MdConfig = MdConfig {
    name: "si_crystal",
    cells: [8, 8, 8],
    perturbation: 0.05,
    temperature: 300.0,
    skin: 1.0,
    grid: None,
    block_steps: 2,
    warmup_steps: 2,
};

/// 1728-atom Si started at 3500 K (≈1800 K after equipartition) with a
/// thin skin on a 2×2×1 rank grid: rebuilds and migrations every few steps.
pub const SI_HOT_DOMAIN: MdConfig = MdConfig {
    name: "si_hot_domain",
    cells: [6, 6, 6],
    perturbation: 0.05,
    temperature: 3500.0,
    skin: 0.4,
    grid: Some([2, 2, 1]),
    block_steps: 4,
    warmup_steps: 40,
};

/// The largest silicon system of the served job mix, driven in-process for
/// the served workload's per-layer probes.
pub const SERVED_PROBE: MdConfig = MdConfig {
    name: "served_probe",
    cells: [3, 3, 3],
    perturbation: 0.05,
    temperature: 300.0,
    skin: 1.0,
    grid: None,
    block_steps: 10,
    warmup_steps: 0,
};

/// The lattice and velocity seeds an MD workload derives from `seed`.
pub fn md_seeds(seed: u64) -> (u64, u64) {
    let mut rng = Rng::new(seed);
    (rng.seed(), rng.seed())
}

/// The workload's initial positions and box for `lattice_seed`.
pub fn md_state(cfg: &MdConfig, lattice_seed: u64) -> (SimBox, AtomData) {
    Lattice::silicon(cfg.cells).build_perturbed(cfg.perturbation, lattice_seed)
}

/// The four execution modes in their paper-default schemes, as the
/// scenario spec names them, with the metric prefix of each.
pub const MODES: [(&str, &str, &str); 4] = [
    ("Ref", "scalar", "ref"),
    ("Opt-D", "1a", "optd"),
    ("Opt-S", "1b", "opts"),
    ("Opt-M", "1b", "optm"),
];

/// Materials of the served job mix: lattice and parameter set share a name.
pub const MATERIALS: [&str; 4] = ["silicon", "carbon", "germanium", "silicon_carbide"];

/// Cell counts of the served job mix: 64, 144 and 216 atoms.
pub const JOB_CELLS: [[usize; 3]; 3] = [[2, 2, 2], [3, 3, 2], [3, 3, 3]];

/// One served job: a small scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    pub material: &'static str,
    pub cells: [usize; 3],
    /// Index into [`MODES`].
    pub mode: usize,
    pub steps: u64,
    pub lattice_seed: u64,
    pub velocity_seed: u64,
}

impl JobSpec {
    pub fn atoms(&self) -> u64 {
        8 * self.cells.iter().product::<usize>() as u64
    }

    /// The scenario JSON the server receives.
    pub fn to_json(&self) -> String {
        scenario_json(&Spec {
            material: self.material,
            cells: self.cells,
            mode: self.mode,
            steps: self.steps,
            lattice_seed: self.lattice_seed,
            velocity_seed: self.velocity_seed,
            perturbation: 0.05,
            temperature: 300.0,
            skin: 1.0,
        })
    }
}

/// Everything a generated scenario varies.
pub struct Spec {
    pub material: &'static str,
    pub cells: [usize; 3],
    /// Index into [`MODES`].
    pub mode: usize,
    pub steps: u64,
    pub lattice_seed: u64,
    pub velocity_seed: u64,
    pub perturbation: f64,
    pub temperature: f64,
    pub skin: f64,
}

/// A one-variant, one-thread scenario. It names no dump or checkpoint
/// file, so running it writes nothing to disk.
pub fn scenario_json(s: &Spec) -> String {
    let (mode, scheme, prefix) = MODES[s.mode];
    let [a, b, c] = s.cells;
    format!(
        concat!(
            "{{\"name\":\"{m}_{a}x{b}x{c}_{prefix}_{ls}\",",
            "\"system\":{{\"lattice\":\"{m}\",\"cells\":[{a},{b},{c}],\"perturbation\":{pert:?},",
            "\"lattice_seed\":{ls},\"temperature\":{temp:?},\"velocity_seed\":{vs}}},",
            "\"potential\":{{\"params\":\"{m}\",\"mode\":\"{mode}\",\"scheme\":\"{scheme}\",",
            "\"width\":0,\"threads\":1,\"backend\":\"auto\"}},",
            "\"run\":{{\"timestep\":0.001,\"skin\":{skin:?},\"steps\":{steps},\"thermo_every\":10}}}}"
        ),
        m = s.material,
        a = a,
        b = b,
        c = c,
        prefix = prefix,
        ls = s.lattice_seed,
        vs = s.velocity_seed,
        pert = s.perturbation,
        temp = s.temperature,
        mode = mode,
        scheme = scheme,
        skin = s.skin,
        steps = s.steps,
    )
}

/// Jobs in one cycle of the served job list: each material × mode × size.
pub const CYCLE: usize = MATERIALS.len() * MODES.len() * JOB_CELLS.len();

/// The served job list for `seed`.
///
/// Every cycle of [`CYCLE`] jobs holds each material × mode × size once, in
/// a seeded order, so every seed has the same mix; each combination has a
/// fixed step count of 20, 40 or 60. From the second cycle on, about half of
/// the jobs resubmit an identical earlier job of the same combination (same
/// system, so the artifact cache hits); the rest use a fresh lattice seed (a
/// miss).
pub fn job_list(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    let combos: Vec<(usize, usize, usize)> = (0..MATERIALS.len())
        .flat_map(|m| {
            (0..MODES.len()).flat_map(move |o| (0..JOB_CELLS.len()).map(move |c| (m, o, c)))
        })
        .collect();
    let mut jobs: Vec<JobSpec> = Vec::with_capacity(n);
    while jobs.len() < n {
        let mut order = combos.clone();
        rng.shuffle(&mut order);
        for (m, o, c) in order {
            if jobs.len() == n {
                break;
            }
            let earlier = jobs
                .iter()
                .rev()
                .find(|j| j.material == MATERIALS[m] && j.mode == o && j.cells == JOB_CELLS[c]);
            let job = match earlier {
                Some(j) if rng.below(2) == 0 => j.clone(),
                _ => JobSpec {
                    material: MATERIALS[m],
                    cells: JOB_CELLS[c],
                    mode: o,
                    steps: 20 * (1 + ((m + o + c) % 3) as u64),
                    lattice_seed: rng.seed(),
                    velocity_seed: rng.seed(),
                },
            };
            jobs.push(job);
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_bytes(seed: u64) -> String {
        job_list(seed, 300)
            .iter()
            .map(JobSpec::to_json)
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn same_seed_gives_identical_job_list() {
        assert_eq!(list_bytes(11), list_bytes(11));
        assert_ne!(list_bytes(11), list_bytes(12));
    }

    #[test]
    fn job_specs_parse_and_write_no_files() {
        for job in job_list(3, 48) {
            let json = job.to_json();
            assert!(!json.contains("dump") && !json.contains("checkpoint"));
            let scenario = lammps_tersoff_vector::scenario::Scenario::from_json(&json)
                .unwrap_or_else(|e| panic!("{json}: {e}"));
            assert_eq!(scenario.n_atoms() as u64, job.atoms());
        }
    }

    #[test]
    fn job_mix_is_balanced_and_repeats_about_half() {
        let jobs = job_list(5, 480);
        for o in 0..MODES.len() {
            assert_eq!(jobs.iter().filter(|j| j.mode == o).count(), 120);
        }
        let repeats = jobs
            .iter()
            .enumerate()
            .filter(|(i, j)| jobs[..*i].contains(j))
            .count();
        assert!((150..=330).contains(&repeats), "{repeats} repeats of 480");
    }

    #[test]
    fn same_seed_gives_identical_initial_state() {
        let bits = |seed| {
            let (lattice_seed, _) = md_seeds(seed);
            let (sim_box, atoms) = md_state(&SI_HOT_DOMAIN, lattice_seed);
            let mut v: Vec<u64> = sim_box.lengths().iter().map(|x| x.to_bits()).collect();
            v.extend(atoms.x.iter().flatten().map(|x| x.to_bits()));
            v
        };
        assert_eq!(bits(1), bits(1));
        assert_ne!(bits(1), bits(2));
        assert_ne!(md_seeds(1), md_seeds(2));
    }
}
