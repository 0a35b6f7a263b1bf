//! Per-layer probes of the traced run: `vektor` lane math, `tersoff` lane
//! functions, kernels and statistics, and `md_core` neighbor and domain
//! costs, each measured on a workload's own frozen state.

use crate::md::{mode_options, Frozen};
use crate::stats::median;
use md_core::neighbor::{NeighborList, NeighborSettings};
use md_core::potential::{ComputeOutput, Potential};
use md_core::{DomainSimulation, SimulationBuilder, Stage};
use std::hint::black_box;
use std::time::Instant;
use tersoff::driver::{make_potential, make_range_potential, BackendImpl};
use tersoff::filter::FilteredNeighbors;
use tersoff::functions::{zeta_term, ParamT};
use tersoff::params::TersoffParams;
use tersoff::stats::KernelStats;
use tersoff::vector_kernel::{
    bij_and_deriv_v, fa_and_deriv_v, repulsive_v, zeta_term_and_gradients_v, PackedParams,
};
use tersoff::{TersoffSchemeA, TersoffSchemeB};
use vektor::{conflict, gather, math, PortableBackend, Real, SimdBackend, SimdF, SimdM};

/// One per-layer metric value.
pub type Layer = (String, f64);

/// Lanes per timing of a lane micro-benchmark.
const LANES_PER_TIMING: usize = 1 << 19;

/// Timings per micro-benchmark and per kernel; the median is reported.
const REPS: usize = 5;

fn median_time_s(mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

// ---------------------------------------------------------------------------
// Lane inputs drawn from the frozen state
// ---------------------------------------------------------------------------

/// Structure-of-arrays lane inputs in one precision.
struct Inputs<T: Real> {
    /// Pair distances r_ij (within the potential cutoff).
    r: Vec<T>,
    /// Neighbor index j of each pair.
    j: Vec<usize>,
    /// Bond-order argument βζ_ij of each pair.
    beta_zeta: Vec<T>,
    /// ζ_ij of each pair.
    zeta: Vec<T>,
    /// Triplets: components of del_ij and del_ik, and both distances.
    del_ij: [Vec<T>; 3],
    del_ik: [Vec<T>; 3],
    rij: Vec<T>,
    rik: Vec<T>,
    /// Stride-4 packed positions.
    positions: Vec<T>,
}

/// Most pairs and triplets taken from a state.
const MAX_SAMPLES: usize = 4096;

/// Pair and triplet geometry of the frozen state, in f64.
struct Geometry {
    r: Vec<f64>,
    j: Vec<usize>,
    zeta: Vec<f64>,
    triplets: Vec<([f64; 3], f64, [f64; 3], f64)>,
}

fn geometry(frozen: &Frozen, params: &TersoffParams) -> Geometry {
    let p = ParamT::<f64>::from_param(params.triplet(0, 0, 0));
    let cut = params.max_cutoff;
    let x = &frozen.atoms.x;
    let mut g = Geometry {
        r: Vec::new(),
        j: Vec::new(),
        zeta: Vec::new(),
        triplets: Vec::new(),
    };
    for i in 0..frozen.neighbors.n_local {
        let bonds: Vec<([f64; 3], f64, usize)> = frozen
            .neighbors
            .neighbors_of(i)
            .iter()
            .map(|&j| {
                let d = frozen.sim_box.min_image(x[i], x[j]);
                (d, (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt(), j)
            })
            .filter(|&(_, r, _)| r < cut)
            .collect();
        for &(dij, rij, j) in &bonds {
            let mut zeta = 0.0;
            for &(dik, rik, k) in &bonds {
                if k == j {
                    continue;
                }
                let cos = (dij[0] * dik[0] + dij[1] * dik[1] + dij[2] * dik[2]) / (rij * rik);
                zeta += zeta_term(&p, rij, rik, cos);
                if g.triplets.len() < MAX_SAMPLES {
                    g.triplets.push((dij, rij, dik, rik));
                }
            }
            g.r.push(rij);
            g.j.push(j);
            g.zeta.push(zeta);
        }
        if g.r.len() >= MAX_SAMPLES && g.triplets.len() >= MAX_SAMPLES {
            break;
        }
    }
    g.r.truncate(MAX_SAMPLES);
    g.j.truncate(MAX_SAMPLES);
    g.zeta.truncate(MAX_SAMPLES);
    g
}

impl<T: Real> Inputs<T> {
    fn new(g: &Geometry, frozen: &Frozen, params: &TersoffParams) -> Self {
        let beta = params.triplet(0, 0, 0).beta;
        let c = |v: f64| T::from_f64(v);
        Inputs {
            r: g.r.iter().map(|&v| c(v)).collect(),
            j: g.j.clone(),
            beta_zeta: g.zeta.iter().map(|&z| c(beta * z)).collect(),
            zeta: g.zeta.iter().map(|&z| c(z)).collect(),
            del_ij: [0, 1, 2].map(|d| g.triplets.iter().map(|t| c(t.0[d])).collect()),
            del_ik: [0, 1, 2].map(|d| g.triplets.iter().map(|t| c(t.2[d])).collect()),
            rij: g.triplets.iter().map(|t| c(t.1)).collect(),
            rik: g.triplets.iter().map(|t| c(t.3)).collect(),
            positions: frozen
                .atoms
                .x
                .iter()
                .flat_map(|p| [c(p[0]), c(p[1]), c(p[2]), T::ZERO])
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Micro-benchmarks on the kernel's backend instance
// ---------------------------------------------------------------------------

/// A lane loop generic over the executing backend.
trait LaneWork {
    /// Run the loop once; returns a checksum so the work cannot be dropped.
    fn run<B: SimdBackend>(&mut self) -> f64;
}

/// Run `work` on `backend`'s instance: the portable lane loops, or the same
/// body compiled under the AVX2 / AVX-512 features the kernels' own
/// trampolines enable.
fn on_backend<K: LaneWork>(backend: BackendImpl, work: &mut K) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2,fma")]
        unsafe fn avx2<K: LaneWork>(work: &mut K) -> f64 {
            work.run::<vektor::Avx2Kernel>()
        }
        #[target_feature(enable = "avx2,fma,avx512f")]
        unsafe fn avx512<K: LaneWork>(work: &mut K) -> f64 {
            work.run::<vektor::Avx512Kernel>()
        }
        match vektor::dispatch::clamp(backend) {
            // SAFETY: `clamp` selects these only after runtime detection
            // confirmed the host executes the enabled features.
            BackendImpl::Avx2 => unsafe { avx2(work) },
            // SAFETY: as above, for avx512f.
            BackendImpl::Avx512 => unsafe { avx512(work) },
            BackendImpl::Portable => work.run::<PortableBackend>(),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = backend;
        work.run::<PortableBackend>()
    }
}

/// Which lane function a [`Bench`] runs.
const EXP: u8 = 0;
const SIN: u8 = 1;
const COS: u8 = 2;
const POWF: u8 = 3;
const SCATTER: u8 = 4;
const GATHER: u8 = 5;
const BIJ: u8 = 6;
const ZETA: u8 = 7;
const FA: u8 = 8;
const REPULSIVE: u8 = 9;

struct Bench<'a, T: Real, const W: usize, const K: u8> {
    inputs: &'a Inputs<T>,
    packed: &'a PackedParams<T>,
    passes: usize,
    target: Vec<T>,
}

impl<T: Real, const W: usize, const K: u8> Bench<'_, T, W, K> {
    /// Lanes one pass covers.
    fn lanes(&self) -> usize {
        let n = if K == ZETA {
            self.inputs.rij.len()
        } else {
            self.inputs.r.len()
        };
        n / W * W
    }
}

#[inline(always)]
fn load<T: Real, const W: usize>(v: &[T], at: usize) -> SimdF<T, W> {
    SimdF::load(v, at)
}

impl<T: Real, const W: usize, const K: u8> LaneWork for Bench<'_, T, W, K> {
    #[inline(always)]
    fn run<B: SimdBackend>(&mut self) -> f64 {
        let inp = self.inputs;
        let p = self.packed.splat::<W>(0);
        let n = self.lanes();
        let all = SimdM::<W>::all_true();
        let mut acc = SimdF::<T, W>::zero();
        for _ in 0..self.passes {
            for at in (0..n).step_by(W) {
                let y = match K {
                    EXP => math::exp(-(p.lam1 * load::<T, W>(&inp.r, at))),
                    SIN | COS => {
                        let arg = (load::<T, W>(&inp.r, at) - p.bigr) / p.bigd
                            * T::from_f64(std::f64::consts::FRAC_PI_2);
                        if K == SIN {
                            math::sin(arg)
                        } else {
                            math::cos(arg)
                        }
                    }
                    POWF => math::powf_uniform(load::<T, W>(&inp.beta_zeta, at), p.powern.lane(0)),
                    SCATTER => {
                        let idx: [usize; W] = std::array::from_fn(|l| inp.j[at + l]);
                        let r = load::<T, W>(&inp.r, at);
                        conflict::scatter_add3::<T, W, 4>(&mut self.target, &idx, all, [r, r, r]);
                        r
                    }
                    GATHER => {
                        let idx: [usize; W] = std::array::from_fn(|l| inp.j[at + l]);
                        let [a, b, c] =
                            gather::adjacent_gather3_in::<B, T, W, 4>(&inp.positions, &idx, all);
                        a + b + c
                    }
                    BIJ => {
                        let (b, bd) = bij_and_deriv_v::<B, T, W>(&p, load::<T, W>(&inp.zeta, at));
                        b + bd
                    }
                    ZETA => {
                        let dij = [0, 1, 2].map(|d| load::<T, W>(&inp.del_ij[d], at));
                        let dik = [0, 1, 2].map(|d| load::<T, W>(&inp.del_ik[d], at));
                        let (z, gj, gk) = zeta_term_and_gradients_v::<B, T, W>(
                            &p,
                            dij,
                            load::<T, W>(&inp.rij, at),
                            dik,
                            load::<T, W>(&inp.rik, at),
                        );
                        z + gj[0] + gk[2]
                    }
                    FA => {
                        let (f, fd) = fa_and_deriv_v::<B, T, W>(&p, load::<T, W>(&inp.r, at));
                        f + fd
                    }
                    _ => {
                        let (e, de) = repulsive_v::<B, T, W>(&p, load::<T, W>(&inp.r, at));
                        e + de
                    }
                };
                acc += y;
            }
        }
        acc.to_array().iter().map(|v| v.to_f64()).sum::<f64>()
            + self.target.first().map_or(0.0, |v| v.to_f64())
    }
}

fn ns_per_lane<T: Real, const W: usize, const K: u8>(
    backend: BackendImpl,
    inputs: &Inputs<T>,
    packed: &PackedParams<T>,
) -> f64 {
    let mut bench = Bench::<T, W, K> {
        inputs,
        packed,
        passes: 1,
        target: vec![T::ZERO; inputs.positions.len()],
    };
    let lanes = bench.lanes().max(1);
    bench.passes = LANES_PER_TIMING.div_ceil(lanes);
    let total = (bench.passes * lanes) as f64;
    median_time_s(|| {
        black_box(on_backend(backend, &mut bench));
    }) * 1e9
        / total
}

/// Both lane shapes of one function: (`f32x16`, `f64x8`).
fn both_shapes<const K: u8>(
    backend: BackendImpl,
    f32_in: &Inputs<f32>,
    f32_p: &PackedParams<f32>,
    f64_in: &Inputs<f64>,
    f64_p: &PackedParams<f64>,
) -> [(&'static str, f64); 2] {
    [
        ("f32x16", ns_per_lane::<f32, 16, K>(backend, f32_in, f32_p)),
        ("f64x8", ns_per_lane::<f64, 8, K>(backend, f64_in, f64_p)),
    ]
}

/// `vektor` and `tersoff::vector_kernel` lane costs on the frozen state.
pub fn lane_layers(frozen: &Frozen, backend: BackendImpl) -> Vec<Layer> {
    let params = TersoffParams::silicon();
    let g = geometry(frozen, &params);
    let (i32_, i64_) = (
        Inputs::<f32>::new(&g, frozen, &params),
        Inputs::<f64>::new(&g, frozen, &params),
    );
    let (p32, p64) = (
        PackedParams::<f32>::new(&params),
        PackedParams::<f64>::new(&params),
    );
    let runs: [(&str, [(&str, f64); 2]); 10] = [
        (
            "vektor.math.exp",
            both_shapes::<EXP>(backend, &i32_, &p32, &i64_, &p64),
        ),
        (
            "vektor.math.sin",
            both_shapes::<SIN>(backend, &i32_, &p32, &i64_, &p64),
        ),
        (
            "vektor.math.cos",
            both_shapes::<COS>(backend, &i32_, &p32, &i64_, &p64),
        ),
        (
            "vektor.math.powf_uniform",
            both_shapes::<POWF>(backend, &i32_, &p32, &i64_, &p64),
        ),
        (
            "vektor.conflict.scatter_add3",
            both_shapes::<SCATTER>(backend, &i32_, &p32, &i64_, &p64),
        ),
        (
            "vektor.gather.adjacent_gather3",
            both_shapes::<GATHER>(backend, &i32_, &p32, &i64_, &p64),
        ),
        (
            "tersoff.vector_kernel.bij_and_deriv",
            both_shapes::<BIJ>(backend, &i32_, &p32, &i64_, &p64),
        ),
        (
            "tersoff.vector_kernel.zeta_term_and_gradients",
            both_shapes::<ZETA>(backend, &i32_, &p32, &i64_, &p64),
        ),
        (
            "tersoff.vector_kernel.fa_and_deriv",
            both_shapes::<FA>(backend, &i32_, &p32, &i64_, &p64),
        ),
        (
            "tersoff.vector_kernel.repulsive",
            both_shapes::<REPULSIVE>(backend, &i32_, &p32, &i64_, &p64),
        ),
    ];
    runs.iter()
        .flat_map(|(name, shapes)| {
            shapes
                .iter()
                .map(move |(shape, v)| (format!("{name}.{shape}_ns_per_lane"), *v))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Kernels, filter, statistics, neighbor builds
// ---------------------------------------------------------------------------

/// Whole-kernel costs on the frozen state: per-mode `compute` through the
/// force engine and `compute_range` on the bare kernel, the filter build,
/// lane statistics of schemes 1a and 1b, and the neighbor-list build.
pub fn kernel_layers(frozen: &Frozen, backend: BackendImpl) -> Vec<Layer> {
    let params = TersoffParams::silicon();
    let (atoms, sim_box, nl) = (&frozen.atoms, &frozen.sim_box, &frozen.neighbors);
    let n_total = atoms.n_total();
    let mut out = Vec::new();
    let (mut compute_sum, mut range_sum) = (0.0, 0.0);
    for (m, (_, _, prefix)) in crate::gen::MODES.iter().enumerate() {
        let mut pot = make_potential(params.clone(), mode_options(m));
        let mut buf = ComputeOutput::zeros(n_total);
        let compute = median_time_s(|| {
            buf.reset(n_total);
            pot.compute(atoms, sim_box, nl, &mut buf);
        });
        let mut range = make_range_potential(params.clone(), mode_options(m));
        let mut scratch = range.make_scratch();
        let range_s = median_time_s(|| {
            buf.reset(n_total);
            range.prepare(atoms, sim_box, nl);
            range.compute_range(
                atoms,
                sim_box,
                nl,
                0..atoms.n_local,
                scratch.as_mut(),
                &mut buf,
            );
        });
        compute_sum += compute;
        range_sum += range_s;
        out.push((format!("tersoff.{prefix}.compute_ms"), compute * 1e3));
        out.push((format!("tersoff.{prefix}.range_compute_ms"), range_s * 1e3));
    }
    out.push((
        "md_core.force_engine.overhead_fraction".into(),
        (compute_sum - range_sum) / compute_sum,
    ));
    out.push((
        "tersoff.filter.build_ms".into(),
        median_time_s(|| {
            black_box(FilteredNeighbors::build(
                atoms,
                sim_box,
                nl,
                params.max_cutoff,
            ));
        }) * 1e3,
    ));

    let mut a = TersoffSchemeA::<f64, f64, 4>::new(params.clone())
        .with_backend(backend)
        .with_stats();
    let mut b = TersoffSchemeB::<f32, f64, 16>::new(params.clone())
        .with_backend(backend)
        .with_stats();
    let mut buf = ComputeOutput::zeros(n_total);
    a.compute(atoms, sim_box, nl, &mut buf);
    buf.reset(n_total);
    b.compute(atoms, sim_box, nl, &mut buf);
    for (scheme, stats) in [("1a", &a.stats), ("1b", &b.stats)] {
        out.extend(stat_layers(scheme, stats));
    }

    let settings = NeighborSettings::new(params.max_cutoff, frozen.skin);
    out.push((
        "md_core.neighbor.build_binned_ms".into(),
        median_time_s(|| {
            black_box(NeighborList::build_binned(atoms, sim_box, settings));
        }) * 1e3,
    ));
    out.push(("md_core.neighbor.avg_neighbors".into(), nl.average_count()));
    out
}

fn stat_layers(scheme: &str, s: &KernelStats) -> Vec<Layer> {
    vec![
        (
            format!("tersoff.stats.{scheme}.pair_occupancy"),
            s.pair_occupancy(),
        ),
        (
            format!("tersoff.stats.{scheme}.k_occupancy"),
            s.k_occupancy(),
        ),
        (
            format!("tersoff.stats.{scheme}.k_spin_fraction"),
            s.k_spin_fraction(),
        ),
        (
            format!("tersoff.stats.{scheme}.k_iterations"),
            s.k_total_iterations() as f64,
        ),
        (
            format!("tersoff.stats.{scheme}.scalar_fallbacks"),
            s.scalar_fallbacks as f64,
        ),
    ]
}

/// Stage seconds per step from summed stage timers.
pub fn stage_layers(stages: &[f64; 6], steps: u64) -> Vec<Layer> {
    Stage::ALL
        .iter()
        .zip(stages)
        .map(|(s, v)| {
            (
                format!("md_core.stage.{}_s_per_step", s.name()),
                v / steps.max(1) as f64,
            )
        })
        .collect()
}

/// Domain metrics of a run: migrations per 1000 steps, ghost fraction, and
/// comm + migrate share of the stage time.
pub fn domain_layers(
    migrations: u64,
    steps: u64,
    ghost_fraction: f64,
    stages: &[f64; 6],
) -> Vec<Layer> {
    let total: f64 = stages.iter().sum();
    let comm = stages[Stage::ALL
        .iter()
        .position(|&s| s == Stage::Comm)
        .expect("comm stage")]
        + stages[Stage::ALL
            .iter()
            .position(|&s| s == Stage::Migrate)
            .expect("migrate stage")];
    vec![
        (
            "md_core.domain.migrations_per_1000_steps".into(),
            1000.0 * migrations as f64 / steps.max(1) as f64,
        ),
        ("md_core.domain.ghost_fraction".into(), ghost_fraction),
        (
            "md_core.domain.comm_fraction".into(),
            comm / total.max(f64::MIN_POSITIVE),
        ),
    ]
}

/// Run `builder` on a 2×2×1 rank grid for `steps` steps and report its
/// domain metrics (for workloads that are not decomposed themselves).
pub fn domain_probe(builder: SimulationBuilder<Box<dyn Potential>>, steps: u64) -> Vec<Layer> {
    let mut dom = DomainSimulation::new(builder, [2, 2, 1])
        .expect("probe grid is valid for the workload box");
    let before = Stage::ALL.map(|s| dom.sim().timers.seconds(s));
    dom.run(steps);
    let after = Stage::ALL.map(|s| dom.sim().timers.seconds(s));
    let stages: [f64; 6] = std::array::from_fn(|i| after[i] - before[i]);
    domain_layers(dom.migrations(), steps, dom.ghost_fraction(), &stages)
}
