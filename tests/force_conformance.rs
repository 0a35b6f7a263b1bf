//! Force = −∇E for every optimized mode and vectorization scheme.
//!
//! For schemes 1a/1b/1c on Si and SiC, the Opt-D kernel's total energy is
//! differentiated by a fourth-order central difference, and the analytic
//! forces of Opt-D, Opt-S and Opt-M are compared with it. The `f32` modes
//! are held to the same `f64` energy rather than their own: their energy
//! carries ~1e-7 relative rounding noise, which a difference quotient
//! amplifies beyond the force error being tested.

use lammps_tersoff_vector::prelude::*;
use md_core::atom::AtomData;
use md_core::neighbor::{NeighborList, NeighborSettings};
use md_core::potential::ComputeOutput;

const STEP: f64 = 1e-4;
const ATOMS: [usize; 3] = [0, 7, 33];

fn options(mode: ExecutionMode, scheme: Scheme) -> TersoffOptions {
    TersoffOptions {
        mode,
        scheme,
        width: 0,
        threads: 1,
        backend: None,
    }
}

fn compute(pot: &mut dyn Potential, atoms: &AtomData, sim_box: &SimBox) -> ComputeOutput {
    let list = NeighborList::build_binned(atoms, sim_box, NeighborSettings::new(pot.cutoff(), 1.0));
    let mut out = ComputeOutput::zeros(atoms.n_total());
    pot.compute(atoms, sim_box, &list, &mut out);
    out
}

/// Tolerance on `|F − F_fd| / (1 + |F_fd|)`, tied to the compute precision:
/// the difference quotient itself is good to ~1e-9 here, and `f32`
/// positions and lane math leave forces a few hundred `f32` ulps off.
fn tolerance(mode: ExecutionMode) -> f64 {
    match mode {
        ExecutionMode::OptD => 1e-7,
        _ => 1024.0 * f64::from(f32::EPSILON),
    }
}

fn check_forces(name: &str, params: TersoffParams, lattice: Lattice) {
    let (sim_box, atoms) = lattice.build_perturbed(0.05, 11);
    for scheme in [Scheme::JLanes, Scheme::FusedLanes, Scheme::ILanes] {
        let mut pot = make_potential(params.clone(), options(ExecutionMode::OptD, scheme));
        let mut energy_at = |atom: usize, d: usize, dx: f64| {
            let mut moved = atoms.clone();
            moved.x[atom][d] += dx;
            compute(pot.as_mut(), &moved, &sim_box).energy
        };
        let numeric: Vec<[f64; 3]> = ATOMS
            .iter()
            .map(|&atom| {
                std::array::from_fn(|d| {
                    let mut e = |k: f64| energy_at(atom, d, k * STEP);
                    -(8.0 * (e(1.0) - e(-1.0)) - (e(2.0) - e(-2.0))) / (12.0 * STEP)
                })
            })
            .collect();
        for mode in [
            ExecutionMode::OptD,
            ExecutionMode::OptS,
            ExecutionMode::OptM,
        ] {
            let mut pot = make_potential(params.clone(), options(mode, scheme));
            let forces = compute(pot.as_mut(), &atoms, &sim_box).forces;
            for (&atom, fd) in ATOMS.iter().zip(&numeric) {
                for d in 0..3 {
                    let analytic = forces[atom][d];
                    let err = (analytic - fd[d]).abs() / (1.0 + fd[d].abs());
                    assert!(
                        err < tolerance(mode),
                        "{name} {mode:?}/{scheme:?} atom {atom} dim {d}: \
                         analytic {analytic} vs numeric {} (rel err {err:e})",
                        fd[d]
                    );
                }
            }
        }
    }
}

#[test]
fn silicon_forces_are_the_negative_energy_gradient() {
    check_forces("Si", TersoffParams::silicon(), Lattice::silicon([2, 2, 2]));
}

#[test]
fn silicon_carbide_forces_are_the_negative_energy_gradient() {
    check_forces(
        "SiC",
        TersoffParams::silicon_carbide(),
        Lattice::silicon_carbide([2, 2, 2]),
    );
}
