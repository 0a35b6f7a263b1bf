//! Every vector scheme evaluates each in-cutoff (i, j, k) triplet exactly
//! once: `KernelStats::k_active_lanes` (lanes summed over the computing
//! K-loop steps) must equal the triplet count of a plain scalar loop over the
//! filtered neighbor lists, for schemes 1a, 1b and 1c with and without the
//! fast-forward iteration. A kernel that walked the K lists twice (once for
//! ζ, once for its gradients) would report twice the count.

use md_core::atom::AtomData;
use md_core::lattice::Lattice;
use md_core::neighbor::{NeighborList, NeighborSettings};
use md_core::potential::{ComputeOutput, Potential};
use md_core::simbox::SimBox;
use tersoff::filter::FilteredNeighbors;
use tersoff::{KernelStats, TersoffParams, TersoffSchemeA, TersoffSchemeB, TersoffSchemeC};

/// In-cutoff triplets: pairs (i, j) inside the (i, j, j) cutoff, times the
/// neighbors k ≠ j of i inside the (i, j, k) cutoff.
fn scalar_triplet_count(
    atoms: &AtomData,
    sim_box: &SimBox,
    list: &NeighborList,
    params: &TersoffParams,
) -> u64 {
    let filtered = FilteredNeighbors::build(atoms, sim_box, list, params.max_cutoff);
    let rsq = |a: usize, b: usize| {
        let d = sim_box.min_image(atoms.x[a], atoms.x[b]);
        d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    };
    let mut count = 0;
    for i in 0..atoms.n_local {
        let ti = atoms.type_[i];
        for &j in filtered.neighbors_of(i) {
            let j = j as usize;
            let tj = atoms.type_[j];
            if rsq(i, j) >= params.triplet(ti, tj, tj).cutsq {
                continue;
            }
            for &k in filtered.neighbors_of(i) {
                let k = k as usize;
                if k != j && rsq(i, k) < params.triplet(ti, tj, atoms.type_[k]).cutsq {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Run one force evaluation and return the kernel's statistics.
fn stats_of<P: Potential>(
    mut pot: P,
    stats: impl Fn(&P) -> &KernelStats,
    atoms: &AtomData,
    sim_box: &SimBox,
    list: &NeighborList,
) -> u64 {
    let mut out = ComputeOutput::zeros(atoms.n_total());
    pot.compute(atoms, sim_box, list, &mut out);
    stats(&pot).k_active_lanes
}

fn check_system(name: &str, sim_box: SimBox, atoms: AtomData, params: TersoffParams) {
    let list = NeighborList::build_binned(
        &atoms,
        &sim_box,
        NeighborSettings::new(params.max_cutoff, 1.0),
    );
    let expected = scalar_triplet_count(&atoms, &sim_box, &list, &params);
    assert!(expected > 0, "{name}: no triplets in the test system");

    let mut counts: Vec<(String, u64)> = Vec::new();
    let a = TersoffSchemeA::<f64, f64, 4>::new(params.clone()).with_stats();
    counts.push((
        "1a/w4".into(),
        stats_of(a, |p| &p.stats, &atoms, &sim_box, &list),
    ));
    for fast_forward in [true, false] {
        macro_rules! pair_schemes {
            ($($w:expr),*) => {$(
                let mut b = TersoffSchemeB::<f64, f64, $w>::new(params.clone()).with_stats();
                b.fast_forward = fast_forward;
                counts.push((
                    format!("1b/w{}/ff={fast_forward}", $w),
                    stats_of(b, |p| &p.stats, &atoms, &sim_box, &list),
                ));
            )*};
        }
        pair_schemes!(8, 16);
        let mut c = TersoffSchemeC::<f64, f64, 8>::new(params.clone()).with_stats();
        c.fast_forward = fast_forward;
        counts.push((
            format!("1c/w8/ff={fast_forward}"),
            stats_of(c, |p| &p.stats, &atoms, &sim_box, &list),
        ));
    }
    for (scheme, got) in counts {
        assert_eq!(
            got, expected,
            "{name} {scheme}: k_active_lanes {got} vs {expected} in-cutoff triplets"
        );
    }
}

#[test]
fn each_triplet_is_evaluated_exactly_once() {
    let (b, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.08, 5);
    check_system("Si", b, atoms, TersoffParams::silicon());
    let (b, atoms) = Lattice::silicon_carbide([2, 2, 2]).build_perturbed(0.04, 6);
    check_system("SiC", b, atoms, TersoffParams::silicon_carbide());
}
