//! The shared per-pair-vector computational kernel used by the fused scheme
//! (1b) and the warp-style scheme (1c).
//!
//! Both schemes end up with a vector of (i, j) pairs in which the central
//! atom i *differs between lanes*; what differs between them is only how
//! those pairs are formed (pre-packed by the filter for 1b, lock-stepped over
//! the J loop for 1c). Everything downstream is identical and lives here:
//!
//! * one K-loop pass over each lane's own neighbor list, optionally using the
//!   **fast-forward** iteration of Sec. IV-C (lanes that are ready to compute
//!   idle while the others catch up, so the expensive ζ kernel only ever runs
//!   with as many lanes active as possible). As in scheme (1a), this is the
//!   Algorithm-3 single K loop: ζ and its i/j gradients accumulate in lanes,
//!   and each computing step's ∇_k ζ goes on a tape of [`KTapeEntry`]s that
//!   is replayed, scaled by δζ, once the bond order is known;
//! * the pair-level energy/force evaluation;
//! * the force scatter with **conflict handling** (building block 3), since
//!   nothing guarantees distinct targets when i varies per lane;
//! * the virial, accumulated per lane and reduced once per pair vector.

use crate::accumulate::{fold_flat_forces, AccView};
use crate::filter::FilteredNeighbors;
use crate::stats::KernelStats;
use crate::vector_kernel::{
    force_zeta_v, min_image_v, repulsive_v, zeta_term_and_gradients_v, PackedParams,
};
use md_core::potential::{ComputeOutput, VOIGT};
use vektor::conflict::scatter_add3;
use vektor::gather::adjacent_gather3_in;
use vektor::{Real, SimdBackend, SimdF, SimdI, SimdM};

/// Read-only context shared by every pair vector of one `compute` call.
pub struct PairKernelCtx<'a, T: Real> {
    /// Packed parameter table.
    pub packed: &'a PackedParams<T>,
    /// Packed positions, stride 4.
    pub positions: &'a [T],
    /// Atom types.
    pub types: &'a [usize],
    /// Filtered neighbor lists (the K loop iterates these).
    pub filtered: &'a FilteredNeighbors,
    /// Box lengths in compute precision.
    pub lengths: [T; 3],
    /// Periodicity flags.
    pub periodic: [bool; 3],
    /// Use the fast-forward K iteration (true) or the naive
    /// compute-as-soon-as-any-lane-is-ready iteration (false).
    pub fast_forward: bool,
}

/// The scratch force buffer in accumulation precision `A` — used by the
/// reduced-precision modes; `A = f64` kernels bypass it and write straight
/// into the per-thread [`ComputeOutput`] (see [`crate::accumulate`]).
#[derive(Clone, Debug, Default)]
pub struct Accumulators<A: Real> {
    /// Per-atom forces, stride 3.
    pub forces: Vec<A>,
}

impl<A: Real> Accumulators<A> {
    /// Zeroed accumulators for `n` atoms.
    pub fn new(n_atoms: usize) -> Self {
        let mut acc = Accumulators::default();
        acc.reset(n_atoms);
        acc
    }

    /// Zero in place, reusing the force allocation (allocation-free once the
    /// buffer has reached the steady-state atom count).
    pub fn reset(&mut self, n_atoms: usize) {
        self.forces.clear();
        self.forces.resize(n_atoms * 3, A::ZERO);
    }

    /// Fold the force buffer into a double-precision output.
    pub fn fold_into(&self, out: &mut ComputeOutput) {
        fold_flat_forces(&self.forces, out);
    }
}

/// One computing step of the K pass, kept until δζ is known: which lanes
/// computed, their k atoms, the i→k displacements and ∇_k ζ.
#[derive(Copy, Clone, Debug)]
pub struct KTapeEntry<T: Real, const W: usize> {
    k_cand: [usize; W],
    ready: SimdM<W>,
    del_ik: [SimdF<T, W>; 3],
    grad_k: [SimdF<T, W>; 3],
}

/// Reusable per-thread scratch shared by the pair-vector schemes (1b)/(1c):
/// the accumulation buffers, the K tape, and per-thread kernel statistics.
#[derive(Clone, Debug, Default)]
pub struct PairSchemeScratch<T: Real, A: Real, const W: usize> {
    /// Force accumulators in the accumulation precision.
    pub acc: Accumulators<A>,
    /// The K tape [`process_pair_vector`] records and replays, reused
    /// across pair vectors (allocation-free once it reaches its
    /// steady-state length).
    pub tape: Vec<KTapeEntry<T, W>>,
    /// Per-thread lane-occupancy statistics.
    pub stats: KernelStats,
}

/// Process one vector of (i, j) pairs: the single K pass (ζ and its
/// gradients), pair terms, the replay of the K tape, force scatter and
/// virial. `lane_mask` marks lanes holding a real pair. The accumulation
/// target is a borrowed [`AccView`], so the caller decides whether forces
/// land in an `A`-precision scratch buffer or (for `A = f64`) directly in
/// the per-thread output.
///
/// Generic over the executing backend `B` and `#[inline(always)]`: the
/// schemes' loop bodies inline this into their per-ISA
/// `#[target_feature]` kernel instances, so the selects/reductions below
/// compile to wide vector instructions even in a baseline build.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn process_pair_vector<B: SimdBackend, T: Real, A: Real, const W: usize>(
    ctx: &PairKernelCtx<'_, T>,
    i_idx: &[usize; W],
    j_idx: &[usize; W],
    lane_mask_in: SimdM<W>,
    acc: &mut AccView<'_, A>,
    tape: &mut Vec<KTapeEntry<T, W>>,
    mut stats: Option<&mut KernelStats>,
) {
    let to_acc = |x: T| A::from_f64(x.to_f64());

    let xi = adjacent_gather3_in::<B, T, W, 4>(ctx.positions, i_idx, lane_mask_in);
    let xj = adjacent_gather3_in::<B, T, W, 4>(ctx.positions, j_idx, lane_mask_in);
    let del_ij = min_image_v::<B, T, W>(
        [xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]],
        ctx.lengths,
        ctx.periodic,
    );
    let rsq = del_ij[0] * del_ij[0] + del_ij[1] * del_ij[1] + del_ij[2] * del_ij[2];

    // Per-lane (i, j, ·) parameter-table rows: the pair entry (i, j, j) and
    // the base the K loop adds each k type to.
    let mut pair_idx = [0usize; W];
    let mut ij_base = [0usize; W];
    for lane in 0..W {
        let tj = ctx.types[j_idx[lane]];
        ij_base[lane] = ctx.packed.index(ctx.types[i_idx[lane]], tj, 0);
        pair_idx[lane] = ij_base[lane] + tj;
    }
    let p_ij = ctx.packed.gather_in::<B, W>(&pair_idx, lane_mask_in);
    let lane_mask = lane_mask_in & rsq.simd_lt(p_ij.cutsq);
    if let Some(s) = stats.as_deref_mut() {
        s.record_pair_vector(lane_mask.count());
    }
    if lane_mask.none() {
        return;
    }
    // Guard inactive lanes against division by zero (i == j padding).
    let rsq_safe = B::select(lane_mask, rsq, SimdF::one());
    let rij = rsq_safe.sqrt();

    // Per-lane K-iteration bounds over the filtered list of each lane's i.
    let mut k_start = [0i64; W];
    let mut k_end = [0i64; W];
    for lane in 0..W {
        if lane_mask.lane(lane) {
            k_start[lane] = ctx.filtered.first[i_idx[lane]] as i64;
            k_end[lane] = ctx.filtered.first[i_idx[lane] + 1] as i64;
        }
    }
    let k_end_v = SimdI::from_array(k_end);

    // ---- The K pass: ζ, ∇_j ζ and ∇_i ζ in lanes, ∇_k ζ onto the tape. ----
    let mut zeta = SimdF::<T, W>::zero();
    let mut dzeta_i = [SimdF::<T, W>::zero(); 3];
    let mut dzeta_j = [SimdF::<T, W>::zero(); 3];
    tape.clear();
    let mut k_pos = SimdI::from_array(k_start);
    loop {
        let iterating = lane_mask & k_pos.simd_lt(k_end_v);
        if iterating.none() {
            break;
        }
        // Candidate neighbor per lane.
        let mut k_cand = [0usize; W];
        for lane in 0..W {
            if iterating.lane(lane) {
                k_cand[lane] = ctx.filtered.lists[k_pos.lane(lane) as usize] as usize;
            }
        }
        let xk = adjacent_gather3_in::<B, T, W, 4>(ctx.positions, &k_cand, iterating);
        let del_ik = min_image_v::<B, T, W>(
            [xk[0] - xi[0], xk[1] - xi[1], xk[2] - xi[2]],
            ctx.lengths,
            ctx.periodic,
        );
        let rsq_ik = del_ik[0] * del_ik[0] + del_ik[1] * del_ik[1] + del_ik[2] * del_ik[2];
        let mut trip_idx = [0usize; W];
        for lane in 0..W {
            trip_idx[lane] = ij_base[lane] + ctx.types[k_cand[lane]];
        }
        let p_ijk = ctx.packed.gather_in::<B, W>(&trip_idx, iterating);

        let mut ready = iterating & rsq_ik.simd_lt(p_ijk.cutsq);
        for lane in 0..W {
            if k_cand[lane] == j_idx[lane] {
                ready.set_lane(lane, false);
            }
        }

        // Which lanes compute this round and which advance: fast-forward
        // advances only the not-ready lanes until every iterating lane is
        // ready; the naive iteration computes whoever is ready and advances
        // all.
        let (compute, advance) = if ctx.fast_forward {
            let spin = iterating.and_not(ready);
            if spin.any() {
                (SimdM::all_false(), spin)
            } else {
                (ready, ready)
            }
        } else {
            (ready, iterating)
        };

        if compute.none() {
            if let Some(s) = stats.as_deref_mut() {
                s.record_k_spin();
            }
        } else {
            if let Some(s) = stats.as_deref_mut() {
                s.record_k_compute(compute.count());
            }
            let rik = B::select(compute, rsq_ik, SimdF::one()).sqrt();
            let (z, grad_j, grad_k) =
                zeta_term_and_gradients_v::<B, T, W>(&p_ijk, del_ij, rij, del_ik, rik);
            zeta += B::masked(z, compute);
            for d in 0..3 {
                dzeta_j[d] += B::masked(grad_j[d], compute);
                dzeta_i[d] -= B::masked(grad_j[d] + grad_k[d], compute);
            }
            tape.push(KTapeEntry {
                k_cand,
                ready: compute,
                del_ik,
                grad_k,
            });
        }
        k_pos = k_pos.masked_increment(advance);
    }

    // ---- Pair terms and δζ. ----
    let (e_rep, de_rep) = repulsive_v::<B, T, W>(&p_ij, rij);
    let (e_att, de_att, de_dzeta) = force_zeta_v::<B, T, W>(&p_ij, rij, zeta);
    *acc.energy += to_acc(B::masked_sum(e_rep + e_att, lane_mask));
    let fpair = (de_rep + de_att) / rij;
    let prefactor = -de_dzeta;

    let mut fi = [SimdF::<T, W>::zero(); 3];
    let mut fj = [SimdF::<T, W>::zero(); 3];
    let mut fj_3body = [SimdF::<T, W>::zero(); 3];
    for d in 0..3 {
        let pair_f = fpair * del_ij[d];
        fj_3body[d] = prefactor * dzeta_j[d];
        fi[d] = pair_f + prefactor * dzeta_i[d];
        fj[d] = fj_3body[d] - pair_f;
    }

    // Per-lane virial: pair part plus the j-side three-body part, scalar
    // trace and tensor side by side; the k side joins during the replay.
    let mut virial = -(fpair * rsq);
    let mut tensor = [SimdF::<T, W>::zero(); 6];
    for d in 0..3 {
        virial += del_ij[d] * fj_3body[d];
    }
    for (c, (a, b)) in VOIGT.iter().enumerate() {
        tensor[c] = del_ij[*a] * fj_3body[*b] - fpair * del_ij[*a] * del_ij[*b];
    }

    // ---- Replay the tape: forces on k, k-side virial. ----
    for entry in tape.iter() {
        let gk: [SimdF<T, W>; 3] =
            std::array::from_fn(|d| B::masked(prefactor * entry.grad_k[d], entry.ready));
        for d in 0..3 {
            virial += entry.del_ik[d] * gk[d];
        }
        for (c, (a, b)) in VOIGT.iter().enumerate() {
            tensor[c] += entry.del_ik[*a] * gk[*b];
        }
        // Force on k: lanes may collide with each other (and with i/j of
        // other lanes), so the accumulation is conflict-handled.
        let fk: [SimdF<A, W>; 3] = [gk[0].convert(), gk[1].convert(), gk[2].convert()];
        scatter_add3::<A, W, 3>(acc.forces, &entry.k_cand, entry.ready, fk);
    }
    *acc.virial += to_acc(B::masked_sum(virial, lane_mask));
    for (dst, t) in acc.tensor.iter_mut().zip(tensor) {
        *dst += to_acc(B::masked_sum(t, lane_mask));
    }

    // ---- Scatter the i / j forces (conflicts possible in both). ----
    let fi_acc: [SimdF<A, W>; 3] = [
        B::masked(fi[0], lane_mask).convert(),
        B::masked(fi[1], lane_mask).convert(),
        B::masked(fi[2], lane_mask).convert(),
    ];
    let fj_acc: [SimdF<A, W>; 3] = [
        B::masked(fj[0], lane_mask).convert(),
        B::masked(fj[1], lane_mask).convert(),
        B::masked(fj[2], lane_mask).convert(),
    ];
    scatter_add3::<A, W, 3>(acc.forces, i_idx, lane_mask, fi_acc);
    scatter_add3::<A, W, 3>(acc.forces, j_idx, lane_mask, fj_acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TersoffParams;

    /// The kernel context builder used by unit tests of this module only;
    /// the integration-level equivalence against the reference implementation
    /// lives in the scheme_b / scheme_c tests.
    #[test]
    fn accumulators_start_zeroed() {
        let acc = Accumulators::<f64>::new(5);
        assert_eq!(acc.forces.len(), 15);
        assert!(acc.forces.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn packed_params_available_for_kernel() {
        let packed = PackedParams::<f32>::new(&TersoffParams::silicon());
        assert_eq!(packed.nelements, 1);
    }
}
