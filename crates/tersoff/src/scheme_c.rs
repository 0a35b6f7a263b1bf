//! Vectorization scheme (1c): I across the vector lanes, J sequential
//! (Fig. 1c of the paper) — the GPU / warp model.
//!
//! Each lane plays the role of one GPU thread that owns one atom i and walks
//! its own neighbor list sequentially. Lanes proceed through the J loop in
//! lock-step; when an atom runs out of neighbors its lane simply idles until
//! the whole block of `W` atoms is done — the warp-divergence effect the
//! paper describes ("95% of the threads in a warp might be inactive").
//! Vector-wide conditionals correspond to warp votes. Everything below the
//! pair level (the single fast-forwarded K pass, conflict-handled scatters)
//! is shared with scheme (1b) via [`crate::pair_kernel`].

use crate::accumulate::{flat_f64_forces, AccView};
use crate::filter::Prepared;
use crate::pair_kernel::{process_pair_vector, KTapeEntry, PairKernelCtx, PairSchemeScratch};
use crate::params::TersoffParams;
use crate::stats::KernelStats;
use crate::vector_kernel::PackedParams;
use md_core::atom::AtomData;
use md_core::force_engine::RangePotential;
use md_core::neighbor::NeighborList;
use md_core::potential::{ComputeOutput, Potential};
use md_core::simbox::SimBox;
use std::any::Any;
use std::ops::Range;
use vektor::dispatch::{self, BackendImpl};
use vektor::{Real, SimdBackend, SimdM};

/// Scheme (1c): I across the vector lanes (warp model).
#[derive(Clone, Debug)]
pub struct TersoffSchemeC<T: Real, A: Real, const W: usize> {
    params: TersoffParams,
    packed: PackedParams<T>,
    /// Lane-occupancy statistics of the last `compute` call.
    pub stats: KernelStats,
    /// Whether to collect statistics.
    pub collect_stats: bool,
    /// Use the fast-forward K iteration (warp votes make this nearly free on
    /// real GPUs; kept here for parity with scheme 1b).
    pub fast_forward: bool,
    /// Per-step shared state, refreshed in place by
    /// [`RangePotential::prepare`].
    prep: Prepared<T>,
    /// Scratch for the single-threaded [`Potential::compute`] entry point.
    own_scratch: PairSchemeScratch<T, A, W>,
    /// The vektor implementation this kernel instance executes (selected at
    /// construction, kernel-granular — see `vektor::dispatch`).
    backend: BackendImpl,
    _acc: std::marker::PhantomData<A>,
}

impl<T: Real, A: Real, const W: usize> TersoffSchemeC<T, A, W> {
    /// Create from a parameter set.
    pub fn new(params: TersoffParams) -> Self {
        let packed = PackedParams::new(&params);
        TersoffSchemeC {
            params,
            packed,
            stats: KernelStats::new(W),
            collect_stats: false,
            fast_forward: true,
            prep: Prepared::default(),
            own_scratch: PairSchemeScratch::default(),
            backend: dispatch::default_backend(),
            _acc: std::marker::PhantomData,
        }
    }

    /// Select the vektor implementation this kernel instance executes
    /// (clamped to host support; results are bitwise identical either way).
    pub fn with_backend(mut self, backend: BackendImpl) -> Self {
        self.backend = dispatch::clamp(backend);
        self
    }

    /// The vektor implementation this kernel instance executes.
    pub fn backend(&self) -> BackendImpl {
        self.backend
    }

    /// Enable statistics collection.
    pub fn with_stats(mut self) -> Self {
        self.collect_stats = true;
        self
    }

    /// The parameter set in use.
    pub fn params(&self) -> &TersoffParams {
        &self.params
    }
}

impl<T: Real, A: Real, const W: usize> Potential for TersoffSchemeC<T, A, W> {
    fn name(&self) -> String {
        format!("tersoff/scheme-c/w{W}")
    }

    fn cutoff(&self) -> f64 {
        self.params.max_cutoff
    }

    fn executed_backend(&self) -> Option<&'static str> {
        Some(self.backend.name())
    }

    fn compute(
        &mut self,
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        out: &mut ComputeOutput,
    ) {
        self.prepare(atoms, sim_box, neighbors);
        out.reset(atoms.n_total());
        let mut scratch = std::mem::take(&mut self.own_scratch);
        if scratch.stats.width != W {
            scratch.stats = KernelStats::new(W);
        }
        self.range_kernel(atoms, sim_box, 0..atoms.n_local, &mut scratch, out);
        self.absorb(&mut scratch);
        self.own_scratch = scratch;
    }
}

impl<T: Real, A: Real, const W: usize> TersoffSchemeC<T, A, W> {
    /// Fold per-thread diagnostics back into the potential.
    fn absorb(&mut self, scratch: &mut PairSchemeScratch<T, A, W>) {
        if self.collect_stats {
            self.stats.merge(&scratch.stats);
            scratch.stats.reset();
        }
    }

    /// The actual kernel over a contiguous range of central atoms (warp
    /// blocks of `W` atoms within the range). Allocation-free in steady
    /// state.
    fn range_kernel(
        &self,
        atoms: &AtomData,
        sim_box: &SimBox,
        range: Range<usize>,
        scratch: &mut PairSchemeScratch<T, A, W>,
        out: &mut ComputeOutput,
    ) {
        if self.collect_stats {
            scratch.stats.reset();
        }
        let lengths_f64 = sim_box.lengths();
        let ctx = PairKernelCtx {
            packed: &self.packed,
            positions: &self.prep.packed_x,
            types: &atoms.type_,
            filtered: &self.prep.filtered,
            lengths: [
                T::from_f64(lengths_f64[0]),
                T::from_f64(lengths_f64[1]),
                T::from_f64(lengths_f64[2]),
            ],
            periodic: sim_box.periodic,
            fast_forward: self.fast_forward,
        };

        let mut energy = A::ZERO;
        let mut virial = A::ZERO;
        let mut tensor = [A::ZERO; 6];
        if let Some(direct) = flat_f64_forces::<A>(&mut out.forces) {
            let mut acc = AccView {
                forces: direct,
                energy: &mut energy,
                virial: &mut virial,
                tensor: &mut tensor,
            };
            self.warp_loop_dispatch(&ctx, range, &mut acc, &mut scratch.tape, &mut scratch.stats);
        } else {
            scratch.acc.reset(atoms.n_total());
            let mut acc = AccView {
                forces: scratch.acc.forces.as_mut_slice(),
                energy: &mut energy,
                virial: &mut virial,
                tensor: &mut tensor,
            };
            self.warp_loop_dispatch(&ctx, range, &mut acc, &mut scratch.tape, &mut scratch.stats);
            scratch.acc.fold_into(out);
        }
        out.energy += energy.to_f64();
        out.virial += virial.to_f64();
        for (dst, src) in out.virial_tensor.iter_mut().zip(tensor.iter()) {
            *dst += src.to_f64();
        }
    }

    /// The warp-block loop, writing into the borrowed accumulation target.
    /// Generic over the executing backend `B` and `#[inline(always)]` so
    /// the lock-step J loop — including every [`process_pair_vector`] it
    /// drives — compiles inside the per-ISA `#[target_feature]` entries
    /// below.
    #[inline(always)]
    fn warp_loop<B: SimdBackend>(
        &self,
        ctx: &PairKernelCtx<'_, T>,
        range: Range<usize>,
        acc: &mut AccView<'_, A>,
        tape: &mut Vec<KTapeEntry<T, W>>,
        stats: &mut KernelStats,
    ) {
        let filtered = &self.prep.filtered;
        // Blocks of W atoms; each lane owns one atom ("thread per atom").
        let end = range.end;
        let mut block = range.start;
        while block < end {
            let lane_count = (end - block).min(W);
            let block_mask = SimdM::<W>::prefix(lane_count);
            let mut i_idx = [block.min(end - 1); W];
            let mut counts = [0usize; W];
            for lane in 0..lane_count {
                i_idx[lane] = block + lane;
                counts[lane] = filtered.count(block + lane);
            }
            let max_count = counts.iter().copied().max().unwrap_or(0);

            // Lock-step J loop: lanes whose atom has fewer neighbors idle
            // (warp divergence).
            for jj in 0..max_count {
                let mut lane_mask = block_mask;
                let mut j_idx = [0usize; W];
                for lane in 0..W {
                    if lane < lane_count && jj < counts[lane] {
                        j_idx[lane] = filtered.neighbors_of(i_idx[lane])[jj] as usize;
                    } else {
                        lane_mask.set_lane(lane, false);
                        // Point idle lanes at their own atom; the pair-cutoff
                        // mask keeps them out of the computation.
                        j_idx[lane] = i_idx[lane];
                    }
                }
                if lane_mask.none() {
                    continue;
                }
                let stats = if self.collect_stats {
                    Some(&mut *stats)
                } else {
                    None
                };
                process_pair_vector::<B, T, A, W>(ctx, &i_idx, &j_idx, lane_mask, acc, tape, stats);
            }
            block += W;
        }
    }
}

impl<T: Real, A: Real, const W: usize> RangePotential for TersoffSchemeC<T, A, W> {
    fn prepare(&mut self, atoms: &AtomData, sim_box: &SimBox, neighbors: &NeighborList) {
        if self.collect_stats {
            self.stats.reset();
        }
        self.prep
            .refresh(atoms, sim_box, neighbors, self.params.max_cutoff, false);
    }

    fn make_scratch(&self) -> Box<dyn Any + Send> {
        Box::new(PairSchemeScratch::<T, A, W> {
            stats: KernelStats::new(W),
            ..Default::default()
        })
    }

    fn compute_range(
        &self,
        atoms: &AtomData,
        sim_box: &SimBox,
        _neighbors: &NeighborList,
        range: Range<usize>,
        scratch: &mut (dyn Any + Send),
        out: &mut ComputeOutput,
    ) {
        let scratch = scratch
            .downcast_mut::<PairSchemeScratch<T, A, W>>()
            .expect("scratch type mismatch");
        self.range_kernel(atoms, sim_box, range, scratch, out);
    }

    fn absorb_scratch(&mut self, scratch: &mut (dyn Any + Send)) {
        let scratch = scratch
            .downcast_mut::<PairSchemeScratch<T, A, W>>()
            .expect("scratch type mismatch");
        self.absorb(scratch);
    }
}

impl<T: Real, A: Real, const W: usize> TersoffSchemeC<T, A, W> {
    vektor::multiversion_entries! {
        /// The per-ISA trampoline of scheme (1c): `warp_loop` is
        /// `#[inline(always)]`, so each generated `#[target_feature]`
        /// entry compiles the whole lock-step loop — including every
        /// [`process_pair_vector`] it drives — with its ISA enabled.
        fn warp_loop_dispatch / warp_loop_avx2 / warp_loop_avx512 = warp_loop(
            &self,
            ctx: &PairKernelCtx<'_, T>,
            range: Range<usize>,
            acc: &mut AccView<'_, A>,
            tape: &mut Vec<KTapeEntry<T, W>>,
            stats: &mut KernelStats,
        );
    }
}

/// Warp-style double precision instantiation (32 lanes) — the analog of the
/// paper's Opt-KK-D GPU implementation.
pub type TersoffSchemeCWarpD = TersoffSchemeC<f64, f64, 32>;
/// Warp-style single precision instantiation (the hypothetical Opt-KK-S the
/// paper projects at ≈5 ns/s).
pub type TersoffSchemeCWarpS = TersoffSchemeC<f32, f32, 32>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::TersoffRef;
    use md_core::lattice::Lattice;
    use md_core::neighbor::NeighborSettings;

    fn setup(perturb: f64, seed: u64) -> (SimBox, AtomData, NeighborList) {
        let (b, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(perturb, seed);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        (b, atoms, list)
    }

    fn run<P: Potential>(p: &mut P, b: &SimBox, a: &AtomData, l: &NeighborList) -> ComputeOutput {
        let mut out = ComputeOutput::zeros(a.n_total());
        p.compute(a, b, l, &mut out);
        out
    }

    #[test]
    fn matches_reference_in_double_precision() {
        let (b, atoms, list) = setup(0.08, 51);
        let mut reference = TersoffRef::new(TersoffParams::silicon());
        let out_ref = run(&mut reference, &b, &atoms, &list);

        macro_rules! check_width {
            ($w:expr) => {{
                let mut pot = TersoffSchemeC::<f64, f64, $w>::new(TersoffParams::silicon());
                let out = run(&mut pot, &b, &atoms, &list);
                assert!(
                    (out.energy - out_ref.energy).abs() < 1e-9 * out_ref.energy.abs(),
                    "W={}: energy {} vs {}",
                    $w,
                    out.energy,
                    out_ref.energy
                );
                assert!(
                    out.max_force_difference(&out_ref) < 1e-8,
                    "W={}: force diff {}",
                    $w,
                    out.max_force_difference(&out_ref)
                );
            }};
        }
        check_width!(4);
        check_width!(8);
        check_width!(32);
    }

    #[test]
    fn warp_single_precision_tracks_double() {
        let (b, atoms, list) = setup(0.05, 23);
        let mut d = TersoffSchemeCWarpD::new(TersoffParams::silicon());
        let mut s = TersoffSchemeCWarpS::new(TersoffParams::silicon());
        let out_d = run(&mut d, &b, &atoms, &list);
        let out_s = run(&mut s, &b, &atoms, &list);
        assert!(((out_s.energy - out_d.energy) / out_d.energy).abs() < 2e-5);
    }

    #[test]
    fn stats_are_collected_for_the_warp_scheme() {
        // Perfect silicon has uniform 4-neighbor lists, so there is no warp
        // divergence at the pair level on a 64-atom / 32-lane split; the
        // interesting signal is that the K loop spends iterations spinning
        // past the j == k exclusion while computing iterations stay full.
        let (b, atoms, list) = setup(0.0, 0);
        let mut pot = TersoffSchemeCWarpD::new(TersoffParams::silicon()).with_stats();
        let _ = run(&mut pot, &b, &atoms, &list);
        assert!(pot.stats.pair_vectors > 0);
        assert!(pot.stats.pair_occupancy() > 0.9);
        assert!(pot.stats.k_total_iterations() > 0);
        assert!(pot.stats.k_spin_iterations > 0);
        assert!(pot.stats.k_occupancy() > 0.5);
    }

    #[test]
    fn multispecies_matches_reference() {
        let (b, atoms) = Lattice::silicon_carbide([2, 2, 2]).build_perturbed(0.04, 12);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        let mut reference = TersoffRef::new(TersoffParams::silicon_carbide());
        let mut pot = TersoffSchemeC::<f64, f64, 8>::new(TersoffParams::silicon_carbide());
        let out_ref = run(&mut reference, &b, &atoms, &list);
        let out = run(&mut pot, &b, &atoms, &list);
        assert!((out.energy - out_ref.energy).abs() < 1e-9 * out_ref.energy.abs());
        assert!(out.max_force_difference(&out_ref) < 1e-8);
    }

    #[test]
    fn name_and_cutoff() {
        let pot = TersoffSchemeCWarpD::new(TersoffParams::silicon());
        assert_eq!(pot.name(), "tersoff/scheme-c/w32");
        assert!((pot.cutoff() - 3.0).abs() < 1e-12);
    }
}
