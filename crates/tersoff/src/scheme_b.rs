//! Vectorization scheme (1b): the I and J loops fused and mapped onto the
//! vector lanes (Fig. 1b of the paper).
//!
//! This is the scheme for long vectors (8 or 16 lanes) where one atom's
//! neighbor list is far too short to fill a vector: the "filter" component
//! packs every in-cutoff (i, j) pair into a flat list and the computational
//! component consumes `W` pairs at a time, so the pair-level lanes are always
//! (nearly) full. The price is that atom i now differs between lanes:
//!
//! * the K loop traverses a different neighbor list in every lane, handled
//!   with the fast-forward iteration of Sec. IV-C;
//! * force updates may target the same atom from several lanes, handled with
//!   serialized (conflict-safe) scatter-adds — the `ordered simd` /
//!   AVX-512CD discussion of Sec. V-A.

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

/// Scheme (1b): fused I·J across the vector lanes.
#[derive(Clone, Debug)]
pub struct TersoffSchemeB<T: Real, A: Real, const W: usize> {
    params: TersoffParams,
    packed: PackedParams<T>,
    /// Lane-occupancy statistics of the last `compute` call (filled when
    /// `collect_stats` is set).
    pub stats: KernelStats,
    /// Whether to collect statistics.
    pub collect_stats: bool,
    /// Use the fast-forward K iteration (default true). Setting this to
    /// false reproduces the "unoptimized" left half of Fig. 2 for the
    /// ablation benchmark.
    pub fast_forward: bool,
    /// Per-step shared state (filtered lists, packed pairs, packed
    /// positions), refreshed in place by [`RangePotential::prepare`].
    prep: Prepared<T>,
    /// Scratch for the single-threaded [`Potential::compute`] entry point.
    own_scratch: PairSchemeScratch<T, A, W>,
    /// The vektor implementation this kernel instance executes (selected at
    /// construction, kernel-granular — see `vektor::dispatch`).
    backend: BackendImpl,
    _acc: std::marker::PhantomData<A>,
}

impl<T: Real, A: Real, const W: usize> TersoffSchemeB<T, A, W> {
    /// Create from a parameter set.
    pub fn new(params: TersoffParams) -> Self {
        let packed = PackedParams::new(&params);
        TersoffSchemeB {
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

    /// Disable the fast-forward optimization (ablation).
    pub fn without_fast_forward(mut self) -> Self {
        self.fast_forward = false;
        self
    }

    /// The parameter set in use.
    pub fn params(&self) -> &TersoffParams {
        &self.params
    }
}

impl<T: Real, A: Real, const W: usize> Potential for TersoffSchemeB<T, A, W> {
    fn name(&self) -> String {
        format!("tersoff/scheme-b/w{W}")
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

impl<T: Real, A: Real, const W: usize> TersoffSchemeB<T, A, W> {
    /// Fold per-thread diagnostics back into the potential.
    fn absorb(&mut self, scratch: &mut PairSchemeScratch<T, A, W>) {
        if self.collect_stats {
            self.stats.merge(&scratch.stats);
            scratch.stats.reset();
        }
    }

    /// The actual kernel over the packed pairs of a contiguous range of
    /// central atoms (pairs of one atom are contiguous in the packed list).
    /// Allocation-free in steady state. For `A = f64` the forces accumulate
    /// directly in `out` (no scratch buffer, no fold); reduced precisions
    /// use the `A`-typed scratch buffer and fold once at the end.
    fn range_kernel(
        &self,
        atoms: &AtomData,
        sim_box: &SimBox,
        range: Range<usize>,
        scratch: &mut PairSchemeScratch<T, A, W>,
        out: &mut ComputeOutput,
    ) {
        let pairs = &self.prep.pairs;
        if self.collect_stats {
            scratch.stats.reset();
        }
        let pair_lo = pairs.first_pair[range.start];
        let pair_hi = pairs.first_pair[range.end];
        if pair_lo == pair_hi {
            return;
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
            self.pair_loop_dispatch(
                &ctx,
                pair_lo,
                pair_hi,
                &mut acc,
                &mut scratch.tape,
                &mut scratch.stats,
            );
        } else {
            scratch.acc.reset(atoms.n_total());
            let mut acc = AccView {
                forces: scratch.acc.forces.as_mut_slice(),
                energy: &mut energy,
                virial: &mut virial,
                tensor: &mut tensor,
            };
            self.pair_loop_dispatch(
                &ctx,
                pair_lo,
                pair_hi,
                &mut acc,
                &mut scratch.tape,
                &mut scratch.stats,
            );
            scratch.acc.fold_into(out);
        }
        out.energy += energy.to_f64();
        out.virial += virial.to_f64();
        for (dst, src) in out.virial_tensor.iter_mut().zip(tensor.iter()) {
            *dst += src.to_f64();
        }
    }

    /// The pair-vector loop, writing into the borrowed accumulation target.
    /// Generic over the executing backend `B` and `#[inline(always)]` so
    /// the loop — including every [`process_pair_vector`] it drives —
    /// compiles inside the per-ISA `#[target_feature]` entries below.
    #[inline(always)]
    fn pair_loop<B: SimdBackend>(
        &self,
        ctx: &PairKernelCtx<'_, T>,
        pair_lo: usize,
        pair_hi: usize,
        acc: &mut AccView<'_, A>,
        tape: &mut Vec<KTapeEntry<T, W>>,
        stats: &mut KernelStats,
    ) {
        let pairs = &self.prep.pairs;
        let mut pv = pair_lo;
        while pv < pair_hi {
            let lane_count = (pair_hi - pv).min(W);
            let lane_mask = SimdM::<W>::prefix(lane_count);
            let mut i_idx = [pairs.i[pv] as usize; W];
            let mut j_idx = [pairs.j[pv] as usize; W];
            for lane in 0..lane_count {
                i_idx[lane] = pairs.i[pv + lane] as usize;
                j_idx[lane] = pairs.j[pv + lane] as usize;
            }
            let stats = if self.collect_stats {
                Some(&mut *stats)
            } else {
                None
            };
            process_pair_vector::<B, T, A, W>(ctx, &i_idx, &j_idx, lane_mask, acc, tape, stats);
            pv += W;
        }
    }
}

impl<T: Real, A: Real, const W: usize> RangePotential for TersoffSchemeB<T, A, W> {
    fn prepare(&mut self, atoms: &AtomData, sim_box: &SimBox, neighbors: &NeighborList) {
        if self.collect_stats {
            self.stats.reset();
        }
        self.prep
            .refresh(atoms, sim_box, neighbors, self.params.max_cutoff, true);
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

impl<T: Real, A: Real, const W: usize> TersoffSchemeB<T, A, W> {
    vektor::multiversion_entries! {
        /// The per-ISA trampoline of scheme (1b): `pair_loop` is
        /// `#[inline(always)]`, so each generated `#[target_feature]`
        /// entry compiles the whole loop — including every
        /// [`process_pair_vector`] it drives — with its ISA enabled.
        fn pair_loop_dispatch / pair_loop_avx2 / pair_loop_avx512 = pair_loop(
            &self,
            ctx: &PairKernelCtx<'_, T>,
            pair_lo: usize,
            pair_hi: usize,
            acc: &mut AccView<'_, A>,
            tape: &mut Vec<KTapeEntry<T, W>>,
            stats: &mut KernelStats,
        );
    }
}

/// AVX-512-class mixed precision instantiation (16 × f32, f64 accumulation) —
/// the paper's `Opt-M` on the Xeon Phi uses this mapping.
pub type TersoffSchemeBPhiM = TersoffSchemeB<f32, f64, 16>;
/// AVX2-class single precision instantiation (8 × f32).
pub type TersoffSchemeBAvx2S = TersoffSchemeB<f32, f32, 8>;

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
        let (b, atoms, list) = setup(0.08, 41);
        let mut reference = TersoffRef::new(TersoffParams::silicon());
        let out_ref = run(&mut reference, &b, &atoms, &list);

        macro_rules! check_width {
            ($w:expr) => {{
                let mut pot = TersoffSchemeB::<f64, f64, $w>::new(TersoffParams::silicon());
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
        check_width!(2);
        check_width!(4);
        check_width!(8);
        check_width!(16);
    }

    #[test]
    fn fast_forward_does_not_change_results() {
        let (b, atoms, list) = setup(0.06, 2);
        let mut ff = TersoffSchemeB::<f64, f64, 8>::new(TersoffParams::silicon()).with_stats();
        let mut naive = TersoffSchemeB::<f64, f64, 8>::new(TersoffParams::silicon())
            .without_fast_forward()
            .with_stats();
        let out_ff = run(&mut ff, &b, &atoms, &list);
        let out_naive = run(&mut naive, &b, &atoms, &list);
        assert!((out_ff.energy - out_naive.energy).abs() < 1e-10 * out_ff.energy.abs());
        assert!(out_ff.max_force_difference(&out_naive) < 1e-10);
        // The fast-forwarded variant achieves higher occupancy in its
        // computing iterations (that is its whole point).
        assert!(
            ff.stats.k_occupancy() >= naive.stats.k_occupancy(),
            "fast-forward occupancy {} < naive occupancy {}",
            ff.stats.k_occupancy(),
            naive.stats.k_occupancy()
        );
    }

    #[test]
    fn mixed_and_single_precision_track_double() {
        let (b, atoms, list) = setup(0.05, 19);
        let mut d = TersoffSchemeB::<f64, f64, 8>::new(TersoffParams::silicon());
        let mut s = TersoffSchemeB::<f32, f32, 16>::new(TersoffParams::silicon());
        let mut m = TersoffSchemeBPhiM::new(TersoffParams::silicon());
        let out_d = run(&mut d, &b, &atoms, &list);
        let out_s = run(&mut s, &b, &atoms, &list);
        let out_m = run(&mut m, &b, &atoms, &list);
        assert!(((out_s.energy - out_d.energy) / out_d.energy).abs() < 2e-5);
        assert!(((out_m.energy - out_d.energy) / out_d.energy).abs() < 2e-5);
        let scale = out_d.max_force_component().max(1.0);
        assert!(out_s.max_force_difference(&out_d) / scale < 1e-4);
        assert!(out_m.max_force_difference(&out_d) / scale < 1e-4);
    }

    #[test]
    fn pair_occupancy_is_high_even_with_long_vectors() {
        // The whole point of the fused scheme: pair-level lanes stay full even
        // when the per-atom neighbor list (4) is much shorter than the vector
        // width (16).
        let (b, atoms, list) = setup(0.0, 0);
        let mut pot = TersoffSchemeB::<f64, f64, 16>::new(TersoffParams::silicon()).with_stats();
        let _ = run(&mut pot, &b, &atoms, &list);
        assert!(
            pot.stats.pair_occupancy() > 0.95,
            "pair occupancy {}",
            pot.stats.pair_occupancy()
        );
    }

    #[test]
    fn multispecies_matches_reference() {
        let (b, atoms) = Lattice::silicon_carbide([2, 2, 2]).build_perturbed(0.04, 8);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        let mut reference = TersoffRef::new(TersoffParams::silicon_carbide());
        let mut pot = TersoffSchemeB::<f64, f64, 8>::new(TersoffParams::silicon_carbide());
        let out_ref = run(&mut reference, &b, &atoms, &list);
        let out = run(&mut pot, &b, &atoms, &list);
        assert!((out.energy - out_ref.energy).abs() < 1e-9 * out_ref.energy.abs());
        assert!(out.max_force_difference(&out_ref) < 1e-8);
    }

    #[test]
    fn empty_system_is_a_noop() {
        let atoms = AtomData::new();
        let b = SimBox::cubic(10.0);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        let mut pot = TersoffSchemeB::<f64, f64, 8>::new(TersoffParams::silicon());
        let out = run(&mut pot, &b, &atoms, &list);
        assert_eq!(out.energy, 0.0);
    }
}
