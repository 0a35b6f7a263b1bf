//! Randomized bit-for-bit equivalence of the intrinsic back-ends against the
//! portable array implementation.
//!
//! Two layers:
//!
//! 1. **Direct trait calls** — every dispatched [`SimdBackend`] operation is
//!    compared lane-by-lane against [`PortableBackend`] for both element
//!    types at widths 1–32 (including widths with no hardware coverage,
//!    which must fall back identically).
//! 2. **Trampolined kernel instances** — a full module-surface pass
//!    (`gather.rs` `_in` functions, `conflict.rs`, `reduce.rs`, the backend
//!    trait ops a real kernel uses) written generically over
//!    `B: SimdBackend`, monomorphized through
//!    [`vektor::dispatch::run_kernel`] exactly like the Tersoff kernels,
//!    and compared bitwise against the portable instance. This is what
//!    per-op wrapper tests cannot see: the whole body compiled inside the
//!    `#[target_feature]` entry point.
//!
//! Equivalence is **bit-for-bit** for every operation: data movement is
//! exact, both `mul_add` paths fuse, and the intrinsic horizontal sums
//! reproduce the portable pairwise association. (No approximate rsqrt/exp
//! instructions are used by any backend, so no ULP-bound carve-outs are
//! needed.) The lane-native `math` functions are checked the same way
//! through trampolined instances: their polynomials use plain `*`/`+`
//! only, so every instance must round identically.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::marker::PhantomData;
use std::sync::Mutex;
use vektor::conflict::{
    reduce_add3_uniform, reduce_add_uniform, scatter_add, scatter_add3,
    scatter_add3_conflict_detect,
};
use vektor::dispatch::{self, BackendImpl, KernelBody};
use vektor::gather::{
    adjacent_gather3_in, adjacent_gather_n_in, adjacent_scatter3, adjacent_scatter_add3_distinct_in,
};
use vektor::math;
use vektor::reduce::{reduce3, sum_slice, KahanSum, VectorAccumulator};
use vektor::{PortableBackend, Real, SimdBackend, SimdF, SimdI, SimdM};

const CASES: usize = 96;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn buffer<T: Real>(rng: &mut ChaCha8Rng, n: usize) -> Vec<T> {
    (0..n)
        .map(|_| T::from_f64(rng.gen_range(-1.0e3..1.0e3)))
        .collect()
}

fn lanes<T: Real, const W: usize>(rng: &mut ChaCha8Rng) -> SimdF<T, W> {
    SimdF::from_fn(|_| T::from_f64(rng.gen_range(-1.0e3..1.0e3)))
}

fn indices<const W: usize>(rng: &mut ChaCha8Rng, n: usize) -> [usize; W] {
    std::array::from_fn(|_| rng.gen_range(0..n as i64) as usize)
}

/// Pairwise-distinct indices (one slot per lane), as the conflict-free
/// scatter requires.
fn distinct_indices<const W: usize>(rng: &mut ChaCha8Rng, n: usize) -> [usize; W] {
    let slot = (n / W).max(1);
    std::array::from_fn(|lane| lane * slot + rng.gen_range(0..slot as i64) as usize)
}

fn mask<const W: usize>(rng: &mut ChaCha8Rng) -> SimdM<W> {
    SimdM::from_array(std::array::from_fn(|_| rng.gen_bool(0.5)))
}

#[track_caller]
fn assert_lane_bits<T: Real, const W: usize>(a: SimdF<T, W>, b: SimdF<T, W>, what: &str) {
    for lane in 0..W {
        assert_eq!(
            a.lane(lane).to_f64().to_bits(),
            b.lane(lane).to_f64().to_bits(),
            "{what}: lane {lane} differs: {} vs {}",
            a.lane(lane),
            b.lane(lane)
        );
    }
}

#[track_caller]
fn assert_slice_bits<T: Real>(a: &[T], b: &[T], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_f64().to_bits(),
            y.to_f64().to_bits(),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

// ---------------------------------------------------------------------------
// Layer 1: direct trait calls, backend vs portable
// ---------------------------------------------------------------------------

fn check_trait_ops<B: SimdBackend, T: Real, const W: usize>(seed: u64) {
    let mut r = rng(seed ^ (W as u64) << 8);
    let n = 192usize;
    for _ in 0..CASES {
        let buf: Vec<T> = buffer(&mut r, n);
        let m: SimdM<W> = mask(&mut r);
        let fill = T::from_f64(r.gen_range(-10.0..10.0));
        let offset = r.gen_range(0..(n - W) as i64) as usize;

        // load / store round-trip.
        let loaded: SimdF<T, W> = B::load(&buf, offset);
        assert_lane_bits(loaded, PortableBackend::load(&buf, offset), "load");
        let mut out_a = buf.clone();
        let mut out_b = buf.clone();
        B::store(loaded, &mut out_a, offset / 2);
        PortableBackend::store(loaded, &mut out_b, offset / 2);
        assert_slice_bits(&out_a, &out_b, "store");

        // store_masked.
        let v: SimdF<T, W> = lanes(&mut r);
        B::store_masked(v, &mut out_a, offset, m);
        PortableBackend::store_masked(v, &mut out_b, offset, m);
        assert_slice_bits(&out_a, &out_b, "store_masked");

        // gather; masked gather with wild inactive indices.
        let id: [usize; W] = indices(&mut r, n);
        assert_lane_bits(
            B::gather(&buf, &id),
            PortableBackend::gather(&buf, &id),
            "gather",
        );
        let mut wild = id;
        for (lane, w) in wild.iter_mut().enumerate() {
            if !m.lane(lane) {
                *w = usize::MAX / 2;
            }
        }
        assert_lane_bits(
            B::gather_masked(&buf, &wild, m, fill),
            PortableBackend::gather_masked(&buf, &wild, m, fill),
            "gather_masked",
        );

        // select / mul_add / horizontal_sum.
        let a: SimdF<T, W> = lanes(&mut r);
        let b: SimdF<T, W> = lanes(&mut r);
        let c: SimdF<T, W> = lanes(&mut r);
        assert_lane_bits(
            B::select(m, a, b),
            PortableBackend::select(m, a, b),
            "select",
        );
        assert_lane_bits(
            B::mul_add(a, b, c),
            PortableBackend::mul_add(a, b, c),
            "mul_add",
        );
        assert_eq!(
            B::horizontal_sum(a).to_f64().to_bits(),
            PortableBackend::horizontal_sum(a).to_f64().to_bits(),
            "horizontal_sum differs"
        );

        // Adjacent gathers (position stride 4 and record width 5).
        let id4: [usize; W] = indices(&mut r, n / 4);
        let ga = B::adjacent_gather3::<T, W, 4>(&buf, &id4, m);
        let gb = PortableBackend::adjacent_gather3::<T, W, 4>(&buf, &id4, m);
        for d in 0..3 {
            assert_lane_bits(ga[d], gb[d], "adjacent_gather3");
        }
        let id5: [usize; W] = indices(&mut r, n / 5);
        let na = B::adjacent_gather_n::<T, W, 5>(&buf, &id5, m);
        let nb = PortableBackend::adjacent_gather_n::<T, W, 5>(&buf, &id5, m);
        for d in 0..5 {
            assert_lane_bits(na[d], nb[d], "adjacent_gather_n");
        }

        // Conflict-free scatter (distinct targets).
        let idd: [usize; W] = distinct_indices(&mut r, n / 3);
        let vals = [lanes::<T, W>(&mut r), lanes(&mut r), lanes(&mut r)];
        let mut sa = buf.clone();
        let mut sb = buf.clone();
        B::scatter_add3_distinct::<T, W, 3>(&mut sa, &idd, m, vals);
        PortableBackend::scatter_add3_distinct::<T, W, 3>(&mut sb, &idd, m, vals);
        assert_slice_bits(&sa, &sb, "scatter_add3_distinct");
    }
}

fn check_trait_ops_all_widths<B: SimdBackend>(seed: u64) {
    check_trait_ops::<B, f64, 1>(seed);
    check_trait_ops::<B, f64, 2>(seed);
    check_trait_ops::<B, f64, 3>(seed);
    check_trait_ops::<B, f64, 4>(seed);
    check_trait_ops::<B, f64, 8>(seed);
    check_trait_ops::<B, f64, 16>(seed);
    check_trait_ops::<B, f64, 32>(seed);
    check_trait_ops::<B, f32, 1>(seed);
    check_trait_ops::<B, f32, 2>(seed);
    check_trait_ops::<B, f32, 4>(seed);
    check_trait_ops::<B, f32, 8>(seed);
    check_trait_ops::<B, f32, 16>(seed);
    check_trait_ops::<B, f32, 32>(seed);
}

#[test]
fn portable_trait_is_self_consistent() {
    check_trait_ops_all_widths::<PortableBackend>(11);
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_matches_portable_bit_for_bit() {
    if !dispatch::supported(BackendImpl::Avx2) {
        eprintln!("skipping: avx2+fma not available on this host");
        return;
    }
    check_trait_ops_all_widths::<vektor::Avx2Backend>(23);
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx512_matches_portable_bit_for_bit() {
    if !dispatch::supported(BackendImpl::Avx512) {
        eprintln!("skipping: avx512f not available on this host");
        return;
    }
    check_trait_ops_all_widths::<vektor::Avx512Backend>(37);
}

// ---------------------------------------------------------------------------
// Layer 2: trampolined kernel instances — the whole module surface as one
// kernel body, monomorphized per backend through dispatch::run_kernel
// ---------------------------------------------------------------------------

fn supported_backends() -> Vec<BackendImpl> {
    BackendImpl::ALL
        .into_iter()
        .filter(|&b| dispatch::supported(b))
        .collect()
}

/// One full pass over the kernel-facing module surface with an explicit
/// backend, returning every produced number so instances monomorphized for
/// different backends can be compared bitwise. `#[inline(always)]` so the
/// pass genuinely compiles inside the trampoline's `#[target_feature]`
/// entry function, exactly like a production kernel body.
#[inline(always)]
fn kernel_instance_pass<B: SimdBackend, T: Real, const W: usize>(seed: u64) -> Vec<f64> {
    let mut r = rng(seed);
    let mut trace: Vec<f64> = Vec::new();
    let n = 120usize;
    for _ in 0..CASES / 2 {
        let buf: Vec<T> = buffer(&mut r, n);
        let m: SimdM<W> = mask(&mut r);

        // gather.rs surface (the `_in` forms the kernels call).
        let id4: [usize; W] = indices(&mut r, n / 4);
        let [x, y, z] = adjacent_gather3_in::<B, T, W, 4>(&buf, &id4, m);
        trace.extend(x.to_f64_array());
        trace.extend(y.to_f64_array());
        trace.extend(z.to_f64_array());
        let id2: [usize; W] = indices(&mut r, n / 2);
        let rec = adjacent_gather_n_in::<B, T, W, 2>(&buf, &id2, m);
        trace.extend(rec[0].to_f64_array());
        trace.extend(rec[1].to_f64_array());

        let mut scatter_buf = buf.clone();
        let idd: [usize; W] = distinct_indices(&mut r, n / 3);
        let vals = [lanes::<T, W>(&mut r), lanes(&mut r), lanes(&mut r)];
        adjacent_scatter3::<T, W, 3>(&mut scatter_buf, &idd, m, vals);
        adjacent_scatter_add3_distinct_in::<B, T, W, 3>(&mut scatter_buf, &idd, m, vals);
        trace.extend(scatter_buf.iter().map(|v| v.to_f64()));

        // conflict.rs surface (conflicting indices allowed; serialized
        // accumulation is ordering-defined, hence backend-independent, but
        // it compiles inside the same target_feature body as everything
        // else and must stay bitwise).
        let idc: [usize; W] = indices(&mut r, n / 3);
        let mut target = buf.clone();
        scatter_add::<T, W>(&mut target, &idc, m, vals[0]);
        scatter_add3::<T, W, 3>(&mut target, &idc, m, vals);
        let idc_vec = SimdI::from_usize_array(idc);
        scatter_add3_conflict_detect::<T, W, 3>(&mut target, idc_vec, m, vals);
        trace.extend(target.iter().map(|v| v.to_f64()));
        let mut uniform = T::ZERO;
        reduce_add_uniform(&mut uniform, m, vals[1]);
        trace.push(uniform.to_f64());
        let mut uniform3 = [T::ZERO; 3];
        reduce_add3_uniform(&mut uniform3, m, vals);
        trace.extend(uniform3.iter().map(|v| v.to_f64()));

        // reduce.rs surface.
        let mut kahan = KahanSum::<T>::new();
        kahan.add_vector(vals[0], m);
        kahan.add_vector(vals[1], !m);
        trace.push(kahan.value().to_f64());
        let mut acc = VectorAccumulator::<T, W>::new();
        acc.add(vals[0], m);
        acc.add_all(vals[2]);
        trace.push(acc.reduce().to_f64());
        trace.push(acc.reduce_f64());
        trace.extend(reduce3(vals, m).iter().map(|v| v.to_f64()));
        trace.push(sum_slice::<T, W>(&buf).to_f64());

        // Backend trait ops the way a kernel body calls them.
        let a: SimdF<T, W> = lanes(&mut r);
        let b: SimdF<T, W> = lanes(&mut r);
        let c: SimdF<T, W> = lanes(&mut r);
        trace.push(B::horizontal_sum(a).to_f64());
        trace.push(B::masked_sum(a, m).to_f64());
        trace.extend(B::select(m, a, b).to_f64_array());
        trace.extend(B::mul_add(a, b, c).to_f64_array());
        trace.extend(B::masked(a, m).to_f64_array());
        let id: [usize; W] = indices(&mut r, n);
        trace.extend(B::gather(&buf, &id).to_f64_array());
        let mut st = buf.clone();
        B::store_masked(a, &mut st, 0, m);
        trace.extend(st.iter().map(|v| v.to_f64()));

        // mask.rs surface: scalar bool semantics, backend-independent by
        // construction but part of the audited module set.
        let m2: SimdM<W> = mask(&mut r);
        for v in [
            m.all() as u64,
            m.any() as u64,
            m.none() as u64,
            m.count() as u64,
            (m & m2).count() as u64,
            (m | m2).count() as u64,
            (m ^ m2).count() as u64,
            (!m).count() as u64,
            m.and_not(m2).count() as u64,
            m.first_set().map_or(u64::MAX, |x| x as u64),
        ] {
            trace.push(v as f64);
        }
    }
    trace
}

/// The [`KernelBody`] adapter: what the Tersoff kernels do with their atom
/// loops, done here with the synthetic module pass.
struct ModulePass<T: Real, const W: usize> {
    seed: u64,
    _elem: PhantomData<T>,
}

impl<T: Real, const W: usize> KernelBody for ModulePass<T, W> {
    type Output = Vec<f64>;

    #[inline(always)]
    fn run<B: SimdBackend>(self) -> Vec<f64> {
        kernel_instance_pass::<B, T, W>(self.seed)
    }
}

fn pass_instance<T: Real, const W: usize>(backend: BackendImpl, seed: u64) -> Vec<f64> {
    dispatch::run_kernel(
        backend,
        ModulePass::<T, W> {
            seed,
            _elem: PhantomData,
        },
    )
}

fn check_kernel_instance_equivalence<T: Real, const W: usize>(seed: u64) {
    let reference = pass_instance::<T, W>(BackendImpl::Portable, seed);
    for backend in supported_backends() {
        let got = pass_instance::<T, W>(backend, seed);
        assert_eq!(reference.len(), got.len());
        for (i, (a, b)) in reference.iter().zip(got.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "kernel instance trace diverges under {backend} at position {i}: {a} vs {b} \
                 (T = {}, W = {W})",
                std::any::type_name::<T>()
            );
        }
    }
}

#[test]
fn kernel_instances_are_backend_invariant_f64() {
    check_kernel_instance_equivalence::<f64, 1>(41);
    check_kernel_instance_equivalence::<f64, 4>(42);
    check_kernel_instance_equivalence::<f64, 8>(43);
    check_kernel_instance_equivalence::<f64, 16>(44);
    check_kernel_instance_equivalence::<f64, 32>(45);
}

#[test]
fn kernel_instances_are_backend_invariant_f32() {
    check_kernel_instance_equivalence::<f32, 1>(51);
    check_kernel_instance_equivalence::<f32, 4>(52);
    check_kernel_instance_equivalence::<f32, 8>(53);
    check_kernel_instance_equivalence::<f32, 16>(54);
    check_kernel_instance_equivalence::<f32, 32>(55);
}

// ---------------------------------------------------------------------------
// Lane-native math through the trampolined instances
// ---------------------------------------------------------------------------

const MATH_FNS: [&str; 5] = ["exp", "ln", "sin", "cos", "sincos"];

/// Every `vektor::math` function over the same inputs, one output trace per
/// function, compiled inside the trampoline's entry like a kernel body.
struct MathPass<T: Real, const W: usize> {
    inputs: Vec<T>,
}

impl<T: Real, const W: usize> KernelBody for MathPass<T, W> {
    type Output = [Vec<f64>; 5];

    #[inline(always)]
    fn run<B: SimdBackend>(self) -> [Vec<f64>; 5] {
        let mut out: [Vec<f64>; 5] = Default::default();
        for at in (0..self.inputs.len()).step_by(W) {
            let v = SimdF::<T, W>::load(&self.inputs, at);
            let (s, c) = math::sincos(v);
            out[0].extend(math::exp(v).to_f64_array());
            out[1].extend(math::ln(v).to_f64_array());
            out[2].extend(math::sin(v).to_f64_array());
            out[3].extend(math::cos(v).to_f64_array());
            out[4].extend(s.to_f64_array());
            out[4].extend(c.to_f64_array());
        }
        out
    }
}

/// Inputs over the kernel's argument ranges plus special values and lanes
/// beyond the exact trig reduction, padded to a multiple of `W`.
fn math_inputs<T: Real, const W: usize>(seed: u64) -> Vec<T> {
    let mut r = rng(seed);
    let mut xs: Vec<f64> = vec![
        0.0,
        -0.0,
        1.0,
        1e-310,
        -1e-310,
        1e-40,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e30,
        -1e7,
        69.0776,
        -69.0776,
        std::f64::consts::FRAC_PI_2,
        -std::f64::consts::FRAC_PI_2,
    ];
    for _ in 0..CASES * 4 {
        xs.push(r.gen_range(-69.0776..69.0776));
        xs.push(r.gen_range(-2.0..2.0));
        xs.push(10f64.powf(r.gen_range(-12.0..8.0)));
        xs.push(r.gen_range(-1.0e5..1.0e5));
    }
    while !xs.len().is_multiple_of(W) {
        xs.push(0.5);
    }
    xs.into_iter().map(T::from_f64).collect()
}

fn check_math_equivalence<T: Real, const W: usize>(seed: u64) {
    let inputs = math_inputs::<T, W>(seed);
    let run = |backend| {
        dispatch::run_kernel(
            backend,
            MathPass::<T, W> {
                inputs: inputs.clone(),
            },
        )
    };
    let reference = run(BackendImpl::Portable);
    for backend in supported_backends() {
        let got = run(backend);
        for (f, name) in MATH_FNS.iter().enumerate() {
            for (i, (a, b)) in reference[f].iter().zip(got[f].iter()).enumerate() {
                // NaN payloads may follow operand order; NaN-ness may not.
                let same = a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
                assert!(
                    same,
                    "math::{name} diverges under {backend} at element {i}: {a} vs {b} \
                     (T = {}, W = {W})",
                    std::any::type_name::<T>()
                );
            }
        }
    }
}

#[test]
fn math_functions_are_backend_invariant_f64() {
    check_math_equivalence::<f64, 4>(61);
    check_math_equivalence::<f64, 8>(62);
    check_math_equivalence::<f64, 16>(63);
}

#[test]
fn math_functions_are_backend_invariant_f32() {
    check_math_equivalence::<f32, 8>(71);
    check_math_equivalence::<f32, 16>(72);
    check_math_equivalence::<f32, 32>(73);
}

// ---------------------------------------------------------------------------
// Dispatch selection: VEKTOR_BACKEND → kernel instance
// ---------------------------------------------------------------------------

/// Serializes the tests that mutate the process environment.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_env_backend<R>(value: Option<&str>, f: impl FnOnce() -> R) -> R {
    let guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let previous = std::env::var("VEKTOR_BACKEND").ok();
    match value {
        Some(v) => std::env::set_var("VEKTOR_BACKEND", v),
        None => std::env::remove_var("VEKTOR_BACKEND"),
    }
    let result = f();
    match previous {
        Some(v) => std::env::set_var("VEKTOR_BACKEND", v),
        None => std::env::remove_var("VEKTOR_BACKEND"),
    }
    drop(guard);
    result
}

#[test]
fn env_request_selects_the_kernel_instance() {
    // A recognized value picks that implementation (clamped to host
    // support) — verified end-to-end: the selected instance actually runs.
    let observed = |backend| dispatch::run_kernel(backend, NameProbe);
    for (value, expected) in [
        ("portable", BackendImpl::Portable),
        ("avx2", dispatch::clamp(BackendImpl::Avx2)),
        ("avx512", dispatch::clamp(BackendImpl::Avx512)),
    ] {
        let selected = with_env_backend(Some(value), dispatch::default_backend);
        assert_eq!(
            selected,
            dispatch::clamp(expected),
            "VEKTOR_BACKEND={value}"
        );
        assert_eq!(observed(selected), selected.name());
    }
    // "auto", empty, and unset all mean: detect the widest supported.
    for value in [Some("auto"), Some(""), None] {
        let selected = with_env_backend(value, dispatch::default_backend);
        assert_eq!(
            selected,
            dispatch::detect_best(),
            "VEKTOR_BACKEND={value:?}"
        );
    }
    // Unknown values warn (once, on stderr) and fall back to detection.
    let selected = with_env_backend(Some("definitely-not-an-isa"), dispatch::default_backend);
    assert_eq!(selected, dispatch::detect_best());
    // Driver-level requests override the environment.
    let forced = with_env_backend(Some("avx512"), || {
        dispatch::resolve(Some(BackendImpl::Portable))
    });
    assert_eq!(forced, BackendImpl::Portable);
}

/// Kernel that just reports which backend instance it was monomorphized
/// with.
struct NameProbe;

impl KernelBody for NameProbe {
    type Output = &'static str;

    #[inline(always)]
    fn run<B: SimdBackend>(self) -> &'static str {
        B::name()
    }
}

#[test]
fn run_kernel_clamps_unsupported_requests() {
    for b in BackendImpl::ALL {
        let ran = dispatch::run_kernel(b, NameProbe);
        assert_eq!(ran, dispatch::clamp(b).name());
        assert!(dispatch::supported(BackendImpl::parse(ran).unwrap()));
    }
}
