//! Cache-friendly amplitude kernels for the statevector engine.
//!
//! The original gate-application loops visited all `2^n` indices and
//! branch-skipped the half (or three quarters) that are not the canonical
//! member of their amplitude group. The kernels here iterate the half /
//! quarter index space *directly*: for a single-qubit gate on qubit `q`
//! the state decomposes into contiguous blocks of `2^(q+1)` amplitudes
//! whose lower and upper halves form the `(|0>, |1>)` pairs, so the sweep
//! is two forward streams with unit stride — no wasted index tests, no
//! bounds-checked random access, and the unpacked gate coefficients
//! ([`M2`]/[`M4`]) stay in registers for the whole sweep.
//!
//! Every kernel performs the *same arithmetic on the same amplitudes in
//! the same order* as the original loops, so results are bit-identical —
//! the property `tests/sim_kernel_props.rs` pins against the preserved
//! naive implementations in [`crate::naive`].
//!
//! For large states the pair space is split recursively with
//! [`rayon::join`] into contiguous disjoint sub-slices (amplitude
//! parallelism *inside* one job, complementing the across-job parallelism
//! of the core executor). Since each amplitude group is written by exactly
//! one task and the per-group arithmetic is unchanged, the parallel path
//! is bit-identical to the sequential one. Parallelism engages only above
//! [`PAR_MIN_AMPS`] amplitudes so small trajectory states never pay the
//! fork overhead.

use vaqem_mathkit::complex::Complex64;
use vaqem_mathkit::smallmat::{M2, M4};

/// Minimum state length (amplitudes) before kernels fork across threads.
pub const PAR_MIN_AMPS: usize = 1 << 16;

/// Smallest contiguous sub-slice a parallel split will hand one task.
pub const PAR_GRAIN: usize = 1 << 14;

/// Whether the parallel path can pay off at all: forking on a single-thread
/// pool only adds scheduling overhead, so such hosts always run sequential.
#[inline]
fn pool_is_parallel() -> bool {
    rayon::current_num_threads() > 1
}

/// Applies a 2x2 matrix to the pairs selected by `bit`, choosing the
/// parallel path for large states.
pub fn apply_m2(amps: &mut [Complex64], bit: usize, u: &M2) {
    if amps.len() >= PAR_MIN_AMPS && pool_is_parallel() {
        apply_m2_par(amps, bit, u, PAR_GRAIN);
    } else {
        apply_m2_seq(amps, bit, u);
    }
}

/// Sequential single-qubit sweep over the half index space.
pub(crate) fn apply_m2_seq(amps: &mut [Complex64], bit: usize, u: &M2) {
    let [u00, u01, u10, u11] = u.m;
    let stride = bit << 1;
    let mut base = 0;
    while base < amps.len() {
        let (lo, hi) = amps[base..base + stride].split_at_mut(bit);
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            let x0 = *a0;
            let x1 = *a1;
            *a0 = u00 * x0 + u01 * x1;
            *a1 = u10 * x0 + u11 * x1;
        }
        base += stride;
    }
}

/// Recursive parallel split along contiguous block boundaries.
pub(crate) fn apply_m2_par(amps: &mut [Complex64], bit: usize, u: &M2, grain: usize) {
    let stride = bit << 1;
    if amps.len() > stride && amps.len() > grain {
        let mid = amps.len() / 2;
        let (a, b) = amps.split_at_mut(mid);
        rayon::join(
            || apply_m2_par(a, bit, u, grain),
            || apply_m2_par(b, bit, u, grain),
        );
    } else if amps.len() == stride && amps.len() > grain {
        // A single block: pairs span the two halves, so zip-split them.
        let (lo, hi) = amps.split_at_mut(bit);
        apply_m2_zip_par(lo, hi, u, grain);
    } else {
        apply_m2_seq(amps, bit, u);
    }
}

fn apply_m2_zip_par(lo: &mut [Complex64], hi: &mut [Complex64], u: &M2, grain: usize) {
    if lo.len() > grain {
        let mid = lo.len() / 2;
        let (l0, l1) = lo.split_at_mut(mid);
        let (h0, h1) = hi.split_at_mut(mid);
        rayon::join(
            || apply_m2_zip_par(l0, h0, u, grain),
            || apply_m2_zip_par(l1, h1, u, grain),
        );
        return;
    }
    let [u00, u01, u10, u11] = u.m;
    for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
        let x0 = *a0;
        let x1 = *a1;
        *a0 = u00 * x0 + u01 * x1;
        *a1 = u10 * x0 + u11 * x1;
    }
}

/// Applies a 4x4 matrix to the quadruples selected by `(bit_hi, bit_lo)`
/// (gate-space meaning: `bit_hi` is the more significant gate operand),
/// choosing the parallel path for large states.
pub fn apply_m4(amps: &mut [Complex64], bit_hi: usize, bit_lo: usize, u: &M4) {
    let big = bit_hi.max(bit_lo);
    if amps.len() >= PAR_MIN_AMPS && amps.len() > big << 1 && pool_is_parallel() {
        apply_m4_par(amps, bit_hi, bit_lo, u, PAR_GRAIN);
    } else {
        apply_m4_seq(amps, bit_hi, bit_lo, u);
    }
}

/// Sequential two-qubit sweep over the quarter index space. `amps` must be
/// an aligned window whose length is a multiple of `2 * max(bit)` (the full
/// state always qualifies), so every quadruple lies inside it and indices
/// can be window-relative.
fn apply_m4_seq(amps: &mut [Complex64], bit_hi: usize, bit_lo: usize, u: &M4) {
    let small = bit_hi.min(bit_lo);
    let big = bit_hi.max(bit_lo);
    let groups = amps.len() >> 2;
    for g in 0..groups {
        // Deposit a zero at the small bit position, then at the big one:
        // enumerates bases with both bits clear in ascending order.
        let x = g & (small - 1) | ((g & !(small - 1)) << 1);
        let base = x & (big - 1) | ((x & !(big - 1)) << 1);
        let i0 = base;
        let i1 = base | bit_lo;
        let i2 = base | bit_hi;
        let i3 = base | bit_hi | bit_lo;
        let a = [amps[i0], amps[i1], amps[i2], amps[i3]];
        let idx = [i0, i1, i2, i3];
        for (r, &i) in idx.iter().enumerate() {
            let mut acc = Complex64::ZERO;
            for (c, &ac) in a.iter().enumerate() {
                acc += u.m[r * 4 + c] * ac;
            }
            amps[i] = acc;
        }
    }
}

/// Recursive parallel split along `2 * max(bit)` block boundaries. Halving
/// a power-of-two window keeps sub-windows aligned, so the sequential
/// kernel's window-relative enumeration stays valid at every leaf.
fn apply_m4_par(amps: &mut [Complex64], bit_hi: usize, bit_lo: usize, u: &M4, grain: usize) {
    let big_stride = bit_hi.max(bit_lo) << 1;
    if amps.len() > big_stride && amps.len() > grain {
        let mid = amps.len() / 2;
        let (a, b) = amps.split_at_mut(mid);
        rayon::join(
            || apply_m4_par(a, bit_hi, bit_lo, u, grain),
            || apply_m4_par(b, bit_hi, bit_lo, u, grain),
        );
        return;
    }
    apply_m4_seq(amps, bit_hi, bit_lo, u);
}

/// Multiplies every amplitude whose `bit` is set by `phase`, iterating the
/// upper halves of each block directly.
pub fn phase_if_one(amps: &mut [Complex64], bit: usize, phase: Complex64) {
    let stride = bit << 1;
    let mut base = bit;
    while base < amps.len() {
        for a in amps[base..base + bit].iter_mut() {
            *a *= phase;
        }
        base += stride;
    }
}

/// Always-on ZZ step `exp(-i theta Z_a Z_b / 2)` with its two phases
/// precomputed: amplitudes whose `bit_a`/`bit_b` agree are multiplied by
/// `even = cis(-theta/2)`, the others by `odd = cis(theta/2)`. Each
/// amplitude takes exactly one multiply, so callers that hoist the two
/// `cis` calls out of a loop get bit-identical results.
pub fn zz_phase(
    amps: &mut [Complex64],
    bit_a: usize,
    bit_b: usize,
    even: Complex64,
    odd: Complex64,
) {
    for (i, amp) in amps.iter_mut().enumerate() {
        let parity = ((i & bit_a != 0) as u8) ^ ((i & bit_b != 0) as u8);
        *amp *= if parity == 0 { even } else { odd };
    }
}

/// Sum of `|a|^2` over amplitudes whose `bit` is set, in ascending index
/// order (bit-identical to a filtered full-index sweep).
pub fn excited_population(amps: &[Complex64], bit: usize) -> f64 {
    let stride = bit << 1;
    let mut acc = 0.0;
    let mut base = bit;
    while base < amps.len() {
        for a in amps[base..base + bit].iter() {
            acc += a.norm_sqr();
        }
        base += stride;
    }
    acc
}

/// Fused detuning-phase + excited-population sweep: multiplies every
/// amplitude whose `bit` is set by `phase` and returns the sum of their
/// `|a|^2` taken *after* the multiply — the same values, in the same
/// accumulation order, as a [`phase_if_one`] sweep followed by an
/// [`excited_population`] sweep, for half the memory traffic.
pub fn phase_and_excited_population(amps: &mut [Complex64], bit: usize, phase: Complex64) -> f64 {
    let stride = bit << 1;
    let mut acc = 0.0;
    let mut base = bit;
    while base < amps.len() {
        for a in amps[base..base + bit].iter_mut() {
            *a *= phase;
            acc += a.norm_sqr();
        }
        base += stride;
    }
    acc
}

/// MCWF no-jump update with the renormalization folded in: one sweep
/// scaling `bit`-clear amplitudes by `scale0` and `bit`-set amplitudes by
/// `scale1`. The trajectory engine passes `scale0 = 1/sqrt(1 - gamma*p1)`
/// and `scale1 = sqrt(1-gamma) * scale0`, using the analytic post-damping
/// norm of a normalized input state instead of re-measuring it.
pub fn mcwf_no_jump(amps: &mut [Complex64], bit: usize, scale0: f64, scale1: f64) {
    let stride = bit << 1;
    let mut base = 0;
    while base < amps.len() {
        let (lo, hi) = amps[base..base + stride].split_at_mut(bit);
        for a in lo.iter_mut() {
            *a *= scale0;
        }
        for a in hi.iter_mut() {
            *a *= scale1;
        }
        base += stride;
    }
}

/// MCWF jump update with the renormalization folded in: the `bit`-set
/// branch collapses onto the `bit`-clear one scaled by `inv_norm`
/// (`1/sqrt(p1)` — the post-jump norm of a normalized input state), and the
/// `bit`-set half zeroes.
pub fn mcwf_jump(amps: &mut [Complex64], bit: usize, inv_norm: f64) {
    let stride = bit << 1;
    let mut base = 0;
    while base < amps.len() {
        let (lo, hi) = amps[base..base + stride].split_at_mut(bit);
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            *a0 = *a1 * inv_norm;
            *a1 = Complex64::ZERO;
        }
        base += stride;
    }
}

/// Deposits a zero at `bit`: maps `g` (an index over the space with `bit`
/// removed) to the corresponding full-space index with `bit` clear,
/// ascending in `g`.
#[inline]
fn deposit_zero(g: usize, bit: usize) -> usize {
    (g & (bit - 1)) | ((g & !(bit - 1)) << 1)
}

// ---------------------------------------------------------------------------
// Density-matrix sweeps.
//
// The density engine's original applies embedded every operator to the full
// `2^n`-dimensional space and multiplied dense matrices: O(8^n) per gate.
// A k-qubit operator only couples rows (and, independently, columns) that
// differ in its operand bits, so `U rho U†` decomposes into independent
// 2x2 (or 4x4) sub-block transforms over the (row-group, col-group) grid —
// O(4^n) with the operator coefficients in registers.
// ---------------------------------------------------------------------------

/// Density-matrix sweep `rho -> sum_k K rho K†` for 2x2 Kraus operators on
/// the qubit selected by `bit`. `rho` is row-major `dim x dim`. A unitary is
/// the single-operator case.
pub fn dm_apply_kraus_single(rho: &mut [Complex64], dim: usize, bit: usize, kraus: &[M2]) {
    debug_assert_eq!(rho.len(), dim * dim);
    let ops: Vec<(M2, M2)> = kraus.iter().map(|k| (*k, k.adjoint())).collect();
    let stride = bit << 1;
    let mut row_base = 0;
    while row_base < dim {
        for r0 in row_base..row_base + bit {
            let rr0 = r0 * dim;
            let rr1 = (r0 | bit) * dim;
            let mut col_base = 0;
            while col_base < dim {
                for c0 in col_base..col_base + bit {
                    let c1 = c0 | bit;
                    let m00 = rho[rr0 + c0];
                    let m01 = rho[rr0 + c1];
                    let m10 = rho[rr1 + c0];
                    let m11 = rho[rr1 + c1];
                    let mut o00 = Complex64::ZERO;
                    let mut o01 = Complex64::ZERO;
                    let mut o10 = Complex64::ZERO;
                    let mut o11 = Complex64::ZERO;
                    for (k, kd) in &ops {
                        // T = K M, then O += T K†.
                        let t00 = k.m[0] * m00 + k.m[1] * m10;
                        let t01 = k.m[0] * m01 + k.m[1] * m11;
                        let t10 = k.m[2] * m00 + k.m[3] * m10;
                        let t11 = k.m[2] * m01 + k.m[3] * m11;
                        o00 += t00 * kd.m[0] + t01 * kd.m[2];
                        o01 += t00 * kd.m[1] + t01 * kd.m[3];
                        o10 += t10 * kd.m[0] + t11 * kd.m[2];
                        o11 += t10 * kd.m[1] + t11 * kd.m[3];
                    }
                    rho[rr0 + c0] = o00;
                    rho[rr0 + c1] = o01;
                    rho[rr1 + c0] = o10;
                    rho[rr1 + c1] = o11;
                }
                col_base += stride;
            }
        }
        row_base += stride;
    }
}

/// Density-matrix sweep `rho -> U rho U†` for a 4x4 unitary on the qubits
/// selected by `(bit_hi, bit_lo)` (gate-space meaning: `bit_hi` is the more
/// significant operand). `rho` is row-major `dim x dim`.
pub fn dm_apply_m4(rho: &mut [Complex64], dim: usize, bit_hi: usize, bit_lo: usize, u: &M4) {
    debug_assert_eq!(rho.len(), dim * dim);
    let ud = u.adjoint();
    let small = bit_hi.min(bit_lo);
    let big = bit_hi.max(bit_lo);
    let offs = [0, bit_lo, bit_hi, bit_hi | bit_lo];
    let quads = dim >> 2;
    for gr in 0..quads {
        let rb = deposit_zero(deposit_zero(gr, small), big);
        for gc in 0..quads {
            let cb = deposit_zero(deposit_zero(gc, small), big);
            let mut b = [Complex64::ZERO; 16];
            for (i, &ro) in offs.iter().enumerate() {
                let row = (rb | ro) * dim;
                for (j, &co) in offs.iter().enumerate() {
                    b[i * 4 + j] = rho[row + (cb | co)];
                }
            }
            let out = u.mul(&M4 { m: b }).mul(&ud);
            for (i, &ro) in offs.iter().enumerate() {
                let row = (rb | ro) * dim;
                for (j, &co) in offs.iter().enumerate() {
                    rho[row + (cb | co)] = out.m[i * 4 + j];
                }
            }
        }
    }
}

/// Density-matrix two-qubit depolarizing channel on the qubits selected by
/// `(bit_a, bit_b)`: `rho -> (1-p) rho + p/15 sum_{P != II} P rho P†`.
///
/// Uses the Pauli-twirl identity `sum_{all 16} P B P† = 4 tr(B) I` (valid
/// for *any* 4x4 block `B`), so each (row-group, col-group) sub-block maps
/// to `(1 - 16p/15) B + (4p/15) tr(B) I` — no Pauli enumeration at all.
pub fn dm_depolarize_two_qubit(
    rho: &mut [Complex64],
    dim: usize,
    bit_a: usize,
    bit_b: usize,
    p: f64,
) {
    debug_assert_eq!(rho.len(), dim * dim);
    let keep = 1.0 - p - p / 15.0;
    let mix = 4.0 * p / 15.0;
    let small = bit_a.min(bit_b);
    let big = bit_a.max(bit_b);
    let offs = [0, small, big, big | small];
    let quads = dim >> 2;
    for gr in 0..quads {
        let rb = deposit_zero(deposit_zero(gr, small), big);
        for gc in 0..quads {
            let cb = deposit_zero(deposit_zero(gc, small), big);
            let mut tr = Complex64::ZERO;
            for &o in &offs {
                tr += rho[(rb | o) * dim + (cb | o)];
            }
            for &ro in &offs {
                let row = (rb | ro) * dim;
                for &co in &offs {
                    rho[row + (cb | co)] *= keep;
                }
            }
            let add = tr * mix;
            for &o in &offs {
                rho[(rb | o) * dim + (cb | o)] += add;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use vaqem_mathkit::c64;
    use vaqem_mathkit::matrix::gates2x2;

    fn random_state(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..1usize << n)
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect()
    }

    #[test]
    fn parallel_m2_is_bit_identical_to_sequential() {
        let u = M2::from_cmatrix(&gates2x2::ry(0.83));
        for n in [6usize, 9] {
            for q in 0..n {
                let mut a = random_state(n, 42 + q as u64);
                let mut b = a.clone();
                apply_m2_seq(&mut a, 1 << q, &u);
                // Tiny grain forces deep splits including the zip path.
                apply_m2_par(&mut b, 1 << q, &u, 8);
                assert_eq!(a, b, "qubit {q} of {n}");
            }
        }
    }

    #[test]
    fn parallel_m4_is_bit_identical_to_sequential() {
        let u = M4::from_cmatrix(&gates2x2::rx(0.4).kron(&gates2x2::hadamard()));
        let n = 8usize;
        for qh in 0..n {
            for ql in 0..n {
                if qh == ql {
                    continue;
                }
                let mut a = random_state(n, 7);
                let mut b = a.clone();
                apply_m4_seq(&mut a, 1 << qh, 1 << ql, &u);
                apply_m4_par(&mut b, 1 << qh, 1 << ql, &u, 16);
                assert_eq!(a, b, "pair ({qh},{ql})");
            }
        }
    }

    fn random_matrix(n: usize, seed: u64) -> vaqem_mathkit::matrix::CMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dim = 1usize << n;
        vaqem_mathkit::matrix::CMatrix::from_vec(
            dim,
            dim,
            (0..dim * dim)
                .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect(),
        )
    }

    #[test]
    fn dm_sweeps_match_embedded_conjugation() {
        use vaqem_circuit::unitary::{embed_single, embed_two};
        let n = 3usize;
        let dim = 1usize << n;
        let u1 = gates2x2::ry(0.37);
        let u2 = gates2x2::rz(1.2).kron(&gates2x2::sx());
        for q in 0..n {
            let reference = random_matrix(n, 11 + q as u64);
            let expect = reference.conjugate_by(&embed_single(&u1, q, n));
            let mut fast = reference.clone();
            dm_apply_kraus_single(fast.as_mut_slice(), dim, 1 << q, &[M2::from_cmatrix(&u1)]);
            assert!(fast.max_abs_diff(&expect) < 1e-12, "single on {q}");
        }
        for (qh, ql) in [(0usize, 1usize), (1, 0), (0, 2), (2, 1)] {
            let reference = random_matrix(n, 29);
            let expect = reference.conjugate_by(&embed_two(&u2, qh, ql, n));
            let mut fast = reference.clone();
            dm_apply_m4(
                fast.as_mut_slice(),
                dim,
                1 << qh,
                1 << ql,
                &M4::from_cmatrix(&u2),
            );
            assert!(fast.max_abs_diff(&expect) < 1e-12, "pair ({qh},{ql})");
        }
    }

    #[test]
    fn dm_twirl_matches_explicit_pauli_sum() {
        use vaqem_circuit::unitary::embed_single;
        use vaqem_mathkit::matrix::CMatrix;
        let n = 3usize;
        let dim = 1usize << n;
        let (a, b) = (0usize, 2usize);
        let p = 0.23;
        let reference = random_matrix(n, 5);
        let paulis = [
            CMatrix::identity(2),
            gates2x2::pauli_x(),
            gates2x2::pauli_y(),
            gates2x2::pauli_z(),
        ];
        let mut sum = CMatrix::zeros(dim, dim);
        for (i, pa) in paulis.iter().enumerate() {
            for (j, pb) in paulis.iter().enumerate() {
                if i == 0 && j == 0 {
                    continue;
                }
                let full = &embed_single(pa, a, n) * &embed_single(pb, b, n);
                sum = &sum + &reference.conjugate_by(&full);
            }
        }
        let expect = &reference.scale(c64(1.0 - p, 0.0)) + &sum.scale(c64(p / 15.0, 0.0));
        let mut fast = reference.clone();
        dm_depolarize_two_qubit(fast.as_mut_slice(), dim, 1 << a, 1 << b, p);
        assert!(fast.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn fused_phase_population_matches_separate_sweeps() {
        let phase = Complex64::cis(0.73);
        for q in 0..6 {
            let bit = 1usize << q;
            let mut fused = random_state(6, 17);
            let mut separate = fused.clone();
            let p_fused = phase_and_excited_population(&mut fused, bit, phase);
            phase_if_one(&mut separate, bit, phase);
            let p_sep = excited_population(&separate, bit);
            assert_eq!(fused, separate, "qubit {q}");
            assert_eq!(p_fused, p_sep, "qubit {q}");
        }
    }

    #[test]
    fn mcwf_sweeps_match_index_filtered_loops() {
        let (s0, s1) = (1.07, 0.85);
        for q in 0..5 {
            let bit = 1usize << q;
            let mut fast = random_state(5, 23);
            let mut slow = fast.clone();
            mcwf_no_jump(&mut fast, bit, s0, s1);
            for (i, a) in slow.iter_mut().enumerate() {
                *a *= if i & bit != 0 { s1 } else { s0 };
            }
            assert_eq!(fast, slow, "no-jump on {q}");

            let mut fast = random_state(5, 29);
            let mut slow = fast.clone();
            mcwf_jump(&mut fast, bit, s0);
            let prev = slow.clone();
            for (i, a) in slow.iter_mut().enumerate() {
                *a = if i & bit != 0 {
                    Complex64::ZERO
                } else {
                    prev[i | bit] * s0
                };
            }
            assert_eq!(fast, slow, "jump on {q}");
        }
    }

    #[test]
    fn excited_population_matches_filtered_sum() {
        let amps = random_state(7, 3);
        for q in 0..7 {
            let bit = 1usize << q;
            let expect: f64 = amps
                .iter()
                .enumerate()
                .filter(|(i, _)| i & bit != 0)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            assert_eq!(excited_population(&amps, bit), expect);
        }
    }
}
