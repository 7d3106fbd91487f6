//! Property-based parity suite for the optimized simulation hot paths.
//!
//! Every optimized engine in `vaqem-sim` keeps its pre-optimization
//! implementation alive in [`vaqem_sim::naive`] as an executable oracle.
//! These properties drive both sides with randomized circuits (widths
//! 1–10, mixed gate sets, random angles and delays) and pin the contracts
//! the kernel rewrites promise:
//!
//! * raw gate kernels are **bit-identical** to the original index-filtered
//!   loops (same arithmetic, same order);
//! * the fused circuit runner matches the gate-at-a-time reference to
//!   1e-12 (fusion reassociates products, so exact equality is not owed);
//! * CDF shot sampling consumes the RNG stream exactly like the original
//!   linear scan (bit-identical histograms);
//! * exact-counts apportionment always totals the requested shots;
//! * the trajectory machine is deterministic and shot-range splitting
//!   merges back to the sequential run bit for bit;
//! * on DD-padded schedules with ZZ coupling and telegraph noise, the
//!   trajectory machine's counts equal the original per-op executor's
//!   exactly (the per-shot hoists change no draw and no amplitude);
//! * the density engine's sub-block sweeps match the embed-and-multiply
//!   originals to 1e-12.
//!
//! Cases derive from a fixed root seed (override with `PROPTEST_RNG_SEED`)
//! so failures replay deterministically.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vaqem_circuit::circuit::QuantumCircuit;
use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind, ScheduledCircuit};
use vaqem_device::noise::{NoiseParameters, QubitNoise};
use vaqem_mathkit::c64;
use vaqem_mathkit::complex::Complex64;
use vaqem_mathkit::rng::SeedStream;
use vaqem_sim::machine::MachineExecutor;
use vaqem_sim::statevector::StateVector;
use vaqem_sim::{density, naive};

/// One randomized gate-mix element: `(kind, angle, qubit pick, qubit pick)`.
/// Qubit picks are reduced modulo the circuit width at build time so one
/// strategy serves every width.
type OpSpec = (u8, f64, usize, usize);

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    (0u8..14, -3.0f64..3.0, 0usize..10, 0usize..10)
}

/// Materializes a random op list into a concrete circuit of width `n`.
fn build_circuit(n: usize, ops: &[OpSpec]) -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(n);
    for &(kind, theta, a, b) in ops {
        let q = a % n;
        let q2 = b % n;
        match kind {
            0 => qc.h(q).unwrap(),
            1 => qc.x(q).unwrap(),
            2 => qc.y(q).unwrap(),
            3 => qc.z(q).unwrap(),
            4 => qc.sx(q).unwrap(),
            5 => qc.rx(theta, q).unwrap(),
            6 => qc.ry(theta, q).unwrap(),
            7 => qc.rz(theta, q).unwrap(),
            8 => qc.s(q).unwrap(),
            9..=11 => {
                if n < 2 {
                    continue;
                }
                let q2 = if q2 == q { (q + 1) % n } else { q2 };
                match kind {
                    9 => qc.cx(q, q2).unwrap(),
                    10 => qc.cz(q, q2).unwrap(),
                    _ => qc.swap(q, q2).unwrap(),
                }
            }
            12 => qc.id(q).unwrap(),
            _ => qc.delay(theta.abs() * 1_000.0, q).unwrap(),
        };
    }
    qc
}

fn sched(qc: &QuantumCircuit) -> ScheduledCircuit {
    schedule(qc, &DurationModel::ibm_default(), ScheduleKind::Asap).unwrap()
}

/// One layer of a randomized DD-padded schedule:
/// `(kind, angle, qubit pick, qubit pick, idle ns)`.
type LayerSpec = (u8, f64, usize, usize, f64);

fn layer_strategy() -> impl Strategy<Value = LayerSpec> {
    (
        0u8..6,
        -3.0f64..3.0,
        0usize..5,
        0usize..5,
        400.0f64..20_000.0,
    )
}

/// Fills an idle window of `idle` ns on `q` with an XY4 sequence:
/// `T/8 X T/4 Y T/4 X T/4 Y T/8`, the repeated spacings DD padding
/// produces.
fn pad_xy4(qc: &mut QuantumCircuit, q: usize, idle: f64) {
    qc.delay(idle / 8.0, q).unwrap();
    for (i, spacing) in [idle / 4.0, idle / 4.0, idle / 4.0, idle / 8.0]
        .into_iter()
        .enumerate()
    {
        if i % 2 == 0 {
            qc.x(q).unwrap();
        } else {
            qc.y(q).unwrap();
        }
        qc.delay(spacing, q).unwrap();
    }
}

/// Materializes random layers into a measured circuit of width `n`: single-
/// qubit rotations, CX, XY4-padded idle windows and bare delays.
fn build_dd_circuit(n: usize, layers: &[LayerSpec]) -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(n);
    for q in 0..n {
        qc.h(q).unwrap();
    }
    for &(kind, theta, a, b, idle) in layers {
        let q = a % n;
        match kind {
            0 => qc.ry(theta, q).unwrap(),
            1 => qc.rz(theta, q).unwrap(),
            2 => {
                let t = if b % n == q { (q + 1) % n } else { b % n };
                qc.cx(q, t).unwrap()
            }
            3 | 4 => {
                pad_xy4(&mut qc, q, idle);
                &mut qc
            }
            _ => qc.delay(idle, q).unwrap(),
        };
    }
    qc.measure_all();
    qc
}

fn random_state(n: usize, parts: &[(f64, f64)]) -> Vec<Complex64> {
    (0..1usize << n)
        .map(|i| {
            let (re, im) = parts[i % parts.len()];
            c64(re + i as f64 * 1e-3, im - i as f64 * 1e-3)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_kernel_run_matches_naive_reference(
        n in 1usize..11,
        ops in collection::vec(op_strategy(), 0..24),
    ) {
        let qc = build_circuit(n, &ops);
        let fast = StateVector::run(&qc).unwrap();
        let slow = naive::run(&qc).unwrap();
        for (i, (a, b)) in fast.amplitudes().iter().zip(slow.amplitudes()).enumerate() {
            prop_assert!(
                a.approx_eq(*b, 1e-12),
                "amplitude {i} diverged: {a:?} vs {b:?} (width {n}, {} ops)",
                ops.len()
            );
        }
    }

    #[test]
    fn gate_kernels_are_bit_identical_to_naive_loops(
        n in 1usize..9,
        parts in collection::vec((-1.0f64..1.0, -1.0f64..1.0), 4..16),
        kind in 0u8..12,
        theta in -3.0f64..3.0,
        picks in (0usize..10, 0usize..10),
    ) {
        let amps = random_state(n, &parts);
        let qc = build_circuit(n, &[(kind, theta, picks.0, picks.1)]);
        let mut fast = StateVector::from_amplitudes(amps.clone());
        let mut slow = StateVector::from_amplitudes(amps);
        for ins in qc.instructions() {
            let u = ins.gate.unitary().unwrap();
            match ins.qubits.len() {
                1 => {
                    fast.apply_single(&u, ins.qubits[0]);
                    naive::apply_single(&mut slow, &u, ins.qubits[0]);
                }
                _ => {
                    fast.apply_two(&u, ins.qubits[0], ins.qubits[1]);
                    naive::apply_two(&mut slow, &u, ins.qubits[0], ins.qubits[1]);
                }
            }
        }
        prop_assert_eq!(fast.amplitudes(), slow.amplitudes());
    }

    #[test]
    fn cdf_sampling_is_bit_identical_to_linear_scan(
        n in 1usize..9,
        ops in collection::vec(op_strategy(), 1..16),
        seed in 0u64..1_000_000,
        shots in 1u64..600,
    ) {
        let sv = StateVector::run(&build_circuit(n, &ops)).unwrap();
        let fast = sv.sample_counts(&mut StdRng::seed_from_u64(seed), shots);
        let slow = naive::sample_counts(&sv, &mut StdRng::seed_from_u64(seed), shots);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn exact_counts_always_total_shots(
        n in 1usize..11,
        ops in collection::vec(op_strategy(), 1..16),
        shots in 1u64..5_000,
    ) {
        let sv = StateVector::run(&build_circuit(n, &ops)).unwrap();
        prop_assert_eq!(sv.exact_counts(shots).total(), shots);
    }

    #[test]
    fn density_sweeps_match_embedded_reference(
        n in 1usize..4,
        ops in collection::vec(op_strategy(), 1..10),
    ) {
        let s = sched(&build_circuit(n, &ops));
        let noise = NoiseParameters::uniform(n);
        let fast = density::run_markovian(&s, &noise);
        let slow = naive::density_run_markovian(&s, &noise);
        let diff = fast.matrix().max_abs_diff(slow.matrix());
        prop_assert!(diff < 1e-12, "density engines diverged by {diff}");
    }
}

proptest! {
    // Trajectory properties run whole shot loops per case, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trajectory_machine_is_deterministic_and_split_invariant(
        n in 1usize..4,
        ops in collection::vec(op_strategy(), 1..10),
        shots in 1u64..180,
        split in 0u64..180,
        job in 0u64..32,
    ) {
        let mut qc = build_circuit(n, &ops);
        qc.measure_all();
        let s = sched(&qc);
        let exec = MachineExecutor::new(NoiseParameters::uniform(n), SeedStream::new(1234));
        let full = exec.run_job_with_shots(&s, shots, job);
        prop_assert_eq!(full.total(), shots);
        // Re-running is bit-identical (no hidden global state).
        prop_assert_eq!(&full, &exec.run_job_with_shots(&s, shots, job));
        // Any split point merges back to the sequential histogram.
        let k = split % (shots + 1);
        let mut merged = exec.run_job_shot_range(&s, job, 0..k);
        merged.merge(&exec.run_job_shot_range(&s, job, k..shots));
        prop_assert_eq!(&full, &merged);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zz_kernel_is_bit_identical_to_naive_loop(
        n in 2usize..9,
        parts in collection::vec((-1.0f64..1.0, -1.0f64..1.0), 4..16),
        theta in -3.0f64..3.0,
        picks in (0usize..10, 0usize..10),
    ) {
        let a = picks.0 % n;
        let b = if picks.1 % n == a { (a + 1) % n } else { picks.1 % n };
        let mut fast = StateVector::from_amplitudes(random_state(n, &parts));
        let mut slow = fast.clone();
        fast.apply_zz(theta, a, b);
        naive::apply_zz(&mut slow, theta, a, b);
        prop_assert_eq!(fast.amplitudes(), slow.amplitudes());
    }

    /// Rates 0 and 2e-6/ns take the no-draw and the log-free first-draw
    /// paths; 1e-3/ns flips several times per window, so the log path, the
    /// flipped-segment `cis` and the memo's sign slots all run.
    #[test]
    fn dd_padded_trajectories_match_naive_reference(
        n in 2usize..6,
        layers in collection::vec(layer_strategy(), 1..12),
        rate_pick in 0usize..3,
        zeta in 1.0e-5f64..2.0e-4,
        shots in 1u64..96,
        job in 0u64..32,
    ) {
        let rate = [0.0, 2.0e-6, 1.0e-3][rate_pick];
        let mut noise = NoiseParameters::from_qubits(vec![
            QubitNoise {
                telegraph_rate_per_ns: rate,
                ..QubitNoise::default()
            };
            n
        ]);
        for q in 0..n - 1 {
            noise.set_zz(q, q + 1, zeta * (q + 1) as f64);
        }
        let s = sched(&build_dd_circuit(n, &layers));
        let seeds = SeedStream::new(4321);
        let fast = MachineExecutor::new(noise.clone(), seeds).run_job_with_shots(&s, shots, job);
        let slow = naive::machine_run_job_with_shots(&noise, &seeds, &s, shots, job);
        prop_assert_eq!(fast, slow);
    }
}
