//! The noisy "machine": a quantum-trajectory executor.
//!
//! This engine plays the role of the real IBM backend in the paper. Each
//! shot is a Monte-Carlo wave-function trajectory evolved along the
//! scheduled timeline:
//!
//! * **Quasi-static detuning** — every trajectory samples a per-qubit
//!   angular detuning from `N(0, sigma)`. The qubit accumulates phase
//!   `delta * t` during idle time. Because the detuning is constant within a
//!   trajectory, an X (or Y) pulse placed mid-window *refocuses* the phase —
//!   this is exactly the physics that makes Hahn echo (Fig. 4), gate
//!   scheduling (Fig. 6) and DD (Fig. 5) work on hardware, and that a
//!   Markovian calibration model misses (Fig. 9).
//! * **Telegraph noise** — the detuning sign flips at a Poisson rate within
//!   the trajectory, so refocusing degrades over long free-evolution
//!   stretches. Shorter DD periods track the noise better, while each pulse
//!   adds gate error: the resulting trade-off produces the interior optima
//!   of Fig. 5.
//! * **Markovian decoherence** — amplitude damping (T1) and pure dephasing
//!   (from T2) as stochastic jumps (MCWF); depolarizing gate errors as
//!   sampled Pauli insertions; classical readout flips.
//! * **ZZ crosstalk** — always-on `exp(-i zeta t ZZ/2)` between coupled
//!   pairs, which DD also decouples.
//!
//! # Hot-path structure
//!
//! A job replays one schedule for every shot, so the executor compiles the
//! schedule once per job (`CompiledSchedule`): gate unitaries are fetched
//! and unpacked once, the timeline's free-evolution segments (which qubits
//! have started, per-segment damping/dephasing probabilities, ZZ phases —
//! all RNG-independent) are resolved up front, and the per-shot loop reuses
//! one statevector plus scratch buffers (`TrajectoryScratch`) instead of
//! allocating per trajectory. Runs of same-qubit single-qubit gates with no
//! free evolution between them (e.g. virtual-RZ clusters) fuse
//! optimistically into one 2x2 product: per-gate error *draws* still happen
//! at their original positions in the RNG stream, and a firing error
//! flushes the accumulated product before the Pauli lands, so the stream is
//! consumed draw-for-draw exactly as the original per-gate path consumed
//! it. The original path survives in [`crate::naive`] as the parity oracle.
//!
//! Each shot then recomputes only what its own RNG draws determine. Three
//! pieces of per-segment work are hoisted out of the shot loop, each
//! bit-identical to the original:
//!
//! * **ZZ phases at compile time.** A segment's coupling angle `zeta*dt`
//!   is fixed by the schedule, so its two phases `cis(-theta/2)` and
//!   `cis(theta/2)` are computed once and the shot applies them with
//!   [`kernels::zz_phase`] — the same values multiplied into the same
//!   amplitudes. The dephasing flip's `cis(PI)` is computed once likewise.
//! * **Telegraph draws without a log.** The first waiting-time draw `u` of
//!   a segment flips nothing when `-ln(u)/rate >= dt`. Draws below
//!   `exp(-rate*dt)·(1-1e-9)` are certain to pass that test (see
//!   `NO_FLIP_MARGIN`) and skip the `ln`; any other draw takes the
//!   original loop unchanged, so the number of draws and every flip
//!   decision stay the same.
//! * **Per-shot memo of the detuning phase.** Without a flip the signed
//!   time is exactly `±dt`, and DD padding repeats the same few `dt`
//!   values across a schedule. Segment lengths are deduplicated by their
//!   bits at compile time, and `TrajectoryScratch` keeps one slot per
//!   (qubit, distinct `dt`, sign) holding exactly
//!   `cis(detuning[q] * signed_time)`. The slots are cleared at the start
//!   of every shot (the detuning is redrawn), and segments where a flip
//!   occurs compute `cis` directly.

use crate::counts::Counts;
use crate::fusion;
use crate::kernels;
use crate::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vaqem_circuit::gate::Gate;
use vaqem_circuit::schedule::ScheduledCircuit;
use vaqem_device::noise::NoiseParameters;
use vaqem_mathkit::rng::{indexed_seed, sample_standard_normal, SeedStream};
use vaqem_mathkit::smallmat::{M2, M4};
use vaqem_mathkit::Complex64;

/// Default number of shots per execution, matching common IBM submissions.
pub const DEFAULT_SHOTS: u64 = 2048;

/// A noisy trajectory-based executor standing in for a quantum backend.
#[derive(Debug, Clone)]
pub struct MachineExecutor {
    noise: NoiseParameters,
    seeds: SeedStream,
    shots: u64,
}

/// Relative margin under `exp(-rate*dt)` below which a segment's first
/// telegraph draw is known not to flip without evaluating `ln`.
///
/// A draw `u < exp(-rate*dt)·(1 - m)` satisfies, in exact arithmetic,
/// `-ln(u) > rate*dt - ln(1 - m) > rate*dt + m`: an absolute slack of at
/// least `m = 1e-9` in log space over the flip threshold. The computed test
/// `-u.ln() / rate >= dt` could only disagree if rounding moved the log
/// side by more than that slack. Every quantity involved is at most ~746
/// in magnitude where the fast path can fire (`u >= f64::MIN_POSITIVE`
/// bounds `-ln(u)` by 708, and the bound underflows to zero once
/// `rate*dt > 745`), and `ln`, `exp`, the product `rate*dt`, the quotient
/// and the `(1 - m)` multiply each add at most a couple of ulps, so their
/// combined error stays below `746 * 8 * 2^-53 ≈ 7e-13` — more than three
/// orders of magnitude inside the margin.
const NO_FLIP_MARGIN: f64 = 1e-9;

/// The first-draw fast-path bound `exp(-rate*dt)·(1 - NO_FLIP_MARGIN)`.
fn no_flip_bound(rate: f64, dt: f64) -> f64 {
    (-rate * dt).exp() * (1.0 - NO_FLIP_MARGIN)
}

/// Whether a segment's first telegraph draw `u` is certain not to flip
/// (the original `-u.ln() / rate >= dt` would hold) without taking the log.
#[inline]
fn first_draw_cannot_flip(u: f64, no_flip_below: f64) -> bool {
    u < no_flip_below
}

/// Per-qubit free-evolution parameters for one timeline segment, resolved
/// at compile time (everything here is schedule- and noise-determined).
#[derive(Debug, Clone)]
struct FreeQubit {
    q: usize,
    telegraph_rate: f64,
    /// [`no_flip_bound`] of this segment (unused when the rate is not
    /// positive: no draw happens then).
    no_flip_below: f64,
    /// Amplitude-damping probability scale `1 - exp(-dt/T1)`; `0.0` skips
    /// the damping step (and its RNG draw), matching the original early
    /// return for non-positive gamma.
    gamma: f64,
    /// Precomputed no-jump damping factor `sqrt(1 - gamma)`.
    damp: f64,
    /// Pure-dephasing flip probability; `None` when the dephasing rate is
    /// zero (no RNG draw), `Some(p)` when the rate is positive (one draw,
    /// even if `p` underflows to zero — as the original path drew).
    dephase_p: Option<f64>,
}

/// One resolved free-evolution stretch of the timeline.
#[derive(Debug, Clone)]
struct FreeSegment {
    dt: f64,
    /// Index of `dt` among the schedule's distinct segment lengths (by
    /// bits); keys the per-shot detuning-phase memo.
    dt_index: usize,
    /// Started qubits in ascending order (the original iteration order).
    qubits: Vec<FreeQubit>,
    /// Started coupled pairs `(a, b, cis(-theta/2), cis(theta/2))` for the
    /// accumulated angle `theta = zeta * dt`.
    zz: Vec<(usize, usize, Complex64, Complex64)>,
}

/// One step of the compiled per-job program.
#[derive(Debug, Clone)]
enum Step {
    Free(FreeSegment),
    Gate1 {
        q: usize,
        u: M2,
        err_p: f64,
    },
    Gate2 {
        q_hi: usize,
        q_lo: usize,
        u: M4,
        err_p: f64,
    },
}

/// A schedule compiled against a noise description: unpacked gate matrices
/// and fully resolved free-evolution segments, shared by every shot of a
/// job.
#[derive(Debug, Clone)]
struct CompiledSchedule {
    num_qubits: usize,
    steps: Vec<Step>,
    /// Per-qubit quasi-static detuning sigma.
    sigma: Vec<f64>,
    /// Per-qubit readout flip probabilities `(p01, p10)`.
    readout: Vec<(f64, f64)>,
    /// Number of distinct free-segment lengths (`FreeSegment::dt_index`
    /// ranges below it).
    num_dts: usize,
    /// The pure-dephasing Z flip's phase `cis(PI)`.
    dephase_flip: Complex64,
}

impl CompiledSchedule {
    /// Resolves `scheduled` against `noise`, replicating the original
    /// timeline walk: `now` tracks the previous op's start time and only
    /// advances when a gap above 1 ps opens, gaps therefore accumulate
    /// across sub-picosecond spacings exactly as before, and `started`
    /// flips after every non-barrier op (including measure/delay/id).
    fn compile(scheduled: &ScheduledCircuit, noise: &NoiseParameters) -> Self {
        let n = scheduled.num_qubits();
        let zz: Vec<((usize, usize), f64)> = noise
            .zz_couplings()
            .filter(|((a, b), _)| *a < n && *b < n)
            .collect();
        let mut steps = Vec::new();
        let mut now = 0.0f64;
        let mut started = vec![false; n];
        let mut dts: Vec<u64> = Vec::new();
        let mut segment = |dt: f64, started: &[bool]| -> FreeSegment {
            let dt_index = match dts.iter().position(|&b| b == dt.to_bits()) {
                Some(i) => i,
                None => {
                    dts.push(dt.to_bits());
                    dts.len() - 1
                }
            };
            let qubits = (0..n)
                .filter(|&q| started[q])
                .map(|q| {
                    let qn = noise.qubit(q);
                    let gamma = if qn.t1_ns.is_finite() {
                        1.0 - (-dt / qn.t1_ns).exp()
                    } else {
                        0.0
                    };
                    let rate = qn.pure_dephasing_rate();
                    let dephase_p = if rate > 0.0 {
                        Some(0.5 * (1.0 - (-dt * rate).exp()))
                    } else {
                        None
                    };
                    let gamma = gamma.max(0.0);
                    FreeQubit {
                        q,
                        telegraph_rate: qn.telegraph_rate_per_ns,
                        no_flip_below: no_flip_bound(qn.telegraph_rate_per_ns, dt),
                        gamma,
                        damp: (1.0 - gamma).sqrt(),
                        dephase_p,
                    }
                })
                .collect();
            let zz = zz
                .iter()
                .filter(|((a, b), _)| started[*a] && started[*b])
                .map(|&((a, b), zeta)| {
                    let theta = zeta * dt;
                    (
                        a,
                        b,
                        Complex64::cis(-theta / 2.0),
                        Complex64::cis(theta / 2.0),
                    )
                })
                .collect();
            FreeSegment {
                dt,
                dt_index,
                qubits,
                zz,
            }
        };
        for op in scheduled.ops() {
            if matches!(op.gate, Gate::Barrier) {
                continue;
            }
            let dt = op.start_ns - now;
            if dt > 1e-9 {
                steps.push(Step::Free(segment(dt, &started)));
                now = op.start_ns;
            }
            match op.gate {
                Gate::Measure | Gate::Delay { .. } | Gate::I => {}
                ref g => match op.qubits.len() {
                    1 => steps.push(Step::Gate1 {
                        q: op.qubits[0],
                        u: fusion::gate_m2(g).expect("scheduled circuits are concrete"),
                        err_p: noise.qubit(op.qubits[0]).gate_error_1q,
                    }),
                    2 => steps.push(Step::Gate2 {
                        q_hi: op.qubits[0],
                        q_lo: op.qubits[1],
                        u: fusion::gate_m4(g).expect("scheduled circuits are concrete"),
                        err_p: noise.cx_error(op.qubits[0], op.qubits[1]),
                    }),
                    k => panic!("unsupported arity {k}"),
                },
            }
            for &q in &op.qubits {
                started[q] = true;
            }
        }
        let tail = scheduled.total_ns() - now;
        if tail > 1e-9 {
            steps.push(Step::Free(segment(tail, &started)));
        }
        CompiledSchedule {
            num_qubits: n,
            steps,
            sigma: (0..n)
                .map(|q| noise.qubit(q).quasi_static_sigma_rad_ns)
                .collect(),
            readout: (0..n)
                .map(|q| {
                    let qn = noise.qubit(q);
                    (qn.readout_p01, qn.readout_p10)
                })
                .collect(),
            num_dts: dts.len(),
            dephase_flip: Complex64::cis(std::f64::consts::PI),
        }
    }
}

/// Buffers reused across every shot of a job: the statevector, the
/// quasi-static environment, the per-qubit pending fused products, and the
/// per-shot detuning-phase memo.
#[derive(Debug)]
struct TrajectoryScratch {
    sv: StateVector,
    detuning: Vec<f64>,
    telegraph_sign: Vec<f64>,
    pending: Vec<Option<M2>>,
    /// `cis(detuning[q] * sign * dt)` for segments without a flip, slot
    /// `(q * num_dts + dt_index) * 2 + (sign < 0)`; cleared every shot.
    phase_memo: Vec<Option<Complex64>>,
    num_dts: usize,
}

impl TrajectoryScratch {
    fn new(compiled: &CompiledSchedule) -> Self {
        let n = compiled.num_qubits;
        TrajectoryScratch {
            sv: StateVector::zero_state(n),
            detuning: vec![0.0; n],
            telegraph_sign: vec![1.0; n],
            pending: vec![None; n],
            phase_memo: vec![None; n * compiled.num_dts * 2],
            num_dts: compiled.num_dts,
        }
    }

    /// The quasi-static phase of a flip-free segment: exactly
    /// `cis(detuning[q] * (sign * dt))`, computed once per shot per
    /// (qubit, segment length, sign).
    fn steady_phase(&mut self, q: usize, seg: &FreeSegment) -> Complex64 {
        let sign = self.telegraph_sign[q];
        let slot = (q * self.num_dts + seg.dt_index) * 2 + usize::from(sign < 0.0);
        let detuning = self.detuning[q];
        *self.phase_memo[slot].get_or_insert_with(|| Complex64::cis(detuning * (sign * seg.dt)))
    }

    /// Applies and clears the pending fused product on `q`, if any.
    fn flush(&mut self, q: usize) {
        if let Some(u) = self.pending[q].take() {
            self.sv.apply_m2(&u, q);
        }
    }

    fn flush_all(&mut self) {
        for q in 0..self.pending.len() {
            self.flush(q);
        }
    }
}

impl MachineExecutor {
    /// Creates an executor with [`DEFAULT_SHOTS`] shots.
    pub fn new(noise: NoiseParameters, seeds: SeedStream) -> Self {
        MachineExecutor {
            noise,
            seeds,
            shots: DEFAULT_SHOTS,
        }
    }

    /// Overrides the shot count.
    pub fn with_shots(mut self, shots: u64) -> Self {
        assert!(shots > 0, "shot count must be positive");
        self.shots = shots;
        self
    }

    /// Shots per [`Self::run`].
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Noise parameters in use.
    pub fn noise(&self) -> &NoiseParameters {
        &self.noise
    }

    /// Replaces the noise parameters (e.g. after drift).
    pub fn set_noise(&mut self, noise: NoiseParameters) {
        self.noise = noise;
    }

    /// Executes a scheduled circuit, returning a histogram over all qubits.
    ///
    /// Deterministic: the same executor (seed stream) and circuit produce
    /// identical counts. Different `job_index` values decorrelate repeated
    /// runs of the same circuit (used by the drift experiment).
    pub fn run(&self, scheduled: &ScheduledCircuit) -> Counts {
        self.run_job(scheduled, 0)
    }

    /// Executes with an explicit job index for stream decorrelation.
    ///
    /// # Panics
    ///
    /// Panics if `scheduled` references qubits beyond the noise description.
    pub fn run_job(&self, scheduled: &ScheduledCircuit, job_index: u64) -> Counts {
        self.run_job_with_shots(scheduled, self.shots, job_index)
    }

    /// Executes with explicit shot count and job index.
    ///
    /// The per-shot noise streams depend only on the seed stream, the job
    /// index, and the shot index — never on the configured default shot
    /// count — so a batched caller supplying shots explicitly reproduces
    /// the sequential path bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `scheduled` references qubits beyond the noise description.
    pub fn run_job_with_shots(
        &self,
        scheduled: &ScheduledCircuit,
        shots: u64,
        job_index: u64,
    ) -> Counts {
        self.run_job_shot_range(scheduled, job_index, 0..shots)
    }

    /// Executes a contiguous range of a job's shots.
    ///
    /// Shot `s` draws from an RNG seeded only by `(seeds, job_index, s)`,
    /// so splitting `0..shots` into disjoint ranges — across calls, threads
    /// or processes — and merging the histograms reproduces
    /// [`Self::run_job_with_shots`] bit for bit. The core executor's batch
    /// dispatch uses this to spread a single large job over the pool.
    ///
    /// # Panics
    ///
    /// Panics if `scheduled` references qubits beyond the noise description.
    pub fn run_job_shot_range(
        &self,
        scheduled: &ScheduledCircuit,
        job_index: u64,
        shot_range: std::ops::Range<u64>,
    ) -> Counts {
        let n = scheduled.num_qubits();
        assert!(
            self.noise.num_qubits() >= n,
            "noise parameters must cover the register"
        );
        let compiled = CompiledSchedule::compile(scheduled, &self.noise);
        let seed_base = self.seeds.child_seed("machine-trajectory");
        let mut scratch = TrajectoryScratch::new(&compiled);
        let mut hist = vec![0u64; 1usize << n];
        for shot in shot_range {
            let mut rng = StdRng::seed_from_u64(indexed_seed(
                seed_base,
                job_index.wrapping_mul(1_000_003) ^ shot,
            ));
            let outcome = run_trajectory(&compiled, &mut scratch, &mut rng);
            hist[outcome] += 1;
        }
        Counts::from_index_histogram(n, &hist)
    }
}

/// Runs one trajectory through a compiled schedule and returns the measured
/// basis index (with readout error applied). Consumes the RNG stream in
/// exactly the order of the original per-op path.
fn run_trajectory(
    compiled: &CompiledSchedule,
    scratch: &mut TrajectoryScratch,
    rng: &mut StdRng,
) -> usize {
    let n = compiled.num_qubits;
    scratch.sv.reset_zero();

    // Per-trajectory quasi-static environment.
    for q in 0..n {
        scratch.detuning[q] = compiled.sigma[q] * sample_standard_normal(rng);
        scratch.telegraph_sign[q] = if rng.gen::<bool>() { -1.0 } else { 1.0 };
        scratch.pending[q] = None;
    }
    scratch.phase_memo.fill(None);

    for step in &compiled.steps {
        match step {
            Step::Free(seg) => {
                // Free evolution does not commute with pending products.
                scratch.flush_all();
                free_evolution(seg, compiled.dephase_flip, scratch, rng);
            }
            Step::Gate1 { q, u, err_p } => {
                let q = *q;
                scratch.pending[q] = Some(match scratch.pending[q].take() {
                    Some(prev) => u.mul(&prev),
                    None => *u,
                });
                if *err_p > 0.0 && rng.gen::<f64>() < *err_p {
                    // The Pauli lands after this gate: flush the fused run
                    // up to and including it, then apply the error.
                    scratch.flush(q);
                    apply_pauli_index(&mut scratch.sv, q, rng.gen_range(1..4u8));
                }
            }
            Step::Gate2 {
                q_hi,
                q_lo,
                u,
                err_p,
            } => {
                scratch.flush(*q_hi);
                scratch.flush(*q_lo);
                scratch.sv.apply_m4(u, *q_hi, *q_lo);
                if *err_p > 0.0 && rng.gen::<f64>() < *err_p {
                    // Uniform non-identity two-qubit Pauli.
                    loop {
                        let (a, b) = (rng.gen_range(0..4u8), rng.gen_range(0..4u8));
                        if a == 0 && b == 0 {
                            continue;
                        }
                        if a != 0 {
                            apply_pauli_index(&mut scratch.sv, *q_hi, a);
                        }
                        if b != 0 {
                            apply_pauli_index(&mut scratch.sv, *q_lo, b);
                        }
                        break;
                    }
                }
            }
        }
    }
    scratch.flush_all();

    // Sample the outcome and apply readout flips.
    let mut index = scratch.sv.sample_index(rng);
    for (q, &(p01, p10)) in compiled.readout.iter().enumerate() {
        let bit = 1usize << q;
        let flip_p = if index & bit != 0 { p10 } else { p01 };
        if rng.gen::<f64>() < flip_p {
            index ^= bit;
        }
    }
    index
}

/// Applies one precompiled free-evolution segment: quasi-static phase with
/// telegraph switching, T1/T2 stochastic jumps, and ZZ coupling.
///
/// The detuning phase and the excited-population measurement the damping
/// draw needs fuse into one half sweep, and both MCWF branches fold their
/// renormalization into the update itself using the analytic norm of the
/// post-operator state (`1 - gamma*p1` for no-jump, `p1` for jump, both
/// exact for a unit-norm input). Relative to the original
/// phase/measure/damp/normalize sequence this halves the memory traffic
/// per qubit-segment; amplitudes agree with the reference to ~1e-15 per
/// segment (the analytic norm differs from a re-measured one only by the
/// accumulated unit-norm float drift), and every RNG draw happens at the
/// same stream position with a probability computed from the same sweep
/// arithmetic.
///
/// The quasi-static phase of a flip-free segment comes from the per-shot
/// memo, and the ZZ and dephasing-flip phases were fixed at compile time
/// (see the module docs).
fn free_evolution(
    seg: &FreeSegment,
    dephase_flip: Complex64,
    scratch: &mut TrajectoryScratch,
    rng: &mut StdRng,
) {
    for fq in &seg.qubits {
        let q = fq.q;
        let bit = 1usize << q;

        // Quasi-static phase with telegraph switching: integrate the
        // signed detuning over dt, flipping the sign at Poisson times.
        let mut phase = None;
        if scratch.detuning[q] != 0.0 {
            let mut flipped_time = None;
            if fq.telegraph_rate > 0.0 {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                if !first_draw_cannot_flip(u, fq.no_flip_below) {
                    flipped_time = telegraph_walk(
                        u,
                        fq.telegraph_rate,
                        seg.dt,
                        &mut scratch.telegraph_sign[q],
                        rng,
                    );
                }
            }
            phase = Some(match flipped_time {
                Some(signed_time) => Complex64::cis(scratch.detuning[q] * signed_time),
                None => scratch.steady_phase(q, seg),
            });
        }

        // Amplitude damping as an MCWF jump/no-jump step, with the phase
        // (when present) applied by the same sweep that measures P(|1>).
        if fq.gamma > 0.0 {
            let amps = scratch.sv.amps_mut();
            let p1 = match phase {
                Some(ph) => kernels::phase_and_excited_population(amps, bit, ph),
                None => kernels::excited_population(amps, bit),
            };
            let p_jump = fq.gamma * p1;
            if rng.gen::<f64>() < p_jump {
                // Jump: |...1...> -> |...0...>; post-jump norm^2 is p1.
                let inv = if p1 > 1e-300 { 1.0 / p1.sqrt() } else { 1.0 };
                kernels::mcwf_jump(amps, bit, inv);
            } else {
                // No jump: damp the |1> branch; post norm^2 is 1 - p_jump.
                let inv = 1.0 / (1.0 - p_jump).sqrt();
                kernels::mcwf_no_jump(amps, bit, inv, fq.damp * inv);
            }
        } else if let Some(ph) = phase {
            kernels::phase_if_one(scratch.sv.amps_mut(), bit, ph);
        }

        // Pure dephasing as a stochastic Z flip.
        if let Some(p) = fq.dephase_p {
            if rng.gen::<f64>() < p {
                kernels::phase_if_one(scratch.sv.amps_mut(), bit, dephase_flip);
            }
        }
    }
    // Always-on ZZ between started pairs.
    for &(a, b, even, odd) in &seg.zz {
        kernels::zz_phase(scratch.sv.amps_mut(), 1 << a, 1 << b, even, odd);
    }
}

/// The original telegraph integration loop over one segment, entered with
/// its first waiting-time draw `u` already taken: integrates the signed
/// detuning time over `dt`, flipping `sign` at each Poisson time and
/// drawing the next waiting time after each flip. Returns the signed time
/// when at least one flip occurred, `None` otherwise — the signed time is
/// then exactly `sign * dt`, which the per-shot memo serves.
fn telegraph_walk(mut u: f64, rate: f64, dt: f64, sign: &mut f64, rng: &mut StdRng) -> Option<f64> {
    let mut remaining = dt;
    let mut signed_time = 0.0;
    let mut flipped = false;
    loop {
        let next_flip = -u.ln() / rate;
        if next_flip >= remaining {
            signed_time += *sign * remaining;
            return flipped.then_some(signed_time);
        }
        signed_time += *sign * next_flip;
        *sign = -*sign;
        remaining -= next_flip;
        flipped = true;
        u = rng.gen_range(f64::MIN_POSITIVE..1.0);
    }
}

fn apply_pauli_index(sv: &mut StateVector, q: usize, which: u8) {
    let g = match which {
        1 => Gate::X,
        2 => Gate::Y,
        _ => Gate::Z,
    };
    sv.apply_gate(&g, &[q]).expect("paulis are concrete");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use vaqem_circuit::circuit::QuantumCircuit;
    use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};
    use vaqem_device::noise::QubitNoise;

    fn sched(qc: &QuantumCircuit) -> ScheduledCircuit {
        schedule(qc, &DurationModel::ibm_default(), ScheduleKind::Asap).unwrap()
    }

    fn dephasing_only(sigma: f64, telegraph: f64) -> NoiseParameters {
        NoiseParameters::from_qubits(vec![QubitNoise {
            t1_ns: f64::INFINITY,
            t2_ns: f64::INFINITY,
            quasi_static_sigma_rad_ns: sigma,
            telegraph_rate_per_ns: telegraph,
            readout_p01: 0.0,
            readout_p10: 0.0,
            gate_error_1q: 0.0,
        }])
    }

    #[test]
    fn noiseless_machine_matches_ideal() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.measure_all();
        let exec = MachineExecutor::new(NoiseParameters::noiseless(2), SeedStream::new(1))
            .with_shots(4000);
        let counts = exec.run(&sched(&qc));
        assert_eq!(counts.total(), 4000);
        let p00 = counts.probability("00");
        let p11 = counts.probability("11");
        assert!((p00 - 0.5).abs() < 0.05, "p00 {p00}");
        assert!((p11 - 0.5).abs() < 0.05, "p11 {p11}");
        assert_eq!(counts.get("01") + counts.get("10"), 0);
    }

    #[test]
    fn runs_are_deterministic() {
        // Two qubits / four outcomes: enough histogram resolution that two
        // decorrelated jobs colliding on every bin is vanishingly unlikely.
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.h(1).unwrap();
        qc.measure_all();
        let exec =
            MachineExecutor::new(NoiseParameters::uniform(2), SeedStream::new(5)).with_shots(256);
        let a = exec.run(&sched(&qc));
        let b = exec.run(&sched(&qc));
        assert_eq!(a, b);
        let c = exec.run_job(&sched(&qc), 1);
        assert_ne!(a, c, "different job indices should decorrelate");
    }

    #[test]
    fn compiled_trajectories_match_naive_reference() {
        // Full noise model on a multi-qubit circuit: the compiled executor
        // must consume the RNG stream exactly as the original per-op path
        // did, so counts agree shot for shot.
        let mut noise = NoiseParameters::uniform(3);
        noise.set_zz(0, 1, 1.0e-4);
        noise.set_zz(1, 2, 8.0e-5);
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).unwrap();
        qc.rz(0.4, 0).unwrap();
        qc.sx(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.ry(0.8, 2).unwrap();
        qc.delay(5_000.0, 1).unwrap();
        qc.cx(1, 2).unwrap();
        qc.x(2).unwrap();
        qc.measure_all();
        let s = sched(&qc);
        let seeds = SeedStream::new(77);
        let exec = MachineExecutor::new(noise.clone(), seeds).with_shots(2048);
        let fast = exec.run_job(&s, 3);
        let slow = naive::machine_run_job_with_shots(&noise, &seeds, &s, 2048, 3);
        assert_eq!(fast, slow);
    }

    #[test]
    fn telegraph_fast_path_agrees_with_ln_decision() {
        // The original decision for a segment's first draw: no flip iff
        // -ln(u)/rate >= dt. The fast path may only claim "no flip" where
        // that holds; probe the bound, its float neighbours, and the 4096
        // floats just below it (the draws closest to a wrong claim).
        let ln_no_flip = |u: f64, rate: f64, dt: f64| -u.ln() / rate >= dt;
        for rate in [2.0e-6, 8.0e-6, 1.0e-3, 0.37] {
            for dt in [1.0e-6, 35.5, 107.0, 1_422.0, 28_440.0] {
                let bound = no_flip_bound(rate, dt);
                assert!(!first_draw_cannot_flip(bound, bound));
                assert!(!first_draw_cannot_flip(bound.next_up(), bound));
                let mut u = bound.next_down();
                // Draws lie in [f64::MIN_POSITIVE, 1).
                for _ in 0..4096 {
                    if u < f64::MIN_POSITIVE {
                        break;
                    }
                    assert!(first_draw_cannot_flip(u, bound));
                    assert!(ln_no_flip(u, rate, dt), "rate {rate} dt {dt} u {u:e}");
                    u = u.next_down();
                }
                // The margin band between the bound and the exact threshold
                // takes the ln path, whose verdict there is still "no flip".
                let threshold = (-rate * dt).exp();
                assert!(!first_draw_cannot_flip(threshold, bound));
                assert!(ln_no_flip(bound, rate, dt));
            }
        }
        // Once exp(-rate*dt) underflows the fast path can never fire.
        let bound = no_flip_bound(1.0, 1.0e4);
        assert!(!first_draw_cannot_flip(f64::MIN_POSITIVE, bound));
    }

    #[test]
    fn shot_ranges_merge_to_full_run() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.measure_all();
        let s = sched(&qc);
        let exec = MachineExecutor::new(NoiseParameters::uniform(2), SeedStream::new(12));
        let full = exec.run_job_with_shots(&s, 1000, 4);
        let mut merged = exec.run_job_shot_range(&s, 4, 0..300);
        merged.merge(&exec.run_job_shot_range(&s, 4, 300..900));
        merged.merge(&exec.run_job_shot_range(&s, 4, 900..1000));
        assert_eq!(full, merged);
    }

    #[test]
    fn quasi_static_dephasing_randomizes_plus_state() {
        // |+> idling long against sigma: X-basis measurement decays to 50/50.
        let sigma = 9.0e-5;
        let idle = 30_000.0; // sigma * t ~ 2.7 rad
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).unwrap();
        qc.delay(idle, 0).unwrap();
        qc.h(0).unwrap();
        qc.measure(0).unwrap();
        let exec =
            MachineExecutor::new(dephasing_only(sigma, 0.0), SeedStream::new(2)).with_shots(2000);
        let counts = exec.run(&sched(&qc));
        let p1 = counts.probability("1");
        assert!(p1 > 0.3, "long idle should dephase: p1 = {p1}");
    }

    #[test]
    fn hahn_echo_refocuses_quasi_static_noise() {
        // The paper's Fig. 4/6 physics: a centered X pulse recovers the
        // state; the same X at the window edge does not.
        let sigma = 9.0e-5;
        let idle = 28_440.0; // the paper's 28.44 us window
        let exec =
            MachineExecutor::new(dephasing_only(sigma, 0.0), SeedStream::new(3)).with_shots(1500);

        // Centered echo: H, delay T/2, X, delay T/2, H -> expect |1>.
        let mut echo = QuantumCircuit::new(1);
        echo.h(0).unwrap();
        echo.delay(idle / 2.0, 0).unwrap();
        echo.x(0).unwrap();
        echo.delay(idle / 2.0, 0).unwrap();
        echo.h(0).unwrap();
        echo.measure(0).unwrap();

        // Edge echo (ALAP-style): H, delay T, X, H.
        let mut edge = QuantumCircuit::new(1);
        edge.h(0).unwrap();
        edge.delay(idle, 0).unwrap();
        edge.x(0).unwrap();
        edge.h(0).unwrap();
        edge.measure(0).unwrap();

        // X|+> = |+>, so the ideal outcome of both circuits is |0>.
        let p_echo = exec.run(&sched(&echo)).probability("0");
        let p_edge = exec.run(&sched(&edge)).probability("0");
        assert!(
            p_echo > 0.93,
            "centered echo should refocus almost perfectly: {p_echo}"
        );
        assert!(
            p_edge < p_echo - 0.2,
            "edge-positioned X should not refocus: edge {p_edge} vs echo {p_echo}"
        );
    }

    #[test]
    fn telegraph_noise_limits_single_echo() {
        let sigma = 9.0e-5;
        let idle = 28_440.0;
        let seeds = SeedStream::new(4);
        let mut echo = QuantumCircuit::new(1);
        echo.h(0).unwrap();
        echo.delay(idle / 2.0, 0).unwrap();
        echo.x(0).unwrap();
        echo.delay(idle / 2.0, 0).unwrap();
        echo.h(0).unwrap();
        echo.measure(0).unwrap();
        let s = sched(&echo);
        let quiet = MachineExecutor::new(dephasing_only(sigma, 0.0), seeds).with_shots(1500);
        let noisy = MachineExecutor::new(dephasing_only(sigma, 5.0e-5), seeds).with_shots(1500);
        let p_quiet = quiet.run(&s).probability("0");
        let p_noisy = noisy.run(&s).probability("0");
        assert!(
            p_noisy < p_quiet - 0.05,
            "telegraph switching should degrade a single echo: {p_noisy} vs {p_quiet}"
        );
    }

    #[test]
    fn t1_decay_on_machine() {
        let t1 = 50_000.0;
        let noise = NoiseParameters::from_qubits(vec![QubitNoise {
            t1_ns: t1,
            t2_ns: 2.0 * t1,
            quasi_static_sigma_rad_ns: 0.0,
            telegraph_rate_per_ns: 0.0,
            readout_p01: 0.0,
            readout_p10: 0.0,
            gate_error_1q: 0.0,
        }]);
        let mut qc = QuantumCircuit::new(1);
        qc.x(0).unwrap();
        qc.delay(t1, 0).unwrap(); // one T1
        qc.id(0).unwrap();
        qc.measure(0).unwrap();
        let exec = MachineExecutor::new(noise, SeedStream::new(6)).with_shots(3000);
        let p1 = exec.run(&sched(&qc)).probability("1");
        let expect = (-1.0f64).exp();
        assert!((p1 - expect).abs() < 0.05, "p1 {p1} vs {expect}");
    }

    #[test]
    fn readout_error_applies() {
        let mut noise = NoiseParameters::noiseless(1);
        noise.qubit_mut(0).readout_p01 = 0.15;
        let mut qc = QuantumCircuit::new(1);
        qc.id(0).unwrap();
        qc.measure(0).unwrap();
        let exec = MachineExecutor::new(noise, SeedStream::new(7)).with_shots(4000);
        let p1 = exec.run(&sched(&qc)).probability("1");
        assert!((p1 - 0.15).abs() < 0.03, "p1 {p1}");
    }

    #[test]
    fn gate_error_scales_with_gate_count() {
        let mut noise = NoiseParameters::noiseless(1);
        noise.qubit_mut(0).gate_error_1q = 0.02;
        let seeds = SeedStream::new(8);
        let run_len = |k: usize| {
            let mut qc = QuantumCircuit::new(1);
            for _ in 0..k {
                qc.x(0).unwrap();
                qc.x(0).unwrap();
            }
            qc.measure(0).unwrap();
            let exec = MachineExecutor::new(noise.clone(), seeds).with_shots(3000);
            exec.run(&sched(&qc)).probability("0")
        };
        let p_short = run_len(2);
        let p_long = run_len(40);
        assert!(
            p_long < p_short - 0.1,
            "more gates, more error: {p_long} vs {p_short}"
        );
    }

    #[test]
    fn zz_coupling_entangles_idle_neighbors() {
        // |+>|1| idling under ZZ picks up conditional phase; measuring the
        // first qubit in X basis drifts from deterministic.
        let mut noise = NoiseParameters::noiseless(2);
        noise.set_zz(0, 1, 2.5e-4);
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.x(1).unwrap();
        qc.delay(10_000.0, 0).unwrap();
        qc.delay(10_000.0, 1).unwrap();
        qc.id(0).unwrap();
        qc.id(1).unwrap();
        qc.h(0).unwrap();
        qc.measure_all();
        let exec = MachineExecutor::new(noise, SeedStream::new(9)).with_shots(2000);
        let counts = exec.run(&sched(&qc));
        // Without ZZ, qubit 0 would read 0 with certainty. zeta*t = 2.5 rad
        // rotates it far away.
        let p_q0_one: f64 = counts
            .iter()
            .filter(|(bits, _)| bits.ends_with('1'))
            .map(|(_, n)| n as f64)
            .sum::<f64>()
            / counts.total() as f64;
        assert!(
            p_q0_one > 0.2,
            "ZZ should rotate the idle qubit: {p_q0_one}"
        );
    }
}
