//! `pipeline_offline`: the paper's offline flow in-process — SPSA angle
//! tuning, then the MEM baseline and VAQEM GS+XY on one pinned benchmark.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vaqem::backend::QuantumBackend;
use vaqem::benchmarks::BenchmarkId;
use vaqem::pipeline::{run_pipeline, tune_angles, BenchmarkRun, PipelineConfig, Strategy};
use vaqem::vqe::VqeProblem;
use vaqem::window_tuner::{WindowTuner, WindowTunerConfig};
use vaqem_device::noise::NoiseParameters;
use vaqem_mitigation::dd::DdSequence;
use vaqem_sim::machine::MachineExecutor;

use crate::layers::{self, Layers, TimedExecutor};
use crate::util::{self, Report, Samples};
use crate::Args;

const BENCHMARK: BenchmarkId = BenchmarkId::Tfim4qC6r;
const STRATEGIES: [Strategy; 2] = [Strategy::MemBaseline, Strategy::VaqemGsXy];
/// Set-ups per run, each a problem and noise construction plus one
/// warm-up pipeline run not counted as a sample; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Runs per measurement, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// `slo_met_frac` limit on one pipeline run, placed like the serving
/// limits at about twice the reference machine's tail (2.8 s).
const PIPELINE_LIMIT_MS: f64 = 5500.0;
/// The tail percentile reported. A 20 s run makes about 8 pipeline runs
/// on the reference machine, so a higher percentile would be a single
/// run's time.
const TAIL_Q: f64 = 0.75;

/// The workload runs the repository's quick-sized configuration,
/// `PipelineConfig::quick()`, which pins the root seed (2024). Its cost
/// and its quality number depend on the tuning trajectory the seed
/// picks, so the workload pins one trajectory rather than averaging over
/// seeds; `--seed` does not reach it.
fn config() -> PipelineConfig {
    PipelineConfig::quick()
}

/// Builds the problem and runs the pipeline once, so lazy set-up and
/// allocator warm-up are not measured as pipeline time; returns the
/// problem, its noise, and the warm-up run's `gain_vs_baseline`.
fn setup(config: &PipelineConfig) -> Result<(VqeProblem, NoiseParameters, f64), String> {
    let problem = BENCHMARK.problem().map_err(|e| format!("problem: {e:?}"))?;
    let noise = BENCHMARK.circuit_noise();
    let run = run_pipeline(&problem, &noise, config, &STRATEGIES).map_err(|e| format!("{e:?}"))?;
    Ok((problem, noise, gain(&run)))
}

fn gain(run: &BenchmarkRun) -> f64 {
    run.result(Strategy::VaqemGsXy)
        .map_or(f64::NAN, |r| r.rel_baseline)
}

/// Runs the pipeline for `seconds` (at least [`MIN_RUNS`] times).
fn measure(
    report: &mut Report,
    problem: &VqeProblem,
    noise: &NoiseParameters,
    config: &PipelineConfig,
    seconds: f64,
) -> (Samples, Vec<f64>, Duration) {
    let pid = std::process::id();
    let cpu_before = util::process_cpu(pid).unwrap_or_default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut samples, mut gains, mut failed) = (Samples::default(), Vec::new(), 0);
    while samples.len() + failed < MIN_RUNS || Instant::now() < deadline {
        let started = Instant::now();
        match run_pipeline(problem, noise, config, &STRATEGIES) {
            Ok(run) => {
                samples.push(started.elapsed());
                gains.push(gain(&run));
            }
            Err(e) => {
                failed += 1;
                report.check(false, || format!("pipeline failed: {e:?}"));
            }
        }
    }
    let cpu = util::process_cpu(pid).unwrap_or_default() - cpu_before;
    report.attempted += (samples.len() + failed) as u64;
    report.failed += failed as u64;
    (samples, gains, cpu)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let config = config();
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        built = Some(setup(&config)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let (problem, noise, reference) = built.expect("set up at least once");
    println!(
        "settings: in-process run_pipeline on {} with {:?}, PipelineConfig::quick() (pinned seed {}, shots {}, \
         sweep resolution {}, max repetitions {}, {} SPSA iterations); threads: the executor's batch pool over {} cores",
        BENCHMARK.label(),
        STRATEGIES,
        config.seeds.root(),
        config.shots,
        config.sweep_resolution,
        config.max_repetitions,
        config.spsa.iterations,
        util::nproc()
    );
    let mut report = Report::default();
    let host = util::host_ticks();
    // The traced run spends half its time on the pipeline and the rest
    // on the layer probes, which run outside `run_pipeline`.
    let share = if args.trace { 0.5 } else { 1.0 };
    let (samples, gains, cpu) =
        measure(&mut report, &problem, &noise, &config, args.seconds * share);
    report.check(
        gains.iter().all(|g| g.to_bits() == reference.to_bits()),
        || format!("gain_vs_baseline differs between repeats: {reference} vs {gains:?}"),
    );
    println!(
        "pipeline: {} runs, p50 {:.2} ms, p75 {:.2} ms, cpu {:.2} ms/run, gain_vs_baseline {reference}",
        samples.len(),
        samples.quantile(0.5),
        samples.quantile(TAIL_Q),
        cpu.as_secs_f64() * 1e3 / samples.len().max(1) as f64
    );
    util::print_steal(host);
    let peak_rss = util::peak_rss_mb(std::process::id()).ok_or("own status unreadable")?;
    if !args.trace {
        let runs = samples.len().max(1) as f64;
        let n = samples.len();
        report.metric(
            "setup_s",
            util::median(&setup_times),
            "s",
            setup_times.len(),
        );
        report.metric("latency_p50_ms", samples.quantile(0.5), "ms", n);
        report.metric("latency_tail_ms", samples.quantile(TAIL_Q), "ms", n);
        let met = samples.count_within(PIPELINE_LIMIT_MS) as f64;
        report.metric(
            "slo_met_frac",
            met / report.attempted.max(1) as f64,
            "frac",
            report.attempted as usize,
        );
        report.metric(
            "cpu_ms_per_session",
            cpu.as_secs_f64() * 1e3 / runs,
            "ms",
            n,
        );
        report.metric("peak_rss_mb", peak_rss, "MB", 1);
        println!("end to end (a session is one pipeline run; latency_tail_ms is the p75):");
        report.print();
        return Ok(report);
    }
    traced_layers(&mut report, &problem, &noise, &config, reference, &samples)?;
    Ok(report)
}

fn traced_layers(
    report: &mut Report,
    problem: &VqeProblem,
    noise: &NoiseParameters,
    config: &PipelineConfig,
    gain: f64,
    pipeline: &Samples,
) -> Result<(), String> {
    let mut layers = Layers::default();
    let started = Instant::now();
    let (params, _) =
        tune_angles(problem, &config.spsa, &config.seeds).map_err(|e| format!("{e:?}"))?;
    let angles_s = started.elapsed().as_secs_f64();

    // The GS+XY tuner exactly as the pipeline builds it, with the
    // simulator's share timed.
    let busy_ns = Arc::new(AtomicU64::new(0));
    let machine = MachineExecutor::new(noise.clone(), config.seeds.substream("machine"));
    let mut backend =
        QuantumBackend::from_executor(TimedExecutor::new(machine, Arc::clone(&busy_ns)))
            .with_shots(config.shots);
    backend.calibrate_mem();
    let tuner_config = WindowTunerConfig {
        sweep_resolution: config.sweep_resolution,
        dd_sequence: DdSequence::Xy4,
        max_repetitions: config.max_repetitions,
        ..WindowTunerConfig::default()
    };
    busy_ns.store(0, Ordering::Relaxed);
    let started = Instant::now();
    let tuned = WindowTuner::new(problem, &backend, tuner_config)
        .tune_combined(&params)
        .map_err(|e| format!("{e:?}"))?;
    let tuner_ms = started.elapsed().as_secs_f64() * 1e3;
    let sim_ms = busy_ns.load(Ordering::Relaxed) as f64 / 1e6;

    let mut plain = QuantumBackend::new(noise.clone(), config.seeds.substream("machine"))
        .with_shots(config.shots);
    plain.calibrate_mem();
    layers::sim_probes(&mut layers, problem, &plain, &params)?;
    let pipeline_ms = pipeline.quantile(0.5);
    layers.set("pipeline.tune_angles_s", angles_s);
    layers.set(
        "optim.spsa_iteration_ms",
        angles_s * 1e3 / config.spsa.iterations as f64,
    );
    layers.set("pipeline.strategy_s", pipeline_ms / 1e3 - angles_s);
    layers.set("pipeline.gain_vs_baseline", gain);
    layers.set("tuner.session_ms", tuner_ms);
    layers.set("tuner.sim_ms", sim_ms);
    layers.set("tuner.evaluations_per_session", tuned.evaluations as f64);
    layers.set(
        "tuner.windows_per_session",
        (tuned.gs_choices.len() + tuned.dd_choices.len()) as f64,
    );
    // The final evaluations: every strategy once per repeat.
    let eval_ms =
        (STRATEGIES.len() * config.eval_repeats) as f64 * layers.get("sim.energy_eval_us") / 1e3;
    let residual = layers.shares(
        pipeline_ms,
        &[
            ("pipeline.tune_angles_s", angles_s * 1e3),
            ("tuner.sim_ms", sim_ms),
            ("tuner rest (session - sim)", tuner_ms - sim_ms),
            ("final evaluations", eval_ms),
        ],
    );
    layers.set("trace.residual_frac", residual);
    // Every span is taken outside `run_pipeline`, whose runs carry no
    // tracing, so there is no overhead to measure.
    println!("end to end: p50 {pipeline_ms:.2} ms; trace.overhead_frac 0 (nothing traced inside run_pipeline)");
    layers.set("trace.overhead_frac", 0.0);
    layers.report(report);
    Ok(())
}
