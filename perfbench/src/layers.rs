//! Per-layer numbers for the traced run. Spans are taken here, in the
//! benchmark, around calls into each layer's public functions with the
//! workload's own inputs; counters come from the daemon's Metrics frame.
//! Every traced run reports every name in [`PER_LAYER`]; a layer the
//! workload never crosses reads 0 (printed as "off path").

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vaqem::backend::QuantumBackend;
use vaqem::executor::{Executor, Job};
use vaqem::vqe::VqeProblem;
use vaqem::window_tuner::{FleetCacheSession, WarmTuneReport, WindowTuner};
use vaqem_bench::rpcload;
use vaqem_circuit::schedule::ScheduledCircuit;
use vaqem_fleet_rpc::client::RpcClient;
use vaqem_fleet_service::fairness::DeviceArbiter;
use vaqem_fleet_service::quota::QuotaBook;
use vaqem_fleet_service::{DurableMitigationStore, FleetService, SessionRequest};
use vaqem_mathkit::rng::SeedStream;
use vaqem_mitigation::combined::MitigationConfig;
use vaqem_sim::counts::Counts;
use vaqem_sim::machine::MachineExecutor;

use crate::daemon::DaemonSpec;
use crate::serve::{self, Counters, EndToEnd, Fleet, Load};
use crate::util::{self, Report, WorkDir};

/// Every per-layer metric, in report order: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rpc.encode_us", "us"),
    ("rpc.decode_us", "us"),
    ("rpc.overhead_us", "us"),
    ("rpc.poll_rtt_us", "us"),
    ("rpc.frames_per_session", "count"),
    ("rpc.bytes_per_session", "count"),
    ("rpc.pump_cpu_us_per_session", "us"),
    ("rpc.pump_passes_per_session", "count"),
    ("rpc.pump_wakeups_per_session", "count"),
    ("reactor.inproc_latency_ms", "ms"),
    ("reactor.dispatch_overhead_us", "us"),
    ("reactor.metrics_rtt_us", "us"),
    ("reactor.replies_gated_per_session", "count"),
    ("reactor.socket_events_per_session", "count"),
    ("fairness.enqueue_dispatch_us", "us"),
    ("quota.admit_settle_us", "us"),
    ("store.lookup_us", "us"),
    ("store.insert_us", "us"),
    ("store.flush_us", "us"),
    ("store.checkpoint_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.hit_rate", "frac"),
    ("store.journal_records_per_session", "count"),
    ("store.lock_contended_frac", "frac"),
    ("tuner.session_ms", "ms"),
    ("tuner.sim_ms", "ms"),
    ("tuner.schedule_groups_us", "us"),
    ("tuner.evaluations_per_session", "count"),
    ("tuner.windows_per_session", "count"),
    ("tuner.guard_rejected_frac", "frac"),
    ("tuner.machine_min_per_session", "min"),
    ("sim.energy_eval_us", "us"),
    ("sim.run_job_us", "us"),
    ("sim.shots_per_s", "1/s"),
    ("optim.spsa_iteration_ms", "ms"),
    ("pipeline.tune_angles_s", "s"),
    ("pipeline.strategy_s", "s"),
    ("pipeline.gain_vs_baseline", "ratio"),
    ("trace.residual_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// How long each in-process probe loop runs.
const PROBE_SECONDS: f64 = 1.0;
/// Records the store probes write, one per simulated session.
const STORE_SESSIONS: u64 = 400;
/// Iterations of the microsecond-scale probes.
const MICRO_ITERS: usize = 20_000;
/// The arbitration probes' tenants and backlog: a `light` and a `heavy`
/// tenant sharing a device with two sessions queued on it, the backlog a
/// burst of four `heavy` sessions leaves on two devices (the open-loop
/// mix in `perfbench/NOTES.md`). No gated workload builds a queue, so
/// the probes construct one.
const ARBITER_TENANTS: [&str; 2] = ["light", "heavy"];
const ARBITER_BACKLOG: usize = 2;

/// Collected per-layer values; [`Layers::report`] emits every
/// [`PER_LAYER`] name, 0 for the ones left unset.
#[derive(Default)]
pub struct Layers(HashMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn report(&self, report: &mut Report) {
        println!("per layer (0 = the workload does not cross the layer):");
        for &(name, unit) in PER_LAYER {
            report.metric(
                name,
                self.get(name),
                unit,
                self.0.contains_key(name) as usize,
            );
        }
        report.print();
    }

    /// Prints each layer's share of `mean_ms` and returns the remainder
    /// nothing measured explains.
    pub fn shares(&self, mean_ms: f64, parts: &[(&str, f64)]) -> f64 {
        println!("share of the mean session latency ({mean_ms:.4} ms):");
        let mut covered = 0.0;
        for (label, ms) in parts {
            println!(
                "  {label:<36} {:>8.4} ms  {:>6.1}%",
                ms,
                100.0 * ms / mean_ms
            );
            covered += ms;
        }
        let residual = 1.0 - covered / mean_ms;
        println!(
            "  {:<36} {:>8.4} ms  {:>6.1}%",
            "trace.residual_frac",
            mean_ms - covered,
            100.0 * residual
        );
        residual
    }
}

/// An executor that forwards to the trajectory machine and adds up the
/// wall time spent inside it — the simulator's part of a tuner call.
pub struct TimedExecutor {
    inner: MachineExecutor,
    busy_ns: Arc<AtomicU64>,
}

impl TimedExecutor {
    pub fn new(inner: MachineExecutor, busy_ns: Arc<AtomicU64>) -> Self {
        TimedExecutor { inner, busy_ns }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl Executor for TimedExecutor {
    fn substrate(&self) -> &'static str {
        self.inner.substrate()
    }

    fn num_qubits(&self) -> usize {
        Executor::num_qubits(&self.inner)
    }

    fn run(&self, scheduled: &ScheduledCircuit, shots: u64, seed: u64) -> Counts {
        self.timed(|| Executor::run(&self.inner, scheduled, shots, seed))
    }

    fn run_batch(&self, jobs: &[Job]) -> Vec<Counts> {
        self.timed(|| Executor::run_batch(&self.inner, jobs))
    }
}

/// Mean time of `f` over `iters` calls, in microseconds.
pub fn mean_us(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..iters {
        f(i);
    }
    started.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Sim-layer probes on one backend at the workload's shots: an energy
/// evaluation, one job, and the schedule build every session starts with.
pub fn sim_probes<E: Executor>(
    layers: &mut Layers,
    problem: &VqeProblem,
    backend: &QuantumBackend<E>,
    params: &[f64],
) -> Result<(), String> {
    let cache = problem
        .schedule_groups(backend, params)
        .map_err(|e| format!("schedule: {e:?}"))?;
    let evals = 40;
    let energy = mean_us(evals, |j| {
        black_box(problem.machine_energy_batch(
            backend,
            &cache,
            &[(MitigationConfig::baseline(), j as u64)],
        ));
    });
    let first = &cache.schedules()[0];
    let job = mean_us(evals, |j| {
        black_box(backend.executor().run(first, backend.shots(), j as u64));
    });
    let schedule = mean_us(200, |_| {
        black_box(problem.schedule_groups(backend, params).ok());
    });
    layers.set("sim.energy_eval_us", energy);
    layers.set("sim.run_job_us", job);
    layers.set("sim.shots_per_s", backend.shots() as f64 / (job * 1e-6));
    layers.set("tuner.schedule_groups_us", schedule);
    Ok(())
}

/// Runs `session(client, k)` closed loop on one thread per client for
/// [`PROBE_SECONDS`]; returns the number of sessions and their mean time.
fn closed_probe(
    clients: usize,
    session: impl Fn(usize, u64) -> Result<(), String> + Sync,
) -> Result<(u64, f64), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(PROBE_SECONDS);
    let per_thread: Vec<Result<(u64, Duration), String>> = std::thread::scope(|s| {
        let session = &session;
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                s.spawn(move || {
                    let (mut k, mut busy) = (0, Duration::ZERO);
                    while Instant::now() < deadline {
                        let started = Instant::now();
                        session(client, k)?;
                        busy += started.elapsed();
                        k += 1;
                    }
                    Ok((k, busy))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("probe thread panicked".into()))
            })
            .collect()
    });
    let (mut count, mut busy) = (0, Duration::ZERO);
    for r in per_thread {
        let (k, b) = r?;
        count += k;
        busy += b;
    }
    Ok((count, busy.as_secs_f64() * 1e3 / count.max(1) as f64))
}

/// One tuner session called directly, as the daemon's worker would run
/// it: same noise, seed stream, tuner settings and store session.
fn direct_session(
    spec: &DaemonSpec,
    problem: &VqeProblem,
    store: &Arc<DurableMitigationStore>,
    request: &SessionRequest,
    busy_ns: &Arc<AtomicU64>,
) -> Result<WarmTuneReport, String> {
    let (device, t) = (request.device.unwrap_or(0), request.t_hours);
    let config = spec.config(Default::default());
    let dev = rpcload::windowed_device(device, spec.seed);
    let layout: Vec<usize> = (0..problem.ansatz().num_qubits()).collect();
    let epoch = dev.drift.epoch_at(t);
    let noise_now = dev.drift.noise_at(&dev.model, t).subset(&layout);
    let calibration = dev
        .drift
        .noise_at(
            &dev.model,
            epoch as f64 * dev.drift.calibration_period_hours(),
        )
        .subset(&layout);
    store.invalidate_before(&dev.name, epoch);
    let machine = MachineExecutor::new(
        noise_now,
        SeedStream::new(spec.seed).substream(&format!("machine-{}", dev.name)),
    );
    let backend = QuantumBackend::from_executor(TimedExecutor::new(machine, Arc::clone(busy_ns)))
        .with_shots(config.shots);
    let tuner = WindowTuner::new(problem, &backend, config.tuner.clone());
    let mut handle = Arc::clone(store);
    let mut session = FleetCacheSession {
        store: &mut handle,
        device: &dev.name,
        epoch,
        calibration: &calibration,
    };
    tuner
        .tune_dd_warm(&request.params, &mut session)
        .map_err(|e| format!("direct tune: {e:?}"))
}

/// Store probes on a private durable store, with the workload's own
/// fingerprint and stored choice: lookup (hit), group-commit insert, the
/// per-session journal flush, journal replay at open, and checkpoint.
fn store_probes(
    layers: &mut Layers,
    spec: &DaemonSpec,
    template: &Arc<DurableMitigationStore>,
) -> Result<(), String> {
    let Some((device, _, fp, value)) = template.export_entries().into_iter().next() else {
        return Err("no accepted session to probe the store with".into());
    };
    let config = spec.config(Default::default());
    let dir = WorkDir::new("store-probe").map_err(|e| e.to_string())?;
    let io = |e: std::io::Error| e.to_string();
    let store = DurableMitigationStore::open(&dir.0, config.shards, config.capacity_per_shard)
        .map_err(io)?;
    store.set_group_commit(true);
    let (mut insert, mut flush) = (Duration::ZERO, Duration::ZERO);
    for epoch in 0..STORE_SESSIONS {
        let started = Instant::now();
        store.insert(&device, epoch, fp, value.clone());
        let inserted = Instant::now();
        store.flush_journal().map_err(io)?;
        insert += inserted - started;
        flush += inserted.elapsed();
    }
    let live = (config.capacity_per_shard as u64).min(STORE_SESSIONS);
    let mut hits = 0;
    let lookup = mean_us(MICRO_ITERS, |i| {
        let epoch = STORE_SESSIONS - 1 - (i as u64 % live);
        hits += store.lookup(&device, epoch, &fp).is_some() as usize;
    });
    if hits != MICRO_ITERS {
        return Err(format!("store probe: {hits} of {MICRO_ITERS} lookups hit"));
    }
    drop(store);
    let started = Instant::now();
    let reopened = DurableMitigationStore::open(&dir.0, config.shards, config.capacity_per_shard)
        .map_err(io)?;
    let open = started.elapsed();
    let started = Instant::now();
    reopened.checkpoint().map_err(io)?;
    let checkpoint = started.elapsed();
    layers.set("store.lookup_us", lookup);
    layers.set(
        "store.insert_us",
        insert.as_secs_f64() * 1e6 / STORE_SESSIONS as f64,
    );
    layers.set(
        "store.flush_us",
        flush.as_secs_f64() * 1e6 / STORE_SESSIONS as f64,
    );
    layers.set("store.open_ms", open.as_secs_f64() * 1e3);
    layers.set("store.checkpoint_ms", checkpoint.as_secs_f64() * 1e3);
    Ok(())
}

/// The fairness and quota probes: `DeviceArbiter::enqueue` +
/// `dispatch_next` and `QuotaBook::admit` + `settle` under the daemon's
/// own fairness and quota settings, with [`ARBITER_TENANTS`] sharing a
/// device behind [`ARBITER_BACKLOG`] queued sessions.
fn arbitration_probes(layers: &mut Layers, spec: &DaemonSpec, estimate_min: f64) {
    let tenancy = spec.config(Default::default()).tenancy;
    let tenant = |i: usize| ARBITER_TENANTS[i % ARBITER_TENANTS.len()];
    let mut arbiter = DeviceArbiter::<usize>::new(tenancy.fairness, estimate_min);
    for i in 0..ARBITER_BACKLOG {
        arbiter.enqueue(tenant(i), estimate_min, i);
    }
    let fair = mean_us(MICRO_ITERS, |i| {
        arbiter.enqueue(tenant(i), estimate_min, i);
        black_box(arbiter.dispatch_next());
    });
    let mut quota = QuotaBook::new(tenancy.default_quota, &tenancy.quotas);
    let admit = mean_us(MICRO_ITERS, |i| {
        let _ = black_box(quota.admit(tenant(i), 0, estimate_min));
        quota.settle(tenant(i), estimate_min, estimate_min);
    });
    layers.set("fairness.enqueue_dispatch_us", fair);
    layers.set("quota.admit_settle_us", admit);
}

/// Daemon counters over the traced phase, per completed session.
fn counter_deltas(layers: &mut Layers, before: &Counters, after: &Counters, sessions: f64) {
    let (b, a) = (&before.rpc, &after.rpc);
    let per = |x: u64, y: u64| y.saturating_sub(x) as f64 / sessions;
    layers.set(
        "rpc.frames_per_session",
        per(b.frames_in + b.frames_out, a.frames_in + a.frames_out),
    );
    layers.set(
        "rpc.bytes_per_session",
        per(b.bytes_in + b.bytes_out, a.bytes_in + a.bytes_out),
    );
    layers.set(
        "rpc.pump_cpu_us_per_session",
        per(b.pump_cpu_micros, a.pump_cpu_micros),
    );
    layers.set(
        "rpc.pump_passes_per_session",
        per(b.pump_passes, a.pump_passes),
    );
    layers.set(
        "rpc.pump_wakeups_per_session",
        per(b.pump_wakeups, a.pump_wakeups),
    );
    let delta = |key: &str| util::json_sum(&after.json, key) - util::json_sum(&before.json, key);
    layers.set(
        "reactor.replies_gated_per_session",
        delta("replies_gated") / sessions,
    );
    layers.set(
        "reactor.socket_events_per_session",
        delta("socket_events") / sessions,
    );
    let shard = |json: &str, key: &str| {
        util::json_sum(util::json_section(json, "shards", "store_entries"), key)
    };
    let shard_delta = |key: &str| shard(&after.json, key) - shard(&before.json, key);
    let (hits, misses) = (shard_delta("hits"), shard_delta("misses"));
    layers.set("store.hit_rate", hits / (hits + misses).max(1.0));
    layers.set(
        "store.lock_contended_frac",
        shard_delta("lock_contended") / shard_delta("lock_acquisitions").max(1.0),
    );
}

/// The traced run of a serving workload.
pub fn serving(
    report: &mut Report,
    fleet: &Fleet,
    untraced: &(Load, EndToEnd, Counters, Counters),
    traced: &(Load, EndToEnd, Counters, Counters),
) -> Result<(), String> {
    let mut layers = Layers::default();
    let (load, e2e, before, after) = traced;
    let sessions = load.completed().max(1) as f64;
    let spec = &fleet.spec;
    let problem = rpcload::windowed_problem();

    // rpc: codec spans on the traced phase's Submit and Outcome frames,
    // and bare round trips through socket, pump and reactor.
    let frames = load.codec.frames.max(1) as f64;
    layers.set(
        "rpc.encode_us",
        load.codec.encode.as_secs_f64() * 1e6 / frames,
    );
    layers.set(
        "rpc.decode_us",
        load.codec.decode.as_secs_f64() * 1e6 / frames,
    );
    let mut probe = serve::connect(&fleet.daemon.socket, "rtt-probe")?;
    let mut rtt = |n: usize, f: &mut dyn FnMut(&mut RpcClient) -> std::io::Result<()>| {
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let started = Instant::now();
            f(&mut probe).map_err(|e| e.to_string())?;
            samples.push(started.elapsed().as_secs_f64() * 1e6);
        }
        Ok::<f64, String>(util::median(&samples))
    };
    let poll_rtt = rtt(200, &mut |c| c.poll().map(|_| ()))?;
    let metrics_rtt = rtt(20, &mut |c| c.metrics().map(|_| ()))?;
    layers.set("rpc.poll_rtt_us", poll_rtt);
    layers.set("reactor.metrics_rtt_us", metrics_rtt);
    counter_deltas(&mut layers, before, after, sessions);

    // tuner: outcome counts of the traced phase.
    let outcomes: Vec<_> = load.outcomes().collect();
    let n = outcomes.len().max(1) as f64;
    layers.set(
        "tuner.evaluations_per_session",
        outcomes.iter().map(|o| o.evaluations).sum::<usize>() as f64 / n,
    );
    layers.set(
        "tuner.windows_per_session",
        outcomes.iter().map(|o| o.hits + o.misses).sum::<usize>() as f64 / n,
    );
    layers.set(
        "tuner.guard_rejected_frac",
        outcomes.iter().filter(|o| o.guard_rejected).count() as f64 / n,
    );
    layers.set(
        "tuner.machine_min_per_session",
        outcomes.iter().map(|o| o.minutes).sum::<f64>() / n,
    );

    // reactor: an in-process twin of the daemon, same requests, closed loop.
    let twin_dir = WorkDir::new("twin").map_err(|e| e.to_string())?;
    let twin: FleetService = spec
        .open(twin_dir.path("store"))
        .map_err(|e| e.to_string())?;
    for (lane, t) in fleet
        .lanes
        .iter()
        .filter_map(|l| l.warm.as_ref().map(|(t, _)| (l, *t)))
    {
        let primed = twin.submit(lane.request(t)).recv();
        primed
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
    }
    let (_, inproc_ms) = closed_probe(fleet.clients, |client, k| {
        let result = twin.submit(fleet.request(client, k)).recv();
        result
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
        Ok(())
    })?;
    let estimate_min = twin.session_estimate_min();
    twin.shutdown().map_err(|e| e.to_string())?;
    layers.set("reactor.inproc_latency_ms", inproc_ms);

    // tuner and sim: the same sessions called directly, sim time split out.
    let store_dir = WorkDir::new("direct").map_err(|e| e.to_string())?;
    let config = spec.config(Default::default());
    let store = Arc::new(
        DurableMitigationStore::open(&store_dir.0, config.shards, config.capacity_per_shard)
            .map_err(|e| e.to_string())?,
    );
    let busy_ns = Arc::new(AtomicU64::new(0));
    for (lane, t) in fleet
        .lanes
        .iter()
        .filter_map(|l| l.warm.as_ref().map(|(t, _)| (l, *t)))
    {
        direct_session(spec, &problem, &store, &lane.request(t), &busy_ns)?;
    }
    let records_before = store.journal_records();
    busy_ns.store(0, Ordering::Relaxed);
    let (direct_n, direct_ms) = closed_probe(fleet.clients, |client, k| {
        direct_session(spec, &problem, &store, &fleet.request(client, k), &busy_ns).map(|_| ())
    })?;
    let direct_n = direct_n.max(1) as f64;
    let sim_ms = busy_ns.load(Ordering::Relaxed) as f64 / 1e6 / direct_n;
    layers.set("tuner.session_ms", direct_ms);
    layers.set("tuner.sim_ms", sim_ms);
    layers.set(
        "store.journal_records_per_session",
        store.journal_records().saturating_sub(records_before) as f64 / direct_n,
    );
    let first = fleet.request(0, 0);
    let dev = rpcload::windowed_device(fleet.lanes[0].device, spec.seed);
    let layout: Vec<usize> = (0..problem.ansatz().num_qubits()).collect();
    let backend = QuantumBackend::new(
        dev.drift
            .noise_at(&dev.model, first.t_hours)
            .subset(&layout),
        SeedStream::new(spec.seed).substream(&format!("machine-{}", dev.name)),
    )
    .with_shots(config.shots);
    sim_probes(&mut layers, &problem, &backend, &first.params)?;
    if store.is_empty() {
        // Every session of the run was rejected by the guard, so nothing
        // was published; take the entry of the first device and hour the
        // guard accepts, so the store probes still use a real record.
        let hours = (0..spec.devices)
            .flat_map(|device| (0..3).map(move |k| (device, 0.5 + k as f64 * 0.75)));
        for (device, t) in hours {
            let request = SessionRequest {
                device: Some(device),
                ..rpcload::windowed_request(t)
            };
            direct_session(spec, &problem, &store, &request, &busy_ns)?;
            if !store.is_empty() {
                break;
            }
        }
    }
    store_probes(&mut layers, spec, &store)?;
    arbitration_probes(&mut layers, spec, estimate_min);

    // Reconciliation against the traced phase's mean latency.
    let mean_ms = load.latencies().mean();
    layers.set("rpc.overhead_us", (mean_ms - inproc_ms) * 1e3);
    let flush_ms = layers.get("store.flush_us") / 1e3;
    layers.set(
        "reactor.dispatch_overhead_us",
        (inproc_ms - direct_ms) * 1e3,
    );
    let residual = layers.shares(
        mean_ms,
        &[
            ("rpc.poll_rtt_us", poll_rtt / 1e3),
            (
                "reactor dispatch (less store flush)",
                inproc_ms - direct_ms - flush_ms,
            ),
            ("store.flush_us", flush_ms),
            ("tuner.sim_ms", sim_ms),
            ("tuner rest (session - sim)", direct_ms - sim_ms),
        ],
    );
    layers.set("trace.residual_frac", residual);
    let (_, untraced_e2e, _, _) = untraced;
    println!(
        "end to end, untraced vs traced: p50 {:.4} vs {:.4} ms, {} {:.4} vs {:.4} ms, cpu {:.4} vs {:.4} ms/session",
        untraced_e2e.p50_ms,
        e2e.p50_ms,
        util::percentile_label(serve::TAIL_Q),
        untraced_e2e.tail_ms,
        e2e.tail_ms,
        untraced_e2e.cpu_ms_per_session,
        e2e.cpu_ms_per_session
    );
    layers.set(
        "trace.overhead_frac",
        e2e.p50_ms / untraced_e2e.p50_ms - 1.0,
    );
    layers.report(report);
    Ok(())
}
