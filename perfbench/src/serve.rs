//! The serving workloads `warm_hits` and `cold_sweeps`: closed loops
//! driven over VQRP with the repository's `RpcClient` against a daemon
//! child.

use std::hint::black_box;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rand::Rng;
use vaqem_bench::rpcload;
use vaqem_fleet_rpc::client::RpcClient;
use vaqem_fleet_rpc::Frame;
use vaqem_fleet_service::{RpcMetricsReport, SessionOutcome, SessionRequest, SessionResult};
use vaqem_mathkit::rng::SeedStream;
use vaqem_mitigation::combined::MitigationConfig;
use vaqem_runtime::persist::Codec;

use crate::daemon::{Daemon, DaemonSpec};
use crate::layers;
use crate::util::{self, Report, Samples, WorkDir};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Warm workloads need devices whose cold session the guard accepts (a
/// rejected configuration is never cached, so nothing could hit it);
/// priming tries this many request hours, this far apart, per device,
/// all inside the first calibration epoch.
const PRIME_STEP_H: f64 = 0.75;
const PRIME_HOURS: usize = 3;
/// Devices in every serving daemon.
const FLEET_DEVICES: usize = 36;
/// Lanes (device, angles and, on warm workloads, primed hour) each
/// client cycles through. A session's cost depends on its lane's inputs,
/// so a run averages over several lanes per client; with one lane per
/// client, `warm_hits`' p50 spread by 28% over ten seeds.
const LANES_PER_CLIENT: usize = 6;
/// The fleet (device noise, drift, machine trajectories) is pinned, so
/// every seed runs against the same daemon; `--seed` draws the request
/// streams: session angles and cold start epochs.
const FLEET_SEED: u64 = 7077;
/// Latency limits for `slo_met_frac`, each about twice the workload's
/// tail on the reference machine: far enough outside the body of the
/// distribution that the share moves with slower layers, not with a few
/// seconds of hypervisor steal.
const WARM_LIMIT_MS: f64 = 50.0;
const COLD_LIMIT_MS: f64 = 60.0;
/// Measurement windows per run (see [`end_to_end`]).
const WINDOWS: usize = 5;
/// The tail percentile reported. Each workload has at least ten samples
/// beyond it in every window at the reference run length (`warm_hits`
/// barely affords p99, which the host's scheduling hiccups moved by more
/// than 20% between runs of the same code).
pub const TAIL_Q: f64 = 0.95;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    WarmHits,
    ColdSweeps,
}

impl Shape {
    fn primed(self) -> bool {
        self == Shape::WarmHits
    }

    fn limit_ms(self) -> f64 {
        match self {
            Shape::WarmHits => WARM_LIMIT_MS,
            Shape::ColdSweeps => COLD_LIMIT_MS,
        }
    }
}

/// One finished (or failed) session as the generator saw it.
#[derive(Debug, Clone)]
pub struct Session {
    /// When the session was sent, in seconds since the phase started.
    pub start_s: f64,
    pub latency_ms: f64,
    pub result: Result<SessionOutcome, String>,
}

/// Time spent in `Frame::to_wire` and `Frame::decode` on the workload's
/// own Submit and Outcome frames, recorded only in the traced phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecSpans {
    pub encode: Duration,
    pub decode: Duration,
    pub frames: u64,
}

impl CodecSpans {
    /// Encodes `frame` and decodes it back, timing both halves.
    fn time(&mut self, frame: &Frame) -> Result<(), String> {
        let started = Instant::now();
        let wire = frame.to_wire();
        let encoded = Instant::now();
        // `to_wire` prepends a u32 length; `decode` reads the payload.
        let mut payload = &wire[4..];
        let decoded = black_box(Frame::decode(&mut payload));
        self.encode += encoded - started;
        self.decode += encoded.elapsed();
        self.frames += 1;
        match decoded {
            Some(_) if payload.is_empty() => Ok(()),
            _ => Err("a workload frame did not decode back".into()),
        }
    }

    fn merge(&mut self, other: &CodecSpans) {
        self.encode += other.encode;
        self.decode += other.decode;
        self.frames += other.frames;
    }
}

/// What a load phase produced.
#[derive(Debug, Default)]
pub struct Load {
    pub sessions: Vec<Session>,
    pub elapsed: Duration,
    pub codec: CodecSpans,
    /// The daemon's cumulative CPU time at the start and at the end of
    /// every measurement window.
    pub cpu_marks: Vec<Duration>,
    pub window_s: f64,
}

impl Load {
    pub fn completed(&self) -> usize {
        self.sessions.iter().filter(|s| s.result.is_ok()).count()
    }

    pub fn outcomes(&self) -> impl Iterator<Item = &SessionOutcome> {
        self.sessions.iter().filter_map(|s| s.result.as_ref().ok())
    }

    pub fn latencies(&self) -> Samples {
        let mut samples = Samples::default();
        for s in self.sessions.iter().filter(|s| s.result.is_ok()) {
            samples.push_ms(s.latency_ms);
        }
        samples
    }
}

/// One lane: the device it drives, the angles of its warm sessions, the
/// calibration epoch its cold sessions start from, and, on warm
/// workloads, the primed request hour and the configuration the accepted
/// cold session returned.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane {
    pub device: usize,
    pub params: Vec<f64>,
    pub first_epoch: u64,
    pub warm: Option<(f64, MitigationConfig)>,
}

impl Lane {
    /// A lane on `device` with inputs drawn from the workload seed's
    /// stream number `draw`.
    fn new(seed: u64, device: usize, draw: usize) -> Lane {
        let mut rng = SeedStream::new(seed).rng_indexed("lane", draw as u64);
        Lane {
            device,
            params: angles(&mut rng),
            first_epoch: rng.gen_range(0..1000u64) * 1000,
            warm: None,
        }
    }

    pub fn request(&self, t_hours: f64) -> SessionRequest {
        SessionRequest {
            device: Some(self.device),
            params: self.params.clone(),
            ..rpcload::windowed_request(t_hours)
        }
    }
}

/// The fleet after set-up.
pub struct Fleet {
    /// The workload seed the requests are drawn from.
    pub seed: u64,
    pub spec: DaemonSpec,
    pub daemon: Daemon,
    /// Client `c` cycles through lanes `c`, `c + clients`, ...
    pub lanes: Vec<Lane>,
    pub clients: usize,
    _dir: WorkDir,
}

impl Fleet {
    /// Client `client`'s session `k`, on the client's next lane: at the
    /// primed hour on warm workloads, else at a calibration epoch after
    /// every earlier session of the client, with angles of its own. A
    /// cold session's cost depends on its angles, so a run averages over
    /// all its sessions' angles rather than over a few sets.
    pub fn request(&self, client: usize, k: u64) -> SessionRequest {
        let per_client = (self.lanes.len() / self.clients) as u64;
        let lane = &self.lanes[client + self.clients * (k % per_client) as usize];
        if let Some((t, _)) = &lane.warm {
            return lane.request(*t);
        }
        let mut rng = SeedStream::new(self.seed).rng_indexed(&format!("cold-{client}"), k);
        SessionRequest {
            params: angles(&mut rng),
            ..lane.request(0.5 + (lane.first_epoch + k) as f64 * calibration_period_h())
        }
    }
}

/// One angle set for the windowed problem.
fn angles(rng: &mut impl Rng) -> Vec<f64> {
    // Building the problem costs more than drawing the angles.
    static NUM_PARAMS: OnceLock<usize> = OnceLock::new();
    let n = *NUM_PARAMS.get_or_init(|| rpcload::windowed_problem().num_params());
    (0..n)
        .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
        .collect()
}

/// Generator width: one thread and one connection per client, never
/// more than the machine's cores.
pub fn clients() -> usize {
    util::nproc().min(2)
}

/// Connects to the daemon and binds `client` as the connection's identity.
pub fn connect(socket: &Path, client: &str) -> Result<RpcClient, String> {
    let mut conn = RpcClient::connect_unix(socket).map_err(|e| format!("connect {client}: {e}"))?;
    conn.open(client)
        .map_err(|e| format!("open {client}: {e}"))?;
    Ok(conn)
}

/// One session, closed loop: submit and wait for its result.
pub fn round_trip(conn: &mut RpcClient, request: SessionRequest) -> Result<SessionResult, String> {
    let token = conn.submit(request).map_err(|e| format!("submit: {e}"))?;
    conn.await_result(token).map_err(|e| format!("await: {e}"))
}

fn calibration_period_h() -> f64 {
    rpcload::windowed_device(0, FLEET_SEED)
        .drift
        .calibration_period_hours()
}

/// Finds `lanes` devices whose cold session the guard accepts, walking
/// the fleet's devices in index order and a few request hours on each
/// (acceptance is mostly a property of the device's noise: where DD does
/// not help, the guard rightly rejects at every hour). The walk stops at
/// a device's first accepted hour: a later session there would reuse the
/// entries (window fingerprints do not depend on the angles) and, if the
/// guard rejected it, evict them.
fn find_lanes(socket: &Path, seed: u64, lanes: usize) -> Result<Vec<Lane>, String> {
    let mut conn = connect(socket, "find-lanes")?;
    let mut found = Vec::new();
    for device in 0..FLEET_DEVICES {
        let mut lane = Lane::new(seed, device, found.len());
        for attempt in 0..PRIME_HOURS {
            let t = 0.5 + attempt as f64 * PRIME_STEP_H;
            let outcome = round_trip(&mut conn, lane.request(t))
                .map_err(|e| format!("find lanes: {e}"))?
                .map_err(|e| format!("find lanes: session failed: {e}"))?;
            if !outcome.guard_rejected && outcome.misses > 0 {
                lane.warm = Some((t, outcome.config));
                found.push(lane);
                break;
            }
        }
        if found.len() == lanes {
            return Ok(found);
        }
    }
    Err(format!(
        "only {} of {FLEET_DEVICES} devices had a cold session the guard accepts; {lanes} needed",
        found.len()
    ))
}

/// The priming pass: one cold session per lane at its hour, which must
/// be accepted with the configuration [`find_lanes`] saw.
fn prime(socket: &Path, lanes: &[Lane]) -> Result<(), String> {
    let mut conn = connect(socket, "prime")?;
    for lane in lanes {
        let (t, config) = lane.warm.as_ref().expect("a primed lane");
        let outcome = round_trip(&mut conn, lane.request(*t))
            .map_err(|e| format!("prime: {e}"))?
            .map_err(|e| format!("prime session failed: {e}"))?;
        if outcome.guard_rejected || outcome.misses == 0 || outcome.config != *config {
            return Err(format!(
                "priming device {} differs from the lane search of the same seed",
                lane.device
            ));
        }
    }
    Ok(())
}

/// Sets the fleet up `SETUP_REPEATS` times (fresh store each time) and
/// keeps the last one; returns it with every set-up's duration. On warm
/// workloads an untimed search on a daemon of its own first picks the
/// lanes (how long it walks depends on the seed); each timed set-up then
/// spawns the daemon and primes exactly those lanes, so every seed's
/// set-up does the same work.
pub fn setup(shape: Shape, seed: u64) -> Result<(Fleet, Vec<f64>), String> {
    let clients = clients();
    let spec = DaemonSpec {
        devices: FLEET_DEVICES,
        workers: clients,
        seed: FLEET_SEED,
    };
    let count = clients * LANES_PER_CLIENT;
    let lanes = if shape.primed() {
        let dir = WorkDir::new("find-lanes").map_err(|e| e.to_string())?;
        let daemon = Daemon::spawn(&spec, &dir.0)?;
        find_lanes(&daemon.socket, seed, count)?
    } else {
        (0..count).map(|i| Lane::new(seed, i, i)).collect()
    };
    let mut times = Vec::new();
    let mut kept: Option<(Daemon, WorkDir)> = None;
    for round in 0..SETUP_REPEATS {
        let dir = WorkDir::new(&format!("setup{round}")).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let daemon = Daemon::spawn(&spec, &dir.0)?;
        if shape.primed() {
            prime(&daemon.socket, &lanes)?;
        }
        times.push(started.elapsed().as_secs_f64());
        // Replacing the previous set-up shuts its daemon down.
        kept = Some((daemon, dir));
    }
    let (daemon, dir) = kept.expect("at least one set-up");
    Ok((
        Fleet {
            seed,
            spec,
            daemon,
            lanes,
            clients,
            _dir: dir,
        },
        times,
    ))
}

/// Closed loop: one connection per client, each on its own lanes,
/// submitting the next session when the previous answer arrives. When
/// `traced`, each session's Submit and Outcome frames are also encoded
/// and decoded once more under a timer (see [`CodecSpans`]); that extra
/// work is the tracing overhead the traced run reports.
fn closed_loop(fleet: &Fleet, seconds: f64, traced: bool, first_k: u64) -> Result<Load, String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (results, cpu_marks) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..fleet.clients)
            .map(|client| {
                let socket = fleet.daemon.socket.clone();
                s.spawn(move || {
                    let mut conn = connect(&socket, &format!("closed-{client}"))?;
                    let mut codec = CodecSpans::default();
                    let mut sessions = Vec::new();
                    let mut k = first_k;
                    while Instant::now() < deadline {
                        let request = fleet.request(client, k);
                        k += 1;
                        if traced {
                            codec.time(&Frame::Submit {
                                token: k,
                                request: request.clone(),
                            })?;
                        }
                        let sent = Instant::now();
                        let result = round_trip(&mut conn, request)?;
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        if let (true, Ok(outcome)) = (traced, &result) {
                            codec.time(&Frame::Outcome {
                                token: k,
                                outcome: outcome.clone(),
                            })?;
                        }
                        sessions.push(Session {
                            start_s: (sent - started).as_secs_f64(),
                            latency_ms,
                            result: result.map_err(|e| e.to_string()),
                        });
                    }
                    Ok((sessions, codec))
                })
            })
            .collect::<Vec<_>>();
        let marks = cpu_marks(fleet.daemon.pid(), started, seconds, WINDOWS);
        (join(handles), marks)
    });
    assemble(
        results,
        cpu_marks,
        started.elapsed(),
        seconds / WINDOWS as f64,
    )
}

/// What one generator thread returns: its sessions and codec spans.
type LaneLog = Result<(Vec<Session>, CodecSpans), String>;

fn join(handles: Vec<std::thread::ScopedJoinHandle<'_, LaneLog>>) -> Vec<LaneLog> {
    handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("generator thread panicked".into()))
        })
        .collect()
}

/// Reads the daemon's CPU time at `start` and at the end of each of
/// `windows` equal windows of `seconds`, sleeping in between.
fn cpu_marks(pid: u32, start: Instant, seconds: f64, windows: usize) -> Vec<Duration> {
    (0..=windows)
        .map(|w| {
            let at = start + Duration::from_secs_f64(seconds * w as f64 / windows as f64);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            util::process_cpu(pid).unwrap_or_default()
        })
        .collect()
}

fn assemble(
    lanes: Vec<LaneLog>,
    cpu_marks: Vec<Duration>,
    elapsed: Duration,
    window_s: f64,
) -> Result<Load, String> {
    let mut load = Load {
        elapsed,
        cpu_marks,
        window_s,
        ..Load::default()
    };
    for lane in lanes {
        let (sessions, codec) = lane?;
        load.sessions.extend(sessions);
        load.codec.merge(&codec);
    }
    Ok(load)
}

/// The output checks of one load phase. `before` and `after` are the
/// daemon's own counters around it.
fn check(
    report: &mut Report,
    fleet: &Fleet,
    shape: Shape,
    load: &Load,
    before: &Counters,
    after: &Counters,
) {
    let completed = load.completed();
    let failed = load.sessions.len() - completed;
    // Attempts are counted by the daemon, not by the generator, so a
    // session the generator lost or never heard back about shows here.
    let attempted =
        (util::json_sum(&after.json, "arrivals") - util::json_sum(&before.json, "arrivals")) as u64;
    report.check(attempted == (completed + failed) as u64, || {
        format!("the daemon saw {attempted} arrivals; the generator saw {completed} completed + {failed} failed")
    });
    report.check(failed == 0, || {
        let first = load.sessions.iter().find_map(|s| s.result.as_ref().err());
        format!("{failed} closed-loop sessions failed (first: {first:?})")
    });
    for o in load.outcomes() {
        if shape.primed() {
            report.check(o.misses == 0, || {
                format!(
                    "warm session on device {} missed {} windows",
                    o.device, o.misses
                )
            });
            // warm == cold: a warm session returns exactly the config of
            // its device's priming cold session.
            let primed = fleet
                .lanes
                .iter()
                .find(|l| l.device == o.device)
                .and_then(|l| l.warm.as_ref());
            report.check(
                primed.is_some_and(|(_, config)| *config == o.config),
                || {
                    format!(
                        "warm config on device {} differs from its cold session",
                        o.device
                    )
                },
            );
        } else {
            report.check(o.hits == 0, || {
                format!("cold session on device {} hit {} windows", o.device, o.hits)
            });
        }
    }
    report.attempted += attempted;
    report.failed += failed as u64;
}

/// The end-to-end numbers of one load phase against its daemon.
pub struct EndToEnd {
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub slo_met_frac: f64,
    pub cpu_ms_per_session: f64,
    pub n: usize,
    pub windows: usize,
}

/// The end-to-end numbers of a phase: each is computed per measurement
/// window and the median over windows is reported, so a transient stall
/// of the host moves one window, not the result.
fn end_to_end(shape: Shape, load: &Load) -> EndToEnd {
    let windows = load.cpu_marks.len().saturating_sub(1).max(1);
    let mut per_window: Vec<Load> = (0..windows).map(|_| Load::default()).collect();
    for s in &load.sessions {
        let w = ((s.start_s / load.window_s) as usize).min(windows - 1);
        per_window[w].sessions.push(s.clone());
    }
    let (mut p50, mut tail, mut slo, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (w, part) in per_window.iter().enumerate() {
        let lat = part.latencies();
        let met = lat.count_within(shape.limit_ms());
        p50.push(lat.quantile(0.5));
        tail.push(lat.quantile(TAIL_Q));
        slo.push(met as f64 / part.sessions.len().max(1) as f64);
        if let (Some(a), Some(b)) = (load.cpu_marks.get(w), load.cpu_marks.get(w + 1)) {
            cpu.push((*b - *a).as_secs_f64() * 1e3 / part.completed().max(1) as f64);
        }
    }
    EndToEnd {
        p50_ms: util::median(&p50),
        tail_ms: util::median(&tail),
        slo_met_frac: util::median(&slo),
        cpu_ms_per_session: util::median(&cpu),
        n: load.completed(),
        windows,
    }
}

fn describe(label: &str, shape: Shape, load: &Load, e: &EndToEnd) {
    let outcomes: Vec<&SessionOutcome> = load.outcomes().collect();
    let n = outcomes.len().max(1) as f64;
    println!(
        "{label}: {} sessions in {:.2} s ({:.1}/s); medians of {} windows: p50 {:.3} ms, {} {:.3} ms, \
         slo {:.4} (limit {} ms), daemon cpu {:.3} ms/session; hits {} misses {}, machine {:.5} min/session",
        e.n,
        load.elapsed.as_secs_f64(),
        e.n as f64 / load.elapsed.as_secs_f64(),
        e.windows,
        e.p50_ms,
        util::percentile_label(TAIL_Q),
        e.tail_ms,
        e.slo_met_frac,
        shape.limit_ms(),
        e.cpu_ms_per_session,
        outcomes.iter().map(|o| o.hits).sum::<usize>(),
        outcomes.iter().map(|o| o.misses).sum::<usize>(),
        outcomes.iter().map(|o| o.minutes).sum::<f64>() / n,
    );
}

/// Daemon counters before/after a phase, read over the Metrics frame.
pub struct Counters {
    pub rpc: RpcMetricsReport,
    pub json: String,
}

pub fn counters(socket: &Path) -> Result<Counters, String> {
    let mut conn = connect(socket, "metrics-probe")?;
    let (rpc, json) = conn.metrics().map_err(|e| format!("metrics: {e}"))?;
    Ok(Counters { rpc, json })
}

pub fn run(shape: Shape, args: &Args) -> Result<Report, String> {
    let (fleet, setup_times) = setup(shape, args.seed)?;
    let pid = fleet.daemon.pid();
    let width = fleet.clients;
    println!(
        "settings: daemon pid {pid} worker width {} devices {}; fixtures rpcload::windowed_device, \
         rpcload::windowed_problem, rpcload::windowed_service_config; generator threads {width} \
         connections {width}",
        fleet.spec.workers, fleet.spec.devices,
    );
    if shape.primed() {
        let primed: Vec<_> = fleet
            .lanes
            .iter()
            .map(|l| (l.device, l.warm.as_ref().map(|w| w.0)))
            .collect();
        println!("primed (device, hour) per lane: {primed:?}");
    }
    let mut report = Report::default();
    let phases: &[(bool, f64)] = if args.trace {
        // The traced run measures an untraced half and a traced half, so
        // the difference between them is the tracing overhead.
        &[(false, 0.5), (true, 0.5)]
    } else {
        &[(false, 1.0)]
    };
    let mut measured = Vec::new();
    let host = util::host_ticks();
    for (phase, &(traced, share)) in phases.iter().enumerate() {
        let before = counters(&fleet.daemon.socket)?;
        // Cold sessions of each phase start at their own calibration
        // epochs, so no phase can hit another's entries.
        let load = closed_loop(
            &fleet,
            args.seconds * share,
            traced,
            phase as u64 * 1_000_000,
        )?;
        let after = counters(&fleet.daemon.socket)?;
        check(&mut report, &fleet, shape, &load, &before, &after);
        let e = end_to_end(shape, &load);
        describe(if traced { "traced" } else { "untraced" }, shape, &load, &e);
        measured.push((load, e, before, after));
    }
    util::print_steal(host);
    let peak_rss = util::peak_rss_mb(pid).ok_or("daemon status unreadable")?;
    if !args.trace {
        let (_, e, _, _) = &measured[0];
        report.metric(
            "setup_s",
            util::median(&setup_times),
            "s",
            setup_times.len(),
        );
        report.metric("latency_p50_ms", e.p50_ms, "ms", e.n);
        report.metric("latency_tail_ms", e.tail_ms, "ms", e.n);
        let attempted = report.attempted as usize;
        report.metric("slo_met_frac", e.slo_met_frac, "frac", attempted);
        report.metric("cpu_ms_per_session", e.cpu_ms_per_session, "ms", e.n);
        report.metric("peak_rss_mb", peak_rss, "MB", 1);
        println!(
            "end to end (latency_tail_ms is the {}; each latency and cpu figure is the median of {} windows):",
            util::percentile_label(TAIL_Q),
            e.windows
        );
        report.print();
        return Ok(report);
    }
    let (untraced, traced) = (&measured[0], &measured[1]);
    layers::serving(&mut report, &fleet, untraced, traced)?;
    Ok(report)
}
