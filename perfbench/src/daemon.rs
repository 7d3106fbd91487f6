//! The daemon side: `perfbench daemon ...` runs `FleetService` plus
//! `RpcServer` on a Unix socket in a child process, so its CPU time and
//! resident set are its own. The parent spawns it through [`Daemon`].

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use vaqem_bench::rpcload;
use vaqem_fleet_rpc::server::{RpcListener, RpcServer, RpcServerConfig};
use vaqem_fleet_service::{FleetService, FleetServiceConfig};
use vaqem_mathkit::rng::SeedStream;

/// Everything that identifies a daemon: the parent passes it on the
/// child's command line and builds in-process twins from it. The daemon
/// serves the `rpcload` windowed fixture: windowed devices and problem,
/// and the full tuner of `rpcload::windowed_service_config`.
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    pub devices: usize,
    pub workers: usize,
    pub seed: u64,
}

impl DaemonSpec {
    pub fn config(&self, store_dir: PathBuf) -> FleetServiceConfig {
        let mut config = rpcload::windowed_service_config(store_dir);
        config.tenancy.workers = self.workers;
        config
    }

    /// Opens the service this spec describes (the child does this; the
    /// traced run opens an in-process twin the same way).
    pub fn open(&self, store_dir: PathBuf) -> std::io::Result<FleetService> {
        FleetService::open(
            self.config(store_dir),
            (0..self.devices)
                .map(|i| rpcload::windowed_device(i, self.seed))
                .collect(),
            rpcload::windowed_problem(),
            SeedStream::new(self.seed),
        )
    }
}

/// Child entry point: `daemon --socket P --store D --devices N --workers W
/// --seed S`. Prints `ready` once serving and runs until its
/// stdin closes, then shuts down gracefully.
pub fn run(argv: &[String]) -> Result<(), String> {
    let mut socket = None;
    let mut store = None;
    let mut spec = DaemonSpec {
        devices: 1,
        workers: 1,
        seed: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value)),
            "--store" => store = Some(PathBuf::from(value)),
            "--devices" => spec.devices = number()? as usize,
            "--workers" => spec.workers = number()? as usize,
            "--seed" => spec.seed = number()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let socket = socket.ok_or("--socket is required")?;
    let store = store.ok_or("--store is required")?;
    let service = spec.open(store).map_err(|e| format!("service open: {e}"))?;
    let listener = RpcListener::bind_unix(&socket).map_err(|e| format!("bind: {e}"))?;
    let server = RpcServer::serve(&service, listener, RpcServerConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "ready")
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())?;
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    server.stop();
    service.shutdown().map_err(|e| format!("shutdown: {e}"))
}

/// A running daemon child. Dropping it closes its stdin and waits for the
/// graceful shutdown (killing it if that takes too long).
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    pub socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and waits until it serves.
    pub fn spawn(spec: &DaemonSpec, dir: &Path) -> Result<Daemon, String> {
        let socket = dir.join("fleetd.sock");
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .args(["--socket", &socket.to_string_lossy()])
            .args(["--store", &dir.join("store").to_string_lossy()])
            .args(["--devices", &spec.devices.to_string()])
            .args(["--workers", &spec.workers.to_string()])
            .args(["--seed", &spec.seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let daemon = Daemon {
            child,
            stdin,
            socket,
        };
        match read {
            Ok(_) if line.trim() == "ready" => Ok(daemon),
            _ => Err(format!("daemon did not come up (said {:?})", line.trim())),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
