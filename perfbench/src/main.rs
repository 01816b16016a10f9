//! `perfbench`: the end-to-end benchmark of the KWT-Tiny workspace.
//!
//! ```text
//! perfbench --workload <clips|live_fleet|cluster_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `data/gsc_v2_subset`). Every
//! run sets up the deployment, then measures three arms: the clip arm
//! (host i16 batches and the simulated device), the live fleet (open-loop
//! host serving) and the cluster fleet (serving on the simulated 4-hart
//! cluster). The workload names the arm that runs for `--seconds`; the
//! other two run for a share of that (a half for the live fleet, a
//! quarter otherwise), so every run reports every metric. The last line of standard output is one JSON object.
//!
//! With `--trace 1` each arm runs twice for half its time (but at least
//! the two-second floor every arm has), untraced and then traced: spans recorded around each call into a layer give the
//! per-layer metrics, and the two halves give the tracing overhead. The
//! spans are written to `.perfbench_traces/` as a Chrome trace file.

mod clips;
mod cluster;
mod deploy;
mod fleet;
mod inputs;
mod stats;
mod sys;
mod trace;

use crate::sys::Instant;
use clips::{ClipsArm, ClipsOracle, ClipsRun};
use cluster::{ClusterArm, ClusterOracle, ClusterRun};
use deploy::{ArmReport, Counters, Deployment, Metrics};
use fleet::{FleetArm, FleetRun};
use std::path::Path;
use std::time::Duration;
use trace::{Trace, Tracer};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Share of `--seconds` a companion arm runs for. The live fleet gets
/// more: its latency figures need more half-second windows to settle.
fn companion_share(arm: Arm) -> f64 {
    match arm {
        Arm::Fleet => 0.5,
        Arm::Clips | Arm::Cluster => 0.25,
    }
}

/// Shortest time an arm runs for: two seconds of live audio give every
/// stream a second of decisions after its first full window.
const MIN_ARM_SECONDS: f64 = 2.0;

/// Interleaved rounds per untraced run.
const ROUNDS: usize = 8;

/// Largest gap between the traced slices' duration and the sum of their
/// span self times, in percent.
const SELF_TIME_TOLERANCE_PCT: f64 = 1.0;

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("host_clips_per_s", "clips/s"),
    ("device_clips_per_s", "clips/s"),
    ("device_cycles_per_clip", "cycles"),
    ("device_program_bytes", "bytes"),
    ("fleet_latency_p50_ms", "ms"),
    ("fleet_latency_p99_ms", "ms"),
    ("fleet_stream_capacity", "streams"),
    ("cluster_decisions_per_mcycle", "1/Mcycle"),
    ("cluster_decisions_per_s", "1/s"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 27] = [
    ("dataset.load_ms", "ms"),
    ("baremetal.image_build_ms", "ms"),
    ("engine.warmup_ms", "ms"),
    ("audio.frontend_us_per_clip", "us"),
    ("quant.forward_us_per_clip", "us"),
    ("model.forward_us_per_window", "us"),
    ("rv32.device_us_per_clip", "us"),
    ("rv32.sim_minst_per_s", "Minst/s"),
    ("rv32.instret_per_clip", "count"),
    ("rv32.stall_fraction", "fraction"),
    ("rv32.hart_utilisation", "fraction"),
    ("rv32.soc_cycles_per_wave", "cycles"),
    ("baremetal.attn_matmul_cycles", "cycles"),
    ("baremetal.attn_softmax_cycles", "cycles"),
    ("baremetal.attn_other_cycles", "cycles"),
    ("baremetal.top_layernorm_cycles", "cycles"),
    ("baremetal.top_matmul_cycles", "cycles"),
    ("baremetal.top_other_cycles", "cycles"),
    ("baremetal.mlp_matmul_cycles", "cycles"),
    ("baremetal.mlp_gelu_cycles", "cycles"),
    ("serve.push_us_per_chunk", "us"),
    ("serve.busy_fraction", "fraction"),
    ("serve.drive_self_us_per_decision", "us"),
    ("serve.wave_occupancy", "windows"),
    ("serve.generator_late_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.self_time_gap_pct", "%"),
];

/// The three measured arms, in the order every run measures them.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Arm {
    Clips,
    Fleet,
    Cluster,
}

const ARMS: [Arm; 3] = [Arm::Clips, Arm::Fleet, Arm::Cluster];

impl Arm {
    fn workload(self) -> &'static str {
        match self {
            Arm::Clips => "clips",
            Arm::Fleet => "live_fleet",
            Arm::Cluster => "cluster_fleet",
        }
    }
}

struct Args {
    main: Arm,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        main: Arm::Clips,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    args.main = ARMS
        .into_iter()
        .find(|a| a.workload() == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The three arms over one deployment.
struct Arms {
    clips: ClipsArm,
    fleet: FleetArm,
    cluster: ClusterArm,
}

impl Arms {
    fn new(dep: &Deployment, seed: u64, trace: &Trace) -> Result<Self, String> {
        let mut arms = Arms {
            clips: ClipsArm::new(dep, trace)?,
            fleet: FleetArm::new(dep, seed, trace)?,
            cluster: ClusterArm::new(dep, seed, trace)?,
        };
        arms.clips.warm(dep);
        arms.fleet.warm(dep);
        arms.cluster.warm();
        Ok(arms)
    }
}

/// Answers computed apart from the measured paths.
struct Oracles {
    clips: ClipsOracle,
    cluster: ClusterOracle,
}

/// Loads the subset, builds the deployment, builds and warms every
/// engine: what `setup_s` measures.
fn set_up(root: &Path, seed: u64, trace: &Trace) -> Result<(Deployment, Arms), String> {
    let dep = Deployment::build(root, trace)?;
    let arms = trace.span("engine.warmup", 0, || Arms::new(&dep, seed, &Trace::off()))?;
    Ok((dep, arms))
}

/// One arm's measurement, kept across its slices.
enum ArmRun {
    Clips(ClipsRun),
    Fleet(FleetRun),
    Cluster(ClusterRun),
}

impl Arms {
    fn start(&mut self, arm: Arm, dep: &Deployment, seed: u64) -> ArmRun {
        match arm {
            Arm::Clips => ArmRun::Clips(self.clips.start(dep, seed)),
            Arm::Fleet => ArmRun::Fleet(self.fleet.start(dep, seed)),
            Arm::Cluster => ArmRun::Cluster(self.cluster.start()),
        }
    }

    fn slice(&mut self, run: &mut ArmRun, dep: &Deployment, o: &Oracles, budget: Duration) {
        match run {
            ArmRun::Clips(r) => self.clips.slice(r, dep, &o.clips, budget),
            ArmRun::Fleet(r) => self.fleet.slice(r, dep, budget),
            ArmRun::Cluster(r) => self.cluster.slice(r, dep, &o.cluster, budget),
        }
    }

    fn finish(&mut self, run: ArmRun, dep: &Deployment, o: &Oracles) -> ArmReport {
        match run {
            ArmRun::Clips(r) => self.clips.finish(r, dep, &o.clips),
            ArmRun::Fleet(r) => self.fleet.finish(r, dep),
            ArmRun::Cluster(r) => self.cluster.finish(r, dep),
        }
    }
}

fn layers(
    arm: Arm,
    t: &Tracer,
    phases: &[trace::Span],
    before: &Counters,
    after: &Counters,
) -> Metrics {
    match arm {
        Arm::Clips => clips::layers(t, phases, before, after),
        Arm::Fleet => fleet::layers(t, phases, before, after),
        Arm::Cluster => cluster::layers(t, phases, before, after),
    }
}

/// Everything one run reports.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, rep: ArmReport) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.failures.extend(rep.failures);
        self.notes.extend(rep.notes);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let root = Path::new(inputs::SUBSET_DIR);
    let trace = if args.trace {
        Trace::on()
    } else {
        Trace::off()
    };
    let mut setup_s = Vec::new();
    let mut state = None;
    for rep in 0..SETUP_REPEATS {
        let t = Instant::now();
        state = Some(trace.span("setup", rep as u64, || set_up(root, args.seed, &trace))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (dep, mut arms) = state.expect("at least one set-up");
    let oracles = Oracles {
        clips: ClipsOracle::compute(&dep)?,
        cluster: ClusterOracle::compute(&dep, &arms.cluster, args.seed)?,
    };
    let mut out = Outcome::default();
    let budget = |arm: Arm| {
        let share = if arm == args.main {
            1.0
        } else {
            companion_share(arm)
        };
        Duration::from_secs_f64((args.seconds * share).max(MIN_ARM_SECONDS))
    };
    if !args.trace {
        // Interleaved rounds, so every arm samples the whole run.
        let mut runs: Vec<ArmRun> = ARMS.map(|arm| arms.start(arm, &dep, args.seed)).into();
        for _ in 0..ROUNDS {
            for (arm, run) in ARMS.into_iter().zip(&mut runs) {
                arms.slice(run, &dep, &oracles, budget(arm) / ROUNDS as u32);
            }
        }
        for run in runs {
            let rep = arms.finish(run, &dep, &oracles);
            out.metrics
                .extend(rep.metrics.iter().map(|(k, v)| (*k, *v)));
            out.absorb(rep);
        }
        out.metrics
            .insert("setup_s", stats::median(&mut setup_s).expect("set-up ran"));
        out.metrics.insert("peak_rss_mb", sys::peak_rss_mb()?);
        return Ok(out);
    }

    // Each arm for half its time untraced and half traced, in alternating
    // slices; the main arm first, so its figures win where arms report
    // the same layer.
    let mut traced = Arms::new(&dep, args.seed, &trace)?;
    let mut per_layer = Metrics::new();
    let order = std::iter::once(args.main).chain(ARMS.into_iter().filter(|&a| a != args.main));
    for arm in order {
        let half = (budget(arm) / 2).max(Duration::from_secs_f64(MIN_ARM_SECONDS));
        let mut plain_run = arms.start(arm, &dep, args.seed);
        let mut traced_run = traced.start(arm, &dep, args.seed);
        let before = trace.get().expect("tracing is on").counters();
        let mut traced_ns = 0.0;
        for _ in 0..ROUNDS {
            arms.slice(&mut plain_run, &dep, &oracles, half / ROUNDS as u32);
            let started = Instant::now();
            trace.span("phase", 0, || {
                traced.slice(&mut traced_run, &dep, &oracles, half / ROUNDS as u32)
            });
            traced_ns += started.elapsed().as_nanos() as f64;
        }
        let after = trace.get().expect("tracing is on").counters();
        let plain = arms.finish(plain_run, &dep, &oracles);
        let rep = traced.finish(traced_run, &dep, &oracles);
        let t = trace.get().expect("tracing is on");
        let phases: Vec<trace::Span> = t.named("phase").cloned().collect();
        let phases = &phases[phases.len() - ROUNDS..];
        for (k, v) in layers(arm, &t, phases, &before, &after) {
            per_layer.entry(k).or_insert(v);
        }
        if arm == args.main {
            let self_ns: u64 = t
                .spans()
                .iter()
                .filter(|s| trace::inside(s, phases))
                .map(trace::Span::self_ns)
                .sum();
            let gap = 100.0 * (traced_ns - self_ns as f64) / traced_ns;
            out.failures.extend(
                (gap.abs() > SELF_TIME_TOLERANCE_PCT)
                    .then(|| format!("span self times miss the traced time by {gap:.3} %")),
            );
            per_layer.insert("trace.self_time_gap_pct", gap);
            per_layer.insert(
                "trace.overhead_pct",
                100.0 * (rep.seconds_per_unit / plain.seconds_per_unit - 1.0),
            );
        }
        drop(t);
        out.absorb(plain);
        out.absorb(rep);
    }
    let t = trace.get().expect("tracing is on");
    for (span, metric) in [
        ("dataset.load", "dataset.load_ms"),
        ("baremetal.image_build", "baremetal.image_build_ms"),
        ("engine.warmup", "engine.warmup_ms"),
    ] {
        let mut ms: Vec<f64> = t.named(span).map(|s| s.dur_ns() as f64 / 1e6).collect();
        per_layer.insert(metric, stats::median(&mut ms).unwrap_or(0.0));
    }
    let path = format!(
        ".perfbench_traces/{}-seed{}.json",
        args.main.workload(),
        args.seed
    );
    t.write_chrome(Path::new(&path))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    out.notes.push(format!(
        "trace: {} spans written to {path}",
        t.spans().len()
    ));
    out.metrics = per_layer;
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut failures = out.failures;
    let mut fields = Vec::new();
    for (name, unit) in names {
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => {
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            other => failures.push(format!("metric {name} is {other:?}")),
        }
    }
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = failures.is_empty();
    if !correct {
        fields.clear();
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
