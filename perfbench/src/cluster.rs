//! The cluster-fleet arm: virtual time, as fast as the host allows.
//! [`SESSIONS`] sessions replay [`PASS_SAMPLES`] of seeded stream audio
//! in 100 ms chunks into one `KwsServer` over a 4-hart simulated cluster
//! running the A8 image. Session `i`'s first chunk is shortened by
//! `i / SESSIONS` of a chunk, so sessions reach window boundaries at
//! different rounds and waves are not always full.

use crate::deploy::{
    count_regions, delta, region_cycles, region_metrics, same_decisions, ArmReport, Counters,
    Deployment, Metrics,
};
use crate::fleet::Geometry;
use crate::inputs::{sample_lanes, StreamPlan, CHUNK};
use crate::stats::sustained_rate;
use crate::sys::Instant;
use crate::trace::{Span, Trace, TracedBackend, Tracer};
use kwt_engine::{Engine, Rv32ClusterBackend, StreamDecision, StreamingConfig, StreamingKws};
use kwt_serve::{KwsServer, ServeConfig, SessionId};
use std::time::Duration;

/// Sessions in the fleet.
pub const SESSIONS: usize = 16;

/// Harts of the simulated cluster.
pub const HARTS: usize = 4;

/// Samples each session replays per pass (1.2 s: six decisions each).
pub const PASS_SAMPLES: usize = 19_200;

/// Samples each session streams in the warm-up pass: enough for a wave
/// on every hart.
const WARM_SAMPLES: usize = 17_200;

/// Sessions checked decision for decision against a standalone streamer
/// over the serial simulated device.
const CHECKED_SESSIONS: usize = 2;

/// The server, the rendered session audio and the checked answers.
pub struct ClusterArm {
    server: KwsServer,
    audio: Vec<Vec<f32>>,
    trace: Trace,
}

/// Standalone decisions of the checked sessions.
pub struct ClusterOracle {
    checked: Vec<usize>,
    decisions: Vec<Vec<StreamDecision>>,
}

/// What one pass did.
struct Pass {
    busy: Duration,
    chunks: u64,
    failed: u64,
    decisions: Vec<u64>,
    recorded: Vec<Vec<StreamDecision>>,
    soc_cycles: u64,
}

impl ClusterArm {
    /// Builds the server and renders every session's audio; with `trace`
    /// on, the cluster backend sits behind a [`TracedBackend`].
    ///
    /// # Errors
    ///
    /// Engine or server construction failures.
    pub fn new(dep: &Deployment, seed: u64, trace: &Trace) -> Result<Self, String> {
        let e = |e: &dyn std::fmt::Display| e.to_string();
        let engine = if trace.enabled() {
            let mut prev = [0u64; 8];
            let backend = TracedBackend::new(
                Rv32ClusterBackend::new(&dep.image, HARTS).map_err(|x| e(&x))?,
                trace.clone(),
                "rv32.wave",
                move |b: &Rv32ClusterBackend, windows, t: &mut Tracer| {
                    let Some(wave) = b.last_wave() else { return };
                    t.add("cluster.waves", 1);
                    t.add("cluster.windows", windows as u64);
                    t.add("cluster.soc_cycles", wave.soc_cycles);
                    for s in &wave.stats {
                        t.add("cluster.busy_cycles", s.busy_cycles);
                        t.add("cluster.stall_cycles", s.stall_cycles);
                    }
                    for r in wave.results.iter().flatten() {
                        t.add("rv32.instret", r.instructions);
                        t.add("rv32.runs", 1);
                    }
                    let s = b.session();
                    let reports = (0..s.num_harts()).map(|h| s.hart(h).profile_report());
                    count_regions(region_cycles(reports), &mut prev, t);
                },
            );
            Engine::new(dep.fe.clone(), Box::new(backend))
        } else {
            Engine::rv32_cluster(&dep.image, dep.fe.clone(), HARTS)
        }
        .map_err(|x| e(&x))?;
        let config = ServeConfig {
            max_sessions: SESSIONS,
            ..ServeConfig::default()
        };
        let server = KwsServer::new(engine, config).map_err(|x| e(&x))?;
        let audio = (0..SESSIONS)
            .map(|lane| StreamPlan::new(&dep.subset, seed, (1 << 20) + lane as u64))
            .map(|plan| plan.samples(&dep.subset, PASS_SAMPLES))
            .collect();
        Ok(ClusterArm {
            server,
            audio,
            trace: trace.clone(),
        })
    }

    /// One short untimed pass, warming every hart's decode cache.
    pub fn warm(&mut self) {
        self.pass(0, &[], WARM_SAMPLES);
    }

    /// Chunk boundaries of session `lane` over its first `len` samples:
    /// a shortened first chunk, then whole chunks, then the remainder.
    fn chunks(lane: usize, len: usize) -> impl Iterator<Item = (usize, usize)> {
        let first = CHUNK - lane * CHUNK / SESSIONS;
        let rest = (first..len)
            .step_by(CHUNK)
            .map(move |s| (s, (s + CHUNK).min(len)));
        std::iter::once((0, first)).chain(rest)
    }

    fn pass(&mut self, pass_id: u64, checked: &[usize], len: usize) -> Pass {
        let ids: Vec<SessionId> = (0..SESSIONS)
            .map(|_| self.server.open().expect("the slab holds every session"))
            .collect();
        let mut slot_lane = vec![usize::MAX; self.server.capacity()];
        for (lane, id) in ids.iter().enumerate() {
            slot_lane[id.index() as usize] = lane;
        }
        let mut p = Pass {
            busy: Duration::ZERO,
            chunks: 0,
            failed: 0,
            decisions: vec![0; SESSIONS],
            recorded: vec![Vec::new(); SESSIONS],
            soc_cycles: 0,
        };
        let bounds: Vec<Vec<(usize, usize)>> = (0..SESSIONS)
            .map(|l| Self::chunks(l, len).collect())
            .collect();
        let rounds = bounds.iter().map(Vec::len).max().unwrap_or(0);
        let cycles_before = self.server.metrics().device_cycles;
        let (server, audio, trace) = (&mut self.server, &self.audio, &self.trace);
        for round in 0..rounds {
            let t = Instant::now();
            for (lane, &id) in ids.iter().enumerate() {
                let Some(&(a, b)) = bounds[lane].get(round) else {
                    continue;
                };
                let chunk_id = pass_id << 32 | (lane as u64) << 16 | round as u64;
                p.chunks += 1;
                if trace
                    .span("serve.push", chunk_id, || {
                        server.push(id, &audio[lane][a..b])
                    })
                    .is_err()
                {
                    p.failed += 1;
                }
            }
            let r = trace.span("serve.drive", pass_id << 32 | round as u64, || {
                server.drive(|d| {
                    let lane = slot_lane[d.session.index() as usize];
                    p.decisions[lane] += 1;
                    if checked.contains(&lane) {
                        p.recorded[lane].push(d.decision.clone());
                    }
                })
            });
            p.busy += t.elapsed();
            p.failed += u64::from(r.is_err());
        }
        p.soc_cycles = self.server.metrics().device_cycles - cycles_before;
        for &id in ids.iter().rev() {
            self.server.close(id).expect("open sessions close");
        }
        p
    }

    /// Starts a measurement with empty tallies.
    pub fn start(&self) -> ClusterRun {
        ClusterRun {
            rates: Vec::new(),
            decisions: 0,
            cycles: 0,
            passes: 0,
            elapsed: Duration::ZERO,
            rep: ArmReport::default(),
        }
    }

    /// Runs whole passes until `budget` has elapsed (at least one).
    pub fn slice(
        &mut self,
        run: &mut ClusterRun,
        dep: &Deployment,
        oracle: &ClusterOracle,
        budget: Duration,
    ) {
        let want = Geometry::of(dep).decisions(PASS_SAMPLES as u64);
        let started = Instant::now();
        loop {
            let id = run.passes;
            let p = self.trace.clone().span("cluster.pass", id, || {
                self.pass(id, &oracle.checked, PASS_SAMPLES)
            });
            run.passes += 1;
            let rep = &mut run.rep;
            rep.attempted += p.chunks;
            rep.failed += p.failed;
            let delivered: u64 = p.decisions.iter().sum();
            run.decisions += delivered;
            run.cycles += p.soc_cycles;
            run.rates.push(delivered as f64 / p.busy.as_secs_f64());
            let short = p.decisions.iter().filter(|&&d| d != want).count();
            rep.check(short == 0, || {
                format!("{short} cluster sessions did not deliver the {want} decisions their audio implies")
            });
            for (lane, expect) in oracle.checked.iter().zip(&oracle.decisions) {
                rep.check(same_decisions(&p.recorded[*lane], expect), || {
                    format!(
                        "cluster session {lane} differs from a standalone StreamingKws on rv32_sim"
                    )
                });
            }
            if started.elapsed() >= budget {
                break;
            }
        }
        run.elapsed += started.elapsed();
    }

    /// The arm's end-to-end metrics.
    pub fn finish(&self, run: ClusterRun, dep: &Deployment) -> ArmReport {
        let want = Geometry::of(dep).decisions(PASS_SAMPLES as u64);
        let ClusterRun {
            mut rates,
            decisions,
            cycles,
            passes,
            elapsed,
            mut rep,
        } = run;
        rep.seconds_per_unit = elapsed.as_secs_f64() / passes as f64;
        rep.notes.push(format!(
            "cluster_fleet: {passes} passes of {SESSIONS} sessions x {PASS_SAMPLES} samples, \
             {} chunks pushed ({} failed), {decisions} decisions delivered / {} expected, \
             {cycles} SoC cycles",
            rep.attempted,
            rep.failed,
            want * SESSIONS as u64 * passes
        ));
        let m = &mut rep.metrics;
        m.insert(
            "cluster_decisions_per_mcycle",
            decisions as f64 * 1e6 / cycles.max(1) as f64,
        );
        m.insert(
            "cluster_decisions_per_s",
            sustained_rate(&mut rates).unwrap_or(0.0),
        );
        rep
    }
}

/// Tallies of one measurement, kept across its slices.
pub struct ClusterRun {
    rates: Vec<f64>,
    decisions: u64,
    cycles: u64,
    passes: u64,
    elapsed: Duration,
    rep: ArmReport,
}

impl ClusterOracle {
    /// Standalone `StreamingKws` decisions over the serial simulated
    /// device for a seeded sample of sessions, chunked like the fleet.
    ///
    /// # Errors
    ///
    /// Engine failures.
    pub fn compute(dep: &Deployment, arm: &ClusterArm, seed: u64) -> Result<Self, String> {
        let checked = sample_lanes(seed, SESSIONS, CHECKED_SESSIONS);
        let mut decisions = Vec::new();
        for &lane in &checked {
            let engine = Engine::rv32_sim(&dep.image, dep.fe.clone()).map_err(|e| e.to_string())?;
            let mut kws =
                StreamingKws::new(engine, StreamingConfig::default()).map_err(|e| e.to_string())?;
            let mut out = Vec::new();
            for (a, b) in ClusterArm::chunks(lane, PASS_SAMPLES) {
                kws.push_with(&arm.audio[lane][a..b], |d| out.push(d))
                    .map_err(|e| e.to_string())?;
            }
            decisions.push(out);
        }
        Ok(ClusterOracle { checked, decisions })
    }
}

/// Per-layer figures of a traced phase.
pub fn layers(t: &Tracer, phases: &[Span], before: &Counters, after: &Counters) -> Metrics {
    let mut l = Metrics::new();
    let d = |name| delta(before, after, name) as f64;
    let (waves, windows, runs) = (
        d("cluster.waves").max(1.0),
        d("cluster.windows").max(1.0),
        d("rv32.runs"),
    );
    let (busy, stall, soc) = (
        d("cluster.busy_cycles"),
        d("cluster.stall_cycles"),
        d("cluster.soc_cycles"),
    );
    let (pushes, push_ns, _) = t.totals("serve.push", phases);
    let (_, drive_ns, drive_self_ns) = t.totals("serve.drive", phases);
    let (_, wave_ns, _) = t.totals("rv32.wave", phases);
    l.insert("rv32.stall_fraction", stall / (busy + stall).max(1.0));
    l.insert(
        "rv32.hart_utilisation",
        busy / (soc * HARTS as f64).max(1.0),
    );
    l.insert("rv32.soc_cycles_per_wave", soc / waves);
    l.insert("serve.wave_occupancy", windows / waves);
    l.insert("rv32.device_us_per_clip", wave_ns as f64 / 1e3 / windows);
    l.insert(
        "rv32.sim_minst_per_s",
        d("rv32.instret") * 1e3 / wave_ns.max(1) as f64,
    );
    l.insert("rv32.instret_per_clip", d("rv32.instret") / runs.max(1.0));
    l.insert(
        "serve.push_us_per_chunk",
        push_ns as f64 / 1e3 / pushes.max(1) as f64,
    );
    l.insert(
        "serve.busy_fraction",
        (push_ns + drive_ns) as f64 / phases.iter().map(Span::dur_ns).sum::<u64>() as f64,
    );
    l.insert(
        "serve.drive_self_us_per_decision",
        drive_self_ns as f64 / 1e3 / windows,
    );
    region_metrics(&mut l, before, after, runs as u64);
    l
}
