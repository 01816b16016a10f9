//! The live-fleet arm: open loop in real time. [`STREAMS`] live
//! 16 kHz streams each push a 100 ms chunk every 100 ms into one
//! `KwsServer` over a host float engine; `drive` runs after each arrival
//! batch. Stream `i` is offset by `i / STREAMS` of a period, so arrivals
//! are spread evenly over each 100 ms.

use crate::deploy::{delta, same_decisions, ArmReport, Counters, Deployment, Metrics};
use crate::inputs::{sample_lanes, StreamPlan, CHUNK};
use crate::stats::{
    completing_chunk, deepest_supported, expected_decisions, median, percentile, sustained_latency,
    sustained_rate,
};
use crate::sys::Instant;
use crate::trace::{Span, Trace, TracedBackend, Tracer};
use kwt_engine::{Engine, HostFloatBackend, StreamDecision, StreamingConfig, StreamingKws};
use kwt_serve::{KwsServer, ServeConfig, ServeError, SessionId};
use std::time::Duration;

/// Live streams: about a third of one core at ~60 µs per decision.
pub const STREAMS: usize = 256;

/// Streams checked decision for decision against a standalone streamer.
const CHECKED_STREAMS: usize = 4;

/// Chunk period.
const PERIOD: Duration = Duration::from_millis(100);

/// Chunks each stream plays untimed before measuring: one full model
/// window (1 s).
const PREFILL_CHUNKS: usize = 10;

/// Chunk periods per latency window (half a second).
const WINDOW_PERIODS: usize = 5;

/// The server and the stream recipes.
pub struct FleetArm {
    server: KwsServer,
    plans: Vec<StreamPlan>,
    trace: Trace,
}

/// Frame geometry of the deployed front end and model.
#[derive(Clone, Copy)]
pub struct Geometry {
    pub win: u64,
    pub hop: u64,
    pub t_frames: u64,
    pub stride: u64,
}

impl Geometry {
    /// The geometry of `dep`'s front end and model.
    pub fn of(dep: &Deployment) -> Self {
        let c = dep.fe.config();
        Geometry {
            win: c.win_length as u64,
            hop: c.hop_length as u64,
            t_frames: dep.params.config.input_time as u64,
            stride: StreamingConfig::default().stride_frames as u64,
        }
    }

    /// Decisions a stream of `samples` must produce.
    pub fn decisions(&self, samples: u64) -> u64 {
        expected_decisions(samples, self.win, self.hop, self.t_frames, self.stride)
    }
}

impl FleetArm {
    /// Builds the server; with `trace` on, the host float backend sits
    /// behind a [`TracedBackend`].
    ///
    /// # Errors
    ///
    /// Engine or server construction failures.
    pub fn new(dep: &Deployment, seed: u64, trace: &Trace) -> Result<Self, String> {
        let e = |e: &dyn std::fmt::Display| e.to_string();
        let engine = if trace.enabled() {
            let backend = TracedBackend::new(
                HostFloatBackend::new(dep.params.clone()),
                trace.clone(),
                "model.forward",
                |_: &HostFloatBackend, windows, t: &mut Tracer| {
                    t.add("model.windows", windows as u64);
                    t.add("model.calls", 1);
                },
            );
            Engine::new(dep.fe.clone(), Box::new(backend))
        } else {
            Engine::host_float(dep.params.clone(), dep.fe.clone())
        }
        .map_err(|x| e(&x))?;
        let config = ServeConfig {
            max_sessions: STREAMS,
            ..ServeConfig::default()
        };
        let server = KwsServer::new(engine, config).map_err(|x| e(&x))?;
        let plans = (0..STREAMS)
            .map(|lane| StreamPlan::new(&dep.subset, seed, lane as u64))
            .collect();
        Ok(FleetArm {
            server,
            plans,
            trace: trace.clone(),
        })
    }

    /// Streams 1.2 s into every session without timing, then closes them.
    pub fn warm(&mut self, dep: &Deployment) {
        let ids = self.open();
        let mut buf = vec![0.0f32; CHUNK];
        for k in 0..12 {
            for (lane, &id) in ids.iter().enumerate() {
                self.plans[lane].render(&dep.subset, k * CHUNK, &mut buf);
                let _ = self.server.push(id, &buf);
            }
            let _ = self.server.drive(|_| {});
        }
        self.close(&ids);
    }

    fn open(&mut self) -> Vec<SessionId> {
        (0..STREAMS)
            .map(|_| self.server.open().expect("the slab holds every stream"))
            .collect()
    }

    /// Closes in reverse, so the next `open` hands out the same slots in
    /// the same order.
    fn close(&mut self, ids: &[SessionId]) {
        for &id in ids.iter().rev() {
            self.server.close(id).expect("open sessions close");
        }
    }

    /// Opens every stream and plays its first [`PREFILL_CHUNKS`] untimed,
    /// so every measured chunk lands on a full model window.
    pub fn start(&mut self, dep: &Deployment, seed: u64) -> FleetRun {
        let ids = self.open();
        let mut slot_lane = vec![usize::MAX; self.server.capacity()];
        for (lane, id) in ids.iter().enumerate() {
            slot_lane[id.index() as usize] = lane;
        }
        let checked = sample_lanes(seed, STREAMS, CHECKED_STREAMS);
        let mut run = FleetRun {
            ids,
            slot_lane,
            recorded: (0..STREAMS)
                .map(|lane| Vec::with_capacity(if checked.contains(&lane) { 4096 } else { 0 }))
                .collect(),
            checked,
            decisions: vec![0; STREAMS],
            chunks: 0,
            latency_ms: Vec::new(),
            window_p50: Vec::new(),
            window_p99: Vec::new(),
            window_capacity: Vec::new(),
            late_ms: Vec::new(),
            busy: Duration::ZERO,
            rejected: 0,
            errors: 0,
        };
        let mut buf = vec![0.0f32; CHUNK];
        for k in 0..PREFILL_CHUNKS {
            for lane in 0..STREAMS {
                self.plans[lane].render(&dep.subset, k * CHUNK, &mut buf);
                run.pushed(self.server.push(run.ids[lane], &buf));
            }
            let r = self.server.drive(|d| {
                let lane = run.slot_lane[d.session.index() as usize];
                run.decisions[lane] += 1;
                if run.checked.contains(&lane) {
                    run.recorded[lane].push(d.decision.clone());
                }
            });
            run.errors += u64::from(r.is_err());
        }
        run.chunks = PREFILL_CHUNKS;
        run
    }

    /// Plays `budget` of every stream in real time: stream `lane` pushes
    /// chunk `j` of the slice at `t0 + j * PERIOD + lane * PERIOD /
    /// STREAMS`, and `drive` runs after each arrival batch. Latencies are
    /// grouped into windows of about half a second.
    pub fn slice(&mut self, run: &mut FleetRun, dep: &Deployment, budget: Duration) {
        let geo = Geometry::of(dep);
        let periods = (budget.as_secs_f64() / PERIOD.as_secs_f64())
            .round()
            .max(1.0) as usize;
        let windows = (periods / WINDOW_PERIODS).max(1);
        let window_of = |j: usize| (j * windows / periods).min(windows - 1);
        let mut latency: Vec<Vec<f64>> = (0..windows)
            .map(|_| Vec::with_capacity(STREAMS * 3 * periods / windows + STREAMS))
            .collect();
        let mut busy = vec![Duration::ZERO; windows];
        run.late_ms.reserve(STREAMS * periods);
        run.latency_ms.reserve(STREAMS * 3 * periods);
        let mut buf = vec![0.0f32; CHUNK];
        let first = run.chunks;
        let phase = |lane: usize| PERIOD * lane as u32 / STREAMS as u32;
        let t0 = Instant::now() + Duration::from_millis(1);
        let due = |lane: usize, j: usize| t0 + phase(lane) + PERIOD * j as u32;
        let (server, plans, trace) = (&mut self.server, &self.plans, self.trace.clone());
        let (total, mut next) = (STREAMS * periods, 0usize);
        while next < total {
            let now = Instant::now();
            if due(next % STREAMS, next / STREAMS) > now {
                std::hint::spin_loop();
                continue;
            }
            let mut j = 0;
            while next < total && due(next % STREAMS, next / STREAMS) <= now {
                let lane = next % STREAMS;
                j = next / STREAMS;
                plans[lane].render(&dep.subset, (first + j) * CHUNK, &mut buf);
                let t = Instant::now();
                run.late_ms
                    .push(ms(t.saturating_duration_since(due(lane, j))));
                let id = (((first + j) * STREAMS) + lane) as u64;
                let r = trace.span("serve.push", id, || server.push(run.ids[lane], &buf));
                busy[window_of(j)] += t.elapsed();
                run.pushed(r);
                next += 1;
            }
            let t = Instant::now();
            let r = trace.span("serve.drive", (first + j) as u64, || {
                server.drive(|d| {
                    let at = Instant::now();
                    let lane = run.slot_lane[d.session.index() as usize];
                    let k =
                        completing_chunk(d.decision.frame_index, geo.win, geo.hop, CHUNK as u64);
                    let j = k as usize - first;
                    latency[window_of(j)].push(ms(at.saturating_duration_since(due(lane, j))));
                    run.decisions[lane] += 1;
                    if run.checked.contains(&lane) {
                        run.recorded[lane].push(d.decision.clone());
                    }
                })
            });
            busy[window_of(j)] += t.elapsed();
            run.errors += u64::from(r.is_err());
        }
        run.chunks += periods;
        for (w, mut lat) in latency.into_iter().enumerate() {
            let span = (0..periods).filter(|&j| window_of(j) == w).count();
            let audio_s = (STREAMS * span) as f64 * PERIOD.as_secs_f64();
            run.busy += busy[w];
            run.window_capacity.push(audio_s / busy[w].as_secs_f64());
            run.latency_ms.extend_from_slice(&lat);
            run.window_p50
                .push(percentile(&mut lat, 50.0).unwrap_or(0.0));
            run.window_p99
                .push(percentile(&mut lat, 99.0).unwrap_or(0.0));
        }
    }

    /// Closes every stream and checks its decisions.
    pub fn finish(&mut self, mut run: FleetRun, dep: &Deployment) -> ArmReport {
        self.close(&run.ids);
        let geo = Geometry::of(dep);
        let mut rep = ArmReport {
            attempted: (STREAMS * run.chunks) as u64,
            failed: run.rejected + run.errors,
            ..ArmReport::default()
        };
        let want = geo.decisions((run.chunks * CHUNK) as u64);
        let short = run.decisions.iter().filter(|&&d| d != want).count();
        rep.check(short == 0, || {
            format!("{short} streams did not deliver the {want} decisions their audio implies")
        });
        rep.check(run.rejected == 0, || {
            format!("{} chunks rejected by backpressure", run.rejected)
        });
        for &lane in &run.checked {
            match standalone(dep, &self.plans[lane], run.chunks) {
                Ok(expect) => rep.check(same_decisions(&run.recorded[lane], &expect), || {
                    format!("stream {lane} differs from a standalone StreamingKws")
                }),
                Err(e) => rep.check(false, || format!("standalone streamer failed: {e}")),
            }
        }
        let measured = STREAMS * (run.chunks - PREFILL_CHUNKS);
        let audio_s = measured as f64 * PERIOD.as_secs_f64();
        rep.seconds_per_unit = run.busy.as_secs_f64() / audio_s;
        let n = run.latency_ms.len();
        let all = &mut run.latency_ms;
        let deep = deepest_supported(n).unwrap_or(50.0);
        rep.notes.push(format!(
            "live_fleet: {STREAMS} streams x {} chunks = {} pushed, {} rejected; decisions {} \
             delivered / {} expected; {} windows; timed decisions n={n}: p50={:.4} ms \
             p99={:.4} ms p{deep}={:.4} ms (deepest with >= 10 beyond)",
            run.chunks,
            rep.attempted,
            run.rejected,
            run.decisions.iter().sum::<u64>(),
            want * STREAMS as u64,
            run.window_p50.len(),
            percentile(all, 50.0).unwrap_or(0.0),
            percentile(all, 99.0).unwrap_or(0.0),
            percentile(all, deep).unwrap_or(0.0),
        ));
        let m = &mut rep.metrics;
        m.insert(
            "fleet_latency_p50_ms",
            sustained_latency(&mut run.window_p50).unwrap_or(0.0),
        );
        // The median, not the 90th percentile, over windows: the few
        // windows the host still disturbs set the top decile of p99s.
        m.insert(
            "fleet_latency_p99_ms",
            median(&mut run.window_p99).unwrap_or(0.0),
        );
        m.insert(
            "fleet_stream_capacity",
            sustained_rate(&mut run.window_capacity).unwrap_or(0.0),
        );
        if let Some(mut t) = self.trace.get() {
            let late_p99 = percentile(&mut run.late_ms, 99.0).unwrap_or(0.0);
            t.set_value("serve.generator_late_ms_p99", late_p99);
        }
        rep
    }
}

/// Tallies of one measurement, kept across its slices.
pub struct FleetRun {
    ids: Vec<SessionId>,
    slot_lane: Vec<usize>,
    checked: Vec<usize>,
    recorded: Vec<Vec<StreamDecision>>,
    decisions: Vec<u64>,
    /// Chunks pushed per stream so far.
    chunks: usize,
    latency_ms: Vec<f64>,
    window_p50: Vec<f64>,
    window_p99: Vec<f64>,
    window_capacity: Vec<f64>,
    late_ms: Vec<f64>,
    busy: Duration,
    rejected: u64,
    errors: u64,
}

impl FleetRun {
    fn pushed(&mut self, r: Result<(), ServeError>) {
        match r {
            Ok(()) => {}
            Err(ServeError::Backpressure { .. }) => self.rejected += 1,
            Err(_) => self.errors += 1,
        }
    }
}

/// Per-layer figures of a traced phase.
pub fn layers(t: &Tracer, phases: &[Span], before: &Counters, after: &Counters) -> Metrics {
    let mut l = Metrics::new();
    let windows = delta(before, after, "model.windows").max(1) as f64;
    let (pushes, push_ns, _) = t.totals("serve.push", phases);
    let (_, drive_ns, drive_self_ns) = t.totals("serve.drive", phases);
    let (_, model_ns, _) = t.totals("model.forward", phases);
    l.insert(
        "model.forward_us_per_window",
        model_ns as f64 / 1e3 / windows,
    );
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
    l.insert(
        "serve.generator_late_ms_p99",
        t.value("serve.generator_late_ms_p99"),
    );
    l
}

/// The decisions a standalone `StreamingKws` over a fresh host float
/// engine makes on the first `chunks` chunks of `plan`.
fn standalone(
    dep: &Deployment,
    plan: &StreamPlan,
    chunks: usize,
) -> Result<Vec<StreamDecision>, String> {
    let engine =
        Engine::host_float(dep.params.clone(), dep.fe.clone()).map_err(|e| e.to_string())?;
    let mut kws =
        StreamingKws::new(engine, StreamingConfig::default()).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let mut buf = vec![0.0f32; CHUNK];
    for k in 0..chunks {
        plan.render(&dep.subset, k * CHUNK, &mut buf);
        kws.push_with(&buf, |d| out.push(d))
            .map_err(|e| e.to_string())?;
    }
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
