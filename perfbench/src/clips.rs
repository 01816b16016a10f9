//! The clip arm: closed loop, one caller. Each pass sends the subset's
//! keyword clips, in a seeded order, (a) in fixed-size batches through a
//! host i16 engine and (b) one at a time through the A8 image on the
//! single-core simulated device.

use crate::deploy::{
    count_regions, delta, region_cycles, region_metrics, ArmReport, Counters, Deployment, Metrics,
};
use crate::inputs::Rng;
use crate::stats::sustained_rate;
use crate::sys::Instant;
use crate::trace::{Span, Trace, TracedBackend, Tracer};
use kwt_engine::{Backend, Engine, HostQuantBackend, Prediction, Rv32SimBackend};
use std::time::Duration;

/// Clips per host batch.
const BATCH: usize = 8;

/// Largest deviation of the fixed-point MFCC from the f64 reference
/// (the front end's golden tolerance).
const MFCC_TOLERANCE: f32 = 0.01;

/// Clips per pass on which the host i16 top-1 may differ from the float
/// model's (one of the 120 subset clips disagrees on this model).
const MAX_HOST_DISAGREEMENTS: usize = 1;

/// The two engines of the arm.
pub struct ClipsArm {
    host: Engine,
    device: Engine,
    trace: Trace,
}

/// Answers computed apart from the measured paths.
pub struct ClipsOracle {
    /// Host A8 golden-model logits per clip.
    device_logits: Vec<Vec<f32>>,
    /// Float-model top-1 per clip.
    float_class: Vec<usize>,
    /// Clips whose fixed-point MFCC strays past [`MFCC_TOLERANCE`].
    mfcc_outliers: Vec<(usize, f32)>,
}

/// What one pass did.
#[derive(Default)]
struct Pass {
    host: Duration,
    device: Duration,
    host_clips: u64,
    device_clips: u64,
    errors: u64,
    device_cycles: u64,
    host_disagreements: usize,
    device_mismatches: usize,
}

impl ClipsArm {
    /// Builds both engines; with `trace` on, each backend sits behind a
    /// [`TracedBackend`].
    ///
    /// # Errors
    ///
    /// Engine construction failures.
    pub fn new(dep: &Deployment, trace: &Trace) -> Result<Self, String> {
        let e = |e: kwt_engine::EngineError| e.to_string();
        let (host, device) = if trace.enabled() {
            let host = TracedBackend::new(
                HostQuantBackend::new(dep.qm.clone()),
                trace.clone(),
                "quant.forward",
                |_: &HostQuantBackend, windows, t: &mut Tracer| {
                    t.add("quant.windows", windows as u64)
                },
            );
            let mut prev = [0u64; 8];
            let device = TracedBackend::new(
                Rv32SimBackend::new(&dep.image).map_err(e)?,
                trace.clone(),
                "rv32.device",
                move |b: &Rv32SimBackend, _, t: &mut Tracer| {
                    if let Some(run) = b.last_device_run() {
                        t.add("rv32.instret", run.instructions);
                        t.add("rv32.runs", 1);
                    }
                    count_regions(region_cycles([b.session().profile_report()]), &mut prev, t);
                },
            );
            (
                Engine::new(dep.fe.clone(), Box::new(host)).map_err(e)?,
                Engine::new(dep.fe.clone(), Box::new(device)).map_err(e)?,
            )
        } else {
            (
                Engine::host_quant(dep.qm.clone(), dep.fe.clone()).map_err(e)?,
                Engine::rv32_sim(&dep.image, dep.fe.clone()).map_err(e)?,
            )
        };
        Ok(ClipsArm {
            host,
            device,
            trace: trace.clone(),
        })
    }

    /// One untimed pass in subset order, filling the engines' arenas and
    /// the simulator's decode cache.
    pub fn warm(&mut self, dep: &Deployment) {
        let order: Vec<usize> = (0..dep.subset.clips.len()).collect();
        self.pass(dep, &order, None, 0);
    }

    fn pass(
        &mut self,
        dep: &Deployment,
        order: &[usize],
        oracle: Option<&ClipsOracle>,
        pass_id: u64,
    ) -> Pass {
        let clips = &dep.subset.clips;
        let trace = &self.trace;
        let mut p = Pass::default();
        let mut out: Vec<Prediction> = Vec::with_capacity(BATCH);
        let mut batch: Vec<&[f32]> = Vec::with_capacity(BATCH);
        let base = pass_id * order.len() as u64;
        for (b, idx) in order.chunks(BATCH).enumerate() {
            batch.clear();
            batch.extend(idx.iter().map(|&i| clips[i].as_slice()));
            let t = Instant::now();
            let r = trace.span("engine.classify_batch", base + (b * BATCH) as u64, || {
                self.host.classify_batch_into(&batch, &mut out)
            });
            p.host += t.elapsed();
            p.host_clips += idx.len() as u64;
            match (r, oracle) {
                (Err(_), _) => p.errors += idx.len() as u64,
                (Ok(()), Some(o)) => {
                    p.host_disagreements += idx
                        .iter()
                        .zip(&out)
                        .filter(|(&i, pred)| pred.class != o.float_class[i])
                        .count();
                }
                (Ok(()), None) => {}
            }
        }
        let mut pred = Prediction::default();
        for (k, &i) in order.iter().enumerate() {
            let t = Instant::now();
            let r = trace.span("engine.classify", base + k as u64, || {
                self.device.classify_into(&clips[i], &mut pred)
            });
            p.device += t.elapsed();
            p.device_clips += 1;
            if r.is_err() {
                p.errors += 1;
                continue;
            }
            p.device_cycles += self.device.last_device_run().map_or(0, |run| run.cycles);
            if let Some(o) = oracle {
                let same = pred.logits.len() == o.device_logits[i].len()
                    && pred
                        .logits
                        .iter()
                        .zip(&o.device_logits[i])
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                p.device_mismatches += usize::from(!same);
            }
        }
        p
    }

    /// Starts a measurement: a seeded clip order and empty tallies.
    pub fn start(&self, dep: &Deployment, seed: u64) -> ClipsRun {
        ClipsRun {
            rng: Rng::new(seed, 0),
            order: (0..dep.subset.clips.len()).collect(),
            host_rates: Vec::new(),
            device_rates: Vec::new(),
            cycles: 0,
            device_ok: 0,
            passes: 0,
            worst_disagreements: 0,
            elapsed: Duration::ZERO,
            rep: ArmReport::default(),
        }
    }

    /// Runs whole passes, each in a fresh seeded order, until `budget`
    /// has elapsed (at least one).
    pub fn slice(
        &mut self,
        run: &mut ClipsRun,
        dep: &Deployment,
        oracle: &ClipsOracle,
        budget: Duration,
    ) {
        let n = dep.subset.clips.len();
        let started = Instant::now();
        loop {
            run.rng.shuffle(&mut run.order);
            let (order, id) = (&run.order, run.passes);
            let p = self
                .trace
                .clone()
                .span("clips.pass", id, || self.pass(dep, order, Some(oracle), id));
            run.passes += 1;
            let rep = &mut run.rep;
            rep.attempted += p.host_clips + p.device_clips;
            rep.failed += p.errors;
            run.host_rates
                .push(p.host_clips as f64 / p.host.as_secs_f64());
            run.device_rates
                .push(p.device_clips as f64 / p.device.as_secs_f64());
            run.cycles += p.device_cycles;
            run.device_ok += p.device_clips;
            rep.check(p.device_mismatches == 0, || {
                format!(
                    "device logits differ from the host A8 golden model on {} clips",
                    p.device_mismatches
                )
            });
            run.worst_disagreements = run.worst_disagreements.max(p.host_disagreements);
            rep.check(p.host_disagreements <= MAX_HOST_DISAGREEMENTS, || {
                format!(
                    "host i16 top-1 disagrees with the float model on {} of {n} clips",
                    p.host_disagreements
                )
            });
            if started.elapsed() >= budget {
                break;
            }
        }
        run.elapsed += started.elapsed();
    }

    /// The arm's end-to-end metrics and checks.
    pub fn finish(&self, run: ClipsRun, dep: &Deployment, oracle: &ClipsOracle) -> ArmReport {
        let ClipsRun {
            mut host_rates,
            mut device_rates,
            passes,
            mut rep,
            ..
        } = run;
        let n = dep.subset.clips.len();
        rep.check(oracle.mfcc_outliers.is_empty(), || {
            format!(
                "fixed-point MFCC off the f64 reference by more than {MFCC_TOLERANCE} on clips {:?}",
                oracle.mfcc_outliers
            )
        });
        rep.seconds_per_unit = run.elapsed.as_secs_f64() / passes as f64;
        rep.notes.push(format!(
            "clips: {passes} passes of {n} clips, {} classified ({} failed); host i16 top-1 \
             agrees with the float model on at least {} of {n} clips per pass",
            rep.attempted,
            rep.failed,
            n - run.worst_disagreements
        ));
        let m = &mut rep.metrics;
        m.insert(
            "host_clips_per_s",
            sustained_rate(&mut host_rates).unwrap_or(0.0),
        );
        m.insert(
            "device_clips_per_s",
            sustained_rate(&mut device_rates).unwrap_or(0.0),
        );
        m.insert(
            "device_cycles_per_clip",
            run.cycles as f64 / run.device_ok.max(1) as f64,
        );
        m.insert("device_program_bytes", dep.image.program_bytes() as f64);
        rep
    }
}

/// Tallies of one measurement, kept across its slices.
pub struct ClipsRun {
    rng: Rng,
    order: Vec<usize>,
    host_rates: Vec<f64>,
    device_rates: Vec<f64>,
    cycles: u64,
    device_ok: u64,
    passes: u64,
    worst_disagreements: usize,
    elapsed: Duration,
    rep: ArmReport,
}

/// Per-layer figures of a traced phase, from its spans and the growth of
/// the counters over it.
pub fn layers(t: &Tracer, phases: &[Span], before: &Counters, after: &Counters) -> Metrics {
    let mut l = Metrics::new();
    let host_clips = delta(before, after, "quant.windows").max(1) as f64;
    let runs = delta(before, after, "rv32.runs");
    let instret = delta(before, after, "rv32.instret") as f64;
    let (_, _, frontend_ns) = t.totals("engine.classify_batch", phases);
    let (_, quant_ns, _) = t.totals("quant.forward", phases);
    let (_, device_ns, _) = t.totals("rv32.device", phases);
    l.insert(
        "audio.frontend_us_per_clip",
        frontend_ns as f64 / 1e3 / host_clips,
    );
    l.insert(
        "quant.forward_us_per_clip",
        quant_ns as f64 / 1e3 / host_clips,
    );
    l.insert(
        "rv32.device_us_per_clip",
        device_ns as f64 / 1e3 / runs.max(1) as f64,
    );
    l.insert(
        "rv32.sim_minst_per_s",
        instret * 1e3 / device_ns.max(1) as f64,
    );
    l.insert("rv32.instret_per_clip", instret / runs.max(1) as f64);
    region_metrics(&mut l, before, after, runs);
    l
}

impl ClipsOracle {
    /// Golden device logits, float top-1 and the MFCC tolerance check,
    /// each from a path apart from the measured one.
    ///
    /// # Errors
    ///
    /// Front-end or model failures.
    pub fn compute(dep: &Deployment) -> Result<Self, String> {
        let e = |e: &dyn std::fmt::Display| e.to_string();
        let packed = dep.params.pack_weights();
        let mut oracle = ClipsOracle {
            device_logits: Vec::new(),
            float_class: Vec::new(),
            mfcc_outliers: Vec::new(),
        };
        for (i, clip) in dep.subset.clips.iter().enumerate() {
            let mfcc = dep.fe.extract_padded(clip).map_err(|x| e(&x))?;
            let reference = dep.fe.extract_padded_reference(clip).map_err(|x| e(&x))?;
            let dev = mfcc
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            if dev > MFCC_TOLERANCE || mfcc.shape() != reference.shape() {
                oracle.mfcc_outliers.push((i, dev));
            }
            let (logits, _) = dep.a8.forward_a8(&mfcc).map_err(|x| e(&x))?;
            oracle.device_logits.push(logits);
            let float = kwt_model::forward_with(&dep.params, &packed, &mfcc).map_err(|x| e(&x))?;
            oracle.float_class.push(argmax(&float));
        }
        Ok(oracle)
    }
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &x)| {
            if x > bv {
                (i, x)
            } else {
                (bi, bv)
            }
        })
        .0
}
