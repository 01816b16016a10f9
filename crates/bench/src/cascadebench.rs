//! Wake-word cascade benchmark (`paper bench-cascade` ->
//! `BENCH_cascade.json`) and its gate (`paper check-cascade`).
//!
//! The question: at realistic keyword duty cycles (speech containing the
//! wake word in ~1–5 % of one-second windows), how much cheaper is the
//! two-stage cascade — always-on KWT-Tiny A8 detector gating a KWT-1
//! scale A8 verifier — than running the big model on every window, and
//! what do its false-accept/false-reject rates look like?
//!
//! Three measurement layers, from expensive-and-exact to cheap-and-exact:
//!
//! * **Device cycles** (RV32 simulator): the tiny detector runs on the
//!   paper's 64 kB Ibex image; the verifier is the same KWT-1-architecture
//!   model on a [`Platform::ibex_with_ram`] build (identical timing
//!   model, bigger RAM — the 611 k-parameter model cannot fit 64 kB).
//!   One verifier inference costs ~180 M cycles, ~900× the tuned tiny
//!   image, which is the entire economic case for the cascade.
//! * **Decisions** (host A8 golden models): `A8Kwt::forward_a8` is
//!   bit-identical to the device images (asserted by the bare-metal test
//!   suite *and* re-proved on-device by this bench's identity block), so
//!   false-accept/false-reject sweeps over hundreds of windows run
//!   host-side at device fidelity in seconds instead of hours.
//! * **Identity** (device, small N): a [`kwt_engine::CascadeEngine`] over
//!   two simulated-device engines with `always_verify` must produce
//!   verdict logits bit-identical to the plain verifier engine on the
//!   same windows — the cascade adds gating, never numerics.
//!
//! The duty-cycle streams are deterministic: held-out synthetic "dog"
//! utterances (seed namespace disjoint from every training stream) mixed
//! with background noise and other-keyword fillers, all passed through
//! the seeded [`kwt_dataset::Augmenter`] (time shift, gain, noise at
//! drawn SNR) so windows resemble field audio rather than clean renders.
//!
//! The **gate block** is fixed-size and uses seeded-init weights for both
//! stages, so `check-cascade` re-measures it identically anywhere — no
//! trained artefacts required. The headline duty rows deploy the
//! quantization-faithful 1-epoch detector (see
//! [`crate::gscbench::quant_faithful_detector`] for why the fully
//! trained checkpoint cannot ride the A8 path), with its exponents
//! calibrated on the committed GSC v2 subset, plus a locally trained
//! verifier when available (`results/kwt1_binary_verifier.json`, built
//! by a non-smoke `bench-cascade` run; not committed — ~7 MB), falling
//! back to seeded-init verifier weights under `--smoke`.

use kwt_audio::{kwt1_frontend, kwt_tiny_frontend, MfccExtractor};
use kwt_baremetal::InferenceImage;
use kwt_dataset::{AugmentConfig, Augmenter, KeywordVoice, SynthParams, GSC_KEYWORDS};
use kwt_engine::{CascadeConfig, CascadeEngine, Engine};
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{A8Config, A8Kwt};
use kwt_rv32::Platform;
use serde::Serialize;

/// Samples per analysis window (1 s at 16 kHz).
const WINDOW: usize = 16_000;
/// Detector wake-probability threshold.
const WAKE_THRESHOLD: f32 = 0.5;
/// Simulated RAM for KWT-1-scale images (the timing model is the Ibex's;
/// only the RAM ceiling moves).
const VERIFIER_RAM: u32 = 16 * 1024 * 1024;
/// Fixed gate sub-load: windows at 5 % duty, re-measured by
/// `check-cascade` (must match the committed baseline exactly).
const GATE_WINDOWS: usize = 40;
/// Device windows in the verdict-identity block.
const IDENTITY_WINDOWS: usize = 3;
/// "dog" — the paper's wake word.
const WAKE_KEYWORD: usize = 4;

fn headline_windows() -> usize {
    if crate::timing::smoke() {
        60
    } else {
        240
    }
}

/// One duty-cycle arm of `BENCH_cascade.json`.
#[derive(Debug, Clone, Serialize)]
pub struct DutyRow {
    /// Fraction of windows containing the wake word, percent.
    pub duty_pct: f64,
    /// Windows in the stream.
    pub windows: usize,
    /// Windows that actually contain the wake word.
    pub keyword_windows: usize,
    /// Detector firings (wake probability >= threshold).
    pub triggers: usize,
    /// Cascade accepts (verifier confirmed a trigger).
    pub accepts: usize,
    /// Non-keyword windows the cascade accepted.
    pub false_accepts: usize,
    /// Keyword windows the cascade rejected (detector miss or verifier
    /// veto).
    pub false_rejects: usize,
    /// `false_accepts / non-keyword windows`.
    pub fa_rate: f64,
    /// `false_rejects / keyword windows`.
    pub fr_rate: f64,
    /// False-accept rate of the tiny detector alone (no verifier) — the
    /// column the cascade has to beat.
    pub detector_alone_fa_rate: f64,
    /// False-reject rate of the tiny detector alone.
    pub detector_alone_fr_rate: f64,
    /// Mega-cycles per hour of audio for the cascade
    /// (detector every window + verifier per trigger).
    pub cascade_mcycles_per_hour: f64,
    /// Mega-cycles per hour running the verifier on every window.
    pub always_on_mcycles_per_hour: f64,
    /// `always_on / cascade` — > 1 means the cascade is cheaper.
    pub saving_factor: f64,
    /// Device cycles per true detection (cascade cost of the stream over
    /// its true accepts); `null`-ish large when nothing was detected.
    pub cycles_per_detection: f64,
}

/// The fixed, weight-independent gate block.
#[derive(Debug, Clone, Serialize)]
pub struct CascadeGate {
    /// Windows in the gate stream.
    pub windows: usize,
    /// Keyword windows in the gate stream.
    pub keyword_windows: usize,
    /// Detector triggers over the gate stream (host A8 golden model).
    pub triggers: usize,
    /// Windows run through the on-device identity block.
    pub identity_windows: usize,
    /// Device cascade verdicts bit-identical to the plain verifier.
    pub identical: bool,
    /// Device cycles per detector window (mean over the identity block).
    pub detector_cycles: u64,
    /// Device cycles per verifier window.
    pub verifier_cycles: u64,
    /// Gate-stream trigger rate.
    pub trigger_rate: f64,
    /// Cascade mega-cycles per hour at the gate trigger rate.
    pub cascade_mcycles_per_hour: f64,
    /// Always-on-verifier mega-cycles per hour.
    pub always_on_mcycles_per_hour: f64,
    /// `always_on / cascade` at 5 % duty — the headline the gate defends.
    pub saving_factor: f64,
}

/// Everything `bench-cascade` writes to `BENCH_cascade.json`.
#[derive(Debug, Clone, Serialize)]
pub struct CascadeBenchSummary {
    /// Tool + mode provenance.
    pub generated_by: String,
    /// Whether the headline rows used the reduced smoke load.
    pub smoke: bool,
    /// Detector weights provenance (`trained` / `seeded-init`).
    pub detector_weights: String,
    /// Verifier weights provenance.
    pub verifier_weights: String,
    /// The fixed gate block.
    pub gate: CascadeGate,
    /// Duty-cycle sweep.
    pub duty_rows: Vec<DutyRow>,
}

/// Deterministic splitmix64 stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One window of a duty-cycle stream.
struct StreamWindow {
    wave: Vec<f32>,
    is_keyword: bool,
}

/// Builds a deterministic 1 s-window stream at `duty_pct` keyword duty:
/// wake-word renders (held-out seeds) among background-noise and
/// other-keyword fillers, each window augmented (shift/gain/noise) by
/// the seeded recipe.
fn duty_stream(duty_pct: f64, n: usize, stream_seed: u64) -> Vec<StreamWindow> {
    let synth = SynthParams::paper_difficulty();
    let dog = KeywordVoice::new(WAKE_KEYWORD);
    let aug = Augmenter::new(AugmentConfig {
        seed: stream_seed ^ 0xA06_3EED,
        ..AugmentConfig::default()
    });
    // Small noise bank for the augmenter, disjoint seed space.
    let bank: Vec<Vec<f32>> = (0..4)
        .map(|i| KeywordVoice::render_noise(&synth, stream_seed ^ 0xBA4C ^ (i as u64) << 40))
        .collect();
    let mut st = stream_seed ^ 0xD07_17E5;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let is_keyword = unit(&mut st) * 100.0 < duty_pct;
        // Held-out utterance seeds: namespace disjoint from the training
        // streams by the 0x0FF1.. XOR (same convention as the committed
        // GSC subset generator).
        let useed = mix(&mut st) ^ 0x0FF1_1FE0_5EED_0002;
        let raw = if is_keyword {
            dog.render(&synth, useed)
        } else if unit(&mut st) < 0.5 {
            KeywordVoice::render_noise(&synth, useed)
        } else {
            // A non-target keyword — speech that must NOT wake the device.
            let pick = (mix(&mut st) as usize) % (GSC_KEYWORDS.len() - 1);
            let cls = if pick >= WAKE_KEYWORD { pick + 1 } else { pick };
            KeywordVoice::new(cls).render(&synth, useed)
        };
        let wave = aug.augment(&raw, i as u64, &bank);
        debug_assert_eq!(wave.len(), WINDOW);
        out.push(StreamWindow { wave, is_keyword });
    }
    out
}

/// Host-side cascade decisions over a stream via the A8 golden models
/// (bit-identical to the device images — re-proved in the gate's device
/// identity block).
struct HostSweep {
    triggers: usize,
    accepts: usize,
    false_accepts: usize,
    false_rejects: usize,
    det_alone_fa: usize,
    det_alone_fr: usize,
}

fn softmax_prob(logits: &[f32], class: usize) -> f32 {
    let m = logits.iter().fold(f32::MIN, |a, &b| a.max(b));
    let exps: Vec<f32> = logits.iter().map(|&l| (l - m).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps[class] / sum
}

fn host_sweep(
    stream: &[StreamWindow],
    det: &A8Kwt,
    det_fe: &MfccExtractor,
    ver: &A8Kwt,
    ver_fe: &MfccExtractor,
) -> HostSweep {
    let mut s = HostSweep {
        triggers: 0,
        accepts: 0,
        false_accepts: 0,
        false_rejects: 0,
        det_alone_fa: 0,
        det_alone_fr: 0,
    };
    for w in stream {
        let dm = det_fe.extract_padded(&w.wave).expect("detector mfcc");
        let (dlogits, _) = det.forward_a8(&dm).expect("detector forward");
        let fired = softmax_prob(&dlogits, 1) >= WAKE_THRESHOLD;
        if fired {
            s.triggers += 1;
        }
        // Detector-alone decision: fire == accept.
        if fired && !w.is_keyword {
            s.det_alone_fa += 1;
        }
        if !fired && w.is_keyword {
            s.det_alone_fr += 1;
        }
        // Cascade decision: verifier confirms each trigger.
        let accepted = if fired {
            let vm = ver_fe.extract_padded(&w.wave).expect("verifier mfcc");
            let (vlogits, _) = ver.forward_a8(&vm).expect("verifier forward");
            let am = vlogits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty");
            am == 1
        } else {
            false
        };
        if accepted {
            s.accepts += 1;
            if !w.is_keyword {
                s.false_accepts += 1;
            }
        } else if w.is_keyword {
            s.false_rejects += 1;
        }
    }
    s
}

/// Builds the verifier model: KWT-1's architecture on the binary task.
fn verifier_config() -> KwtConfig {
    KwtConfig {
        num_classes: 2,
        ..KwtConfig::kwt1()
    }
}

/// Headline verifier weights: a locally trained checkpoint when present
/// (written by a previous non-smoke run), else seeded init.
fn headline_verifier(smoke: bool) -> (KwtParams, &'static str) {
    let cache = std::path::Path::new("results/kwt1_binary_verifier.json");
    if let Ok(p) = KwtParams::load_json(cache) {
        if p.config == verifier_config() {
            return (p, "trained (results/kwt1_binary_verifier.json)");
        }
    }
    if !smoke {
        eprintln!("[cascade] training the KWT-1-binary verifier (minutes; cached after)...");
        let ds = kwt_dataset::SyntheticGsc::new(kwt_dataset::GscConfig::paper_binary());
        let fe = kwt1_frontend().expect("preset");
        let train = ds
            .materialize(kwt_dataset::Split::Train, &fe)
            .expect("mfcc");
        let val = ds.materialize(kwt_dataset::Split::Val, &fe).expect("mfcc");
        let mut trainer = kwt_train::Trainer::new(
            KwtParams::init(verifier_config(), 42).expect("valid config"),
            kwt_train::TrainConfig {
                epochs: 2,
                batch_size: 16,
                verbose: true,
                ..kwt_train::TrainConfig::default()
            },
        );
        trainer.fit(&train, &val).expect("training");
        let params = trainer.into_params();
        std::fs::create_dir_all("results").ok();
        params.save_json(cache).ok();
        return (params, "trained (results/kwt1_binary_verifier.json)");
    }
    (
        KwtParams::init(verifier_config(), 42).expect("valid config"),
        "seeded-init (smoke)",
    )
}

/// Measures the fixed gate block: device identity + device cycles +
/// host trigger economics, all from seeded-init weights.
fn measure_gate() -> CascadeGate {
    let det_params = KwtParams::init(KwtConfig::kwt_tiny(), 42).expect("valid config");
    let ver_params = KwtParams::init(verifier_config(), 42).expect("valid config");
    let det_a8 = A8Kwt::quantize(&det_params, A8Config::paper_a8()).expect("detector a8");
    let ver_a8 = A8Kwt::quantize(&ver_params, A8Config::paper_a8()).expect("verifier a8");
    let det_image = InferenceImage::build_a8(&det_a8).expect("detector image");
    let ver_image =
        InferenceImage::build_a8_with_on(&ver_a8, None, Platform::ibex_with_ram(VERIFIER_RAM))
            .expect("verifier image");
    let det_fe = kwt_tiny_frontend().expect("preset");
    let ver_fe = kwt1_frontend().expect("preset");

    // --- Device identity block: cascade(always_verify) == plain verifier.
    let stream = duty_stream(5.0, GATE_WINDOWS, 0xCA5C_ADE0);
    let mut cascade = CascadeEngine::new(
        Engine::rv32_sim(&det_image, det_fe.clone()).expect("detector engine"),
        Engine::rv32_sim(&ver_image, ver_fe.clone()).expect("verifier engine"),
        CascadeConfig {
            wake_class: 1,
            wake_threshold: WAKE_THRESHOLD,
            verify_class: 1,
            always_verify: true,
        },
    )
    .expect("cascade");
    let mut plain = Engine::rv32_sim(&ver_image, ver_fe.clone()).expect("plain verifier");
    let mut identical = true;
    let mut det_cycles_sum = 0u64;
    let mut ver_cycles = 0u64;
    for w in stream.iter().take(IDENTITY_WINDOWS) {
        let d = cascade.classify(&w.wave).expect("cascade classify");
        let p = plain.classify(&w.wave).expect("plain classify");
        let v = d.verdict.expect("always_verify ran the verifier");
        let vb: Vec<u32> = v.logits.iter().map(|x| x.to_bits()).collect();
        let pb: Vec<u32> = p.logits.iter().map(|x| x.to_bits()).collect();
        identical &= vb == pb;
        det_cycles_sum += d.detector_cycles.expect("device detector reports cycles");
        ver_cycles = d.verifier_cycles.expect("device verifier reports cycles");
    }
    let detector_cycles = det_cycles_sum / IDENTITY_WINDOWS as u64;

    // --- Host trigger economics over the whole gate stream.
    let sweep = host_sweep(&stream, &det_a8, &det_fe, &ver_a8, &ver_fe);
    let keyword_windows = stream.iter().filter(|w| w.is_keyword).count();
    let trigger_rate = sweep.triggers as f64 / stream.len() as f64;
    let per_hour = 3600.0;
    let cascade_mc = per_hour * (detector_cycles as f64 + trigger_rate * ver_cycles as f64) / 1.0e6;
    let always_mc = per_hour * ver_cycles as f64 / 1.0e6;
    CascadeGate {
        windows: stream.len(),
        keyword_windows,
        triggers: sweep.triggers,
        identity_windows: IDENTITY_WINDOWS,
        identical,
        detector_cycles,
        verifier_cycles: ver_cycles,
        trigger_rate,
        cascade_mcycles_per_hour: cascade_mc,
        always_on_mcycles_per_hour: always_mc,
        saving_factor: always_mc / cascade_mc,
    }
}

/// Runs the full benchmark and renders `BENCH_cascade.json` + a summary.
pub fn collect() -> CascadeBenchSummary {
    let smoke = crate::timing::smoke();
    let gate = measure_gate();

    // Headline detector: the quantization-faithful 1-epoch reference
    // (deterministic, seconds to train). The 30-epoch float checkpoint is
    // deliberately NOT used: through the device's fixed nonlinearities it
    // collapses to a constant classifier and no exponent choice recovers
    // it — see the `gscbench` module docs.
    let det_params = crate::gscbench::quant_faithful_detector();
    let det_src = "1-epoch quantization-faithful (seed 42)".to_string();
    let (ver_params, ver_src) = headline_verifier(smoke);

    // Per-dataset A8 calibration for the detector: re-derive exponents on
    // the committed GSC v2 subset when it is present (the tentpole loop:
    // dataset -> calibration -> deployment), else keep the defaults.
    let det_cfg = match calibrated_detector_config(&det_params) {
        Some(cfg) => cfg,
        None => A8Config::paper_a8(),
    };
    let det_a8 = A8Kwt::quantize(&det_params, det_cfg).expect("detector a8");
    let ver_a8 = A8Kwt::quantize(&ver_params, A8Config::paper_a8()).expect("verifier a8");
    let det_fe = kwt_tiny_frontend().expect("preset");
    let ver_fe = kwt1_frontend().expect("preset");

    let n = headline_windows();
    let mut duty_rows = Vec::new();
    for duty in [1.0f64, 2.0, 5.0, 10.0] {
        let stream = duty_stream(duty, n, 0xD0D0 + duty as u64);
        let s = host_sweep(&stream, &det_a8, &det_fe, &ver_a8, &ver_fe);
        let keyword_windows = stream.iter().filter(|w| w.is_keyword).count();
        let non_keyword = (stream.len() - keyword_windows).max(1);
        let trigger_rate = s.triggers as f64 / stream.len() as f64;
        let cascade_mc = 3600.0
            * (gate.detector_cycles as f64 + trigger_rate * gate.verifier_cycles as f64)
            / 1.0e6;
        let always_mc = 3600.0 * gate.verifier_cycles as f64 / 1.0e6;
        let true_accepts = s.accepts - s.false_accepts;
        let stream_cycles = stream.len() as f64 * gate.detector_cycles as f64
            + s.triggers as f64 * gate.verifier_cycles as f64;
        duty_rows.push(DutyRow {
            duty_pct: duty,
            windows: stream.len(),
            keyword_windows,
            triggers: s.triggers,
            accepts: s.accepts,
            false_accepts: s.false_accepts,
            false_rejects: s.false_rejects,
            fa_rate: s.false_accepts as f64 / non_keyword as f64,
            fr_rate: if keyword_windows == 0 {
                0.0
            } else {
                s.false_rejects as f64 / keyword_windows as f64
            },
            detector_alone_fa_rate: s.det_alone_fa as f64 / non_keyword as f64,
            detector_alone_fr_rate: if keyword_windows == 0 {
                0.0
            } else {
                s.det_alone_fr as f64 / keyword_windows as f64
            },
            cascade_mcycles_per_hour: cascade_mc,
            always_on_mcycles_per_hour: always_mc,
            saving_factor: always_mc / cascade_mc,
            cycles_per_detection: if true_accepts > 0 {
                stream_cycles / true_accepts as f64
            } else {
                f64::INFINITY
            },
        });
    }
    CascadeBenchSummary {
        generated_by: format!(
            "paper bench-cascade ({})",
            if smoke { "smoke" } else { "full" }
        ),
        smoke,
        detector_weights: det_src,
        verifier_weights: ver_src.to_string(),
        gate,
        duty_rows,
    }
}

/// Calibrates the detector's A8 exponents on the committed GSC v2
/// subset (`data/gsc_v2_subset`), if it exists at the current working
/// directory or the repository root. Returns `None` when absent.
fn calibrated_detector_config(det_params: &KwtParams) -> Option<A8Config> {
    let root = ["data/gsc_v2_subset", "../data/gsc_v2_subset"]
        .iter()
        .map(std::path::Path::new)
        .find(|p| p.join(kwt_dataset::MANIFEST_NAME).exists())?;
    let ds =
        kwt_dataset::GscV2::open_checked(root, kwt_dataset::Task::Binary { target: "dog" }).ok()?;
    let fe = kwt_tiny_frontend().ok()?;
    let cal = ds.materialize(kwt_dataset::Split::Train, &fe, None).ok()?;
    let r = kwt_quant::calibrate_a8(det_params, &cal, A8Config::paper_a8()).ok()?;
    eprintln!(
        "[cascade] detector A8 exponents calibrated on the GSC subset \
         (agreement {:.1}% vs float, input_bits {})",
        r.agreement * 100.0,
        r.config.input_bits
    );
    Some(r.config)
}

fn fmt_duty_table(rows: &[DutyRow]) -> String {
    let mut s = String::new();
    s.push_str(
        "| duty % | windows | FA rate | FR rate | det-alone FA | cascade Mcyc/h | \
         always-on Mcyc/h | saving |\n|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {:.0} | {} | {:.3} | {:.3} | {:.3} | {:.0} | {:.0} | {:.1}x |\n",
            r.duty_pct,
            r.windows,
            r.fa_rate,
            r.fr_rate,
            r.detector_alone_fa_rate,
            r.cascade_mcycles_per_hour,
            r.always_on_mcycles_per_hour,
            r.saving_factor,
        ));
    }
    s
}

/// Runs the benchmark and writes `BENCH_cascade.json` under `out_dir`.
///
/// # Panics
///
/// Panics on model-construction or device failures (a bench that cannot
/// run must fail the invocation, not fabricate rows).
pub fn run_and_write(out_dir: &std::path::Path) -> String {
    let summary = collect();
    let json = serde_json::to_string_pretty(&summary).expect("serializable summary");
    let path = out_dir.join("BENCH_cascade.json");
    std::fs::write(&path, format!("{json}\n")).expect("write BENCH_cascade.json");
    format!(
        "## Cascade bench\n\ndetector {} cyc/window, verifier {} cyc/window \
         ({:.0}x); gate: identity={} over {} device windows, saving {:.1}x at \
         {:.0}% trigger rate\n\n{}\nwrote {}\n",
        summary.gate.detector_cycles,
        summary.gate.verifier_cycles,
        summary.gate.verifier_cycles as f64 / summary.gate.detector_cycles as f64,
        summary.gate.identical,
        summary.gate.identity_windows,
        summary.gate.saving_factor,
        summary.gate.trigger_rate * 100.0,
        fmt_duty_table(&summary.duty_rows),
        path.display(),
    )
}

#[derive(serde::Deserialize)]
struct BaselineGate {
    windows: usize,
    keyword_windows: usize,
    triggers: usize,
    identical: bool,
    detector_cycles: u64,
    verifier_cycles: u64,
    saving_factor: f64,
}

#[derive(serde::Deserialize)]
struct BaselineCascadeDoc {
    gate: BaselineGate,
}

/// The cascade gate (wired into `scripts/verify.sh` and CI): re-measures
/// the fixed gate block — seeded-init weights, deterministic stream —
/// then asserts:
///
/// 1. device cascade verdicts are **bit-identical** to the plain
///    verifier over the identity block (`always_verify` mode);
/// 2. the cascade is **cheaper per hour of audio than the always-on
///    KWT-1 verifier at 5 % keyword duty** (the committed
///    `BENCH_cascade.json` records a 5.7× saving in the gate block, and
///    1.8–2.2× for the deployed detector at 1–10 % duty);
/// 3. against the committed `BENCH_cascade.json` (path overridable via
///    `KWT_CASCADE_BASELINE`): stream shape and trigger count match
///    exactly, per-stage device cycles within **±5 %**, saving factor
///    within **±5 %**.
///
/// Skips step 3 with a message when no baseline exists (fresh clones).
///
/// # Panics
///
/// Panics (failing the verify run) on identity loss, a cascade that is
/// not cheaper at 5 % duty, baseline drift, or an unparseable baseline.
pub fn check() -> String {
    let gate = measure_gate();
    assert!(
        gate.identical,
        "device cascade verdicts are no longer bit-identical to the plain verifier — \
         the cascade changed numerics, not just gating"
    );
    assert!(
        gate.saving_factor > 1.0,
        "cascade at {:.1} Mcycles/h is not cheaper than the always-on verifier at \
         {:.1} Mcycles/h (5% duty) — the gate exists to keep this economic win",
        gate.cascade_mcycles_per_hour,
        gate.always_on_mcycles_per_hour
    );
    let path =
        std::env::var("KWT_CASCADE_BASELINE").unwrap_or_else(|_| "BENCH_cascade.json".to_string());
    let baseline_line = match std::fs::read_to_string(&path) {
        Err(_) => format!(
            "baseline: skipped, no committed numbers at `{path}` \
             (run `paper bench-cascade` from the repository root to create one)"
        ),
        Ok(text) => {
            let doc: BaselineCascadeDoc = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("cannot parse cascade baseline {path}: {e}"));
            let b = doc.gate;
            assert!(
                b.identical,
                "committed baseline recorded an identity failure"
            );
            assert_eq!(
                (gate.windows, gate.keyword_windows, gate.triggers),
                (b.windows, b.keyword_windows, b.triggers),
                "gate stream drifted from the committed baseline — the generator or the \
                 detector decisions changed; re-run `paper bench-cascade` and review the diff"
            );
            let dc = gate.detector_cycles as f64 / b.detector_cycles as f64 - 1.0;
            let vc = gate.verifier_cycles as f64 / b.verifier_cycles as f64 - 1.0;
            assert!(
                dc.abs() <= 0.05,
                "detector device cycles {} drifted {:+.2}% from the committed {} (gate: 5%)",
                gate.detector_cycles,
                dc * 100.0,
                b.detector_cycles
            );
            assert!(
                vc.abs() <= 0.05,
                "verifier device cycles {} drifted {:+.2}% from the committed {} (gate: 5%)",
                gate.verifier_cycles,
                vc * 100.0,
                b.verifier_cycles
            );
            let sf = gate.saving_factor / b.saving_factor - 1.0;
            assert!(
                sf.abs() <= 0.05,
                "cascade saving factor {:.2}x drifted {:+.2}% from the committed {:.2}x",
                gate.saving_factor,
                sf * 100.0,
                b.saving_factor
            );
            format!(
                "baseline: detector cycles {:+.2}%, verifier cycles {:+.2}%, saving {:.2}x \
                 (committed {:.2}x)",
                dc * 100.0,
                vc * 100.0,
                gate.saving_factor,
                b.saving_factor
            )
        }
    };
    format!(
        "## Cascade gate\n\n{} device windows verdict-identical; detector {} cyc, verifier {} \
         cyc ({:.0}x); saving {:.1}x at {:.0}% gate trigger rate (> 1x required); {baseline_line}\n",
        gate.identity_windows,
        gate.detector_cycles,
        gate.verifier_cycles,
        gate.verifier_cycles as f64 / gate.detector_cycles as f64,
        gate.saving_factor,
        gate.trigger_rate * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_stream_is_deterministic_and_duty_scales() {
        let a = duty_stream(5.0, 30, 7);
        let b = duty_stream(5.0, 30, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.is_keyword, y.is_keyword);
            assert_eq!(x.wave, y.wave);
        }
        let lo: usize = duty_stream(1.0, 200, 7)
            .iter()
            .filter(|w| w.is_keyword)
            .count();
        let hi: usize = duty_stream(10.0, 200, 7)
            .iter()
            .filter(|w| w.is_keyword)
            .count();
        assert!(hi > lo, "duty must scale keyword density: {lo} vs {hi}");
    }

    #[test]
    fn softmax_prob_is_a_probability() {
        let p = softmax_prob(&[1.0, 3.0], 1);
        assert!(p > 0.5 && p < 1.0);
        assert!((softmax_prob(&[2.0, 2.0], 0) - 0.5).abs() < 1e-6);
    }
}
