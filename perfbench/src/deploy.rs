//! The deployed model, built exactly as every `BENCH_*.json` collector
//! builds it, and what the arms share: results, metrics and probes.

use crate::inputs::Subset;
use crate::trace::{Trace, Tracer};
use kwt_audio::{kwt_tiny_frontend, MfccExtractor};
use kwt_baremetal::InferenceImage;
use kwt_model::KwtParams;
use kwt_quant::{A8Config, A8Kwt, QuantConfig, QuantizedKwt};
use std::collections::BTreeMap;
use std::path::Path;

/// The subset and the one model every arm deploys: the benchmark
/// weights of `kwt_bench::enginebench::bench_params`, quantised for the
/// host i16 path and as the paper's A8 image with the tuned kernels.
pub struct Deployment {
    /// Decoded keyword clips and noise beds.
    pub subset: Subset,
    /// Float weights (host float model).
    pub params: KwtParams,
    /// Host i16 model.
    pub qm: QuantizedKwt,
    /// Host A8 golden model of the device image.
    pub a8: A8Kwt,
    /// The device image.
    pub image: InferenceImage,
    /// The KWT-Tiny MFCC front end.
    pub fe: MfccExtractor,
}

impl Deployment {
    /// Loads the subset and builds every model form.
    ///
    /// # Errors
    ///
    /// A missing subset or a model that does not build.
    pub fn build(root: &Path, trace: &Trace) -> Result<Self, String> {
        let subset = trace.span("dataset.load", 0, || Subset::load(root))?;
        let params = kwt_bench::enginebench::bench_params();
        let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best());
        let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).map_err(|e| e.to_string())?;
        let image = trace
            .span("baremetal.image_build", 0, || InferenceImage::build_a8(&a8))
            .map_err(|e| e.to_string())?;
        let fe = kwt_tiny_frontend().map_err(|e| e.to_string())?;
        Ok(Deployment {
            subset,
            params,
            qm,
            a8,
            image,
            fe,
        })
    }
}

/// Named metric values of one arm.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A snapshot of the tracer's counters.
pub type Counters = BTreeMap<&'static str, u64>;

/// What one arm measured and counted.
#[derive(Debug, Default)]
pub struct ArmReport {
    /// End-to-end metrics.
    pub metrics: Metrics,
    /// Operations attempted: clips classified or chunks pushed.
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Operation counts and sample sizes, printed before the result.
    pub notes: Vec<String>,
    /// Seconds per unit of work (a pass, or a second of audio
    /// ingested), for the tracing overhead.
    pub seconds_per_unit: f64,
}

impl ArmReport {
    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Device regions reported per inference, by profiler region name.
pub const REGIONS: [(&str, &str); 8] = [
    ("attn/matmul", "baremetal.attn_matmul_cycles"),
    ("attn/softmax", "baremetal.attn_softmax_cycles"),
    ("attn/other", "baremetal.attn_other_cycles"),
    ("top/layernorm", "baremetal.top_layernorm_cycles"),
    ("top/matmul", "baremetal.top_matmul_cycles"),
    ("top/other", "baremetal.top_other_cycles"),
    ("mlp/matmul", "baremetal.mlp_matmul_cycles"),
    ("mlp/gelu", "baremetal.mlp_gelu_cycles"),
];

/// Cumulative profiler cycles of the [`REGIONS`], summed over `reports`.
pub fn region_cycles(reports: impl IntoIterator<Item = kwt_rv32::ProfileReport>) -> [u64; 8] {
    let mut out = [0u64; 8];
    for report in reports {
        for (name, cycles, _) in &report.regions {
            if let Some(i) = REGIONS.iter().position(|(r, _)| r == name) {
                out[i] += cycles;
            }
        }
    }
    out
}

/// Adds the growth of the cumulative region cycles since `prev` to the
/// tracer's counters and remembers the new totals.
pub fn count_regions(now: [u64; 8], prev: &mut [u64; 8], t: &mut Tracer) {
    for (i, (_, metric)) in REGIONS.iter().enumerate() {
        t.add(metric, now[i] - prev[i]);
    }
    *prev = now;
}

/// Per-inference region cycles from counter deltas over `runs`.
pub fn region_metrics(layers: &mut Metrics, before: &Counters, after: &Counters, runs: u64) {
    for (_, metric) in REGIONS {
        layers.insert(
            metric,
            delta(before, after, metric) as f64 / runs.max(1) as f64,
        );
    }
}

/// Growth of a counter between two snapshots.
pub fn delta(before: &Counters, after: &Counters, name: &str) -> u64 {
    after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
}

/// `true` when two decision lists are equal bit for bit.
pub fn same_decisions(a: &[kwt_engine::StreamDecision], b: &[kwt_engine::StreamDecision]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.frame_index == y.frame_index
                && x.class == y.class
                && x.smoothed_class == y.smoothed_class
                && x.score.to_bits() == y.score.to_bits()
        })
}
