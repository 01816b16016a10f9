//! The benchmark's inputs, all made from the committed GSC v2 subset and
//! the workload seed: a seeded clip order, and continuous 16 kHz streams
//! that lay seeded keyword clips into the subset's background-noise beds.
//!
//! The program under test only ever sees the rendered samples.

use kwt_dataset::{GscV2, Split, Task};
use std::path::Path;

/// Where the committed subset lives, relative to the repository root.
pub const SUBSET_DIR: &str = "data/gsc_v2_subset";

/// Samples per 100 ms chunk at 16 kHz.
pub const CHUNK: usize = 1_600;

/// Samples from one keyword onset to the next within a stream (1.5 s).
const CLIP_PERIOD: usize = 24_000;

/// The subset, decoded: every keyword clip (padded to one second) and
/// every noise bed.
#[derive(Debug, Clone)]
pub struct Subset {
    /// Keyword clips in loader order (train, validation, test).
    pub clips: Vec<Vec<f32>>,
    /// `_background_noise_` beds at their native length.
    pub beds: Vec<Vec<f32>>,
}

impl Subset {
    /// Opens the subset with full manifest verification and decodes it.
    ///
    /// # Errors
    ///
    /// A missing or corrupt subset, as the loader reports it.
    pub fn load(root: &Path) -> Result<Self, String> {
        let ds = GscV2::open_checked(root, Task::AllKeywords)
            .map_err(|e| format!("cannot open the GSC v2 subset at {}: {e}", root.display()))?;
        let mut clips = Vec::new();
        for split in [Split::Train, Split::Val, Split::Test] {
            for i in 0..ds.len(split) {
                let (wave, _) = ds.clip(split, i).map_err(|e| e.to_string())?;
                clips.push(wave);
            }
        }
        let beds = ds.noise_bank().map_err(|e| e.to_string())?;
        if clips.is_empty() || beds.is_empty() || beds.iter().any(Vec::is_empty) {
            return Err("the GSC v2 subset needs keyword clips and noise beds".into());
        }
        Ok(Subset { clips, beds })
    }
}

/// SplitMix64: a small, fixed generator, so inputs depend on the seed
/// alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `lane` of workload seed `seed`.
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * ((self.next() >> 40) as f32 / (1u64 << 24) as f32)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One stream's recipe: a noise bed read from a seeded offset at a seeded
/// gain, with a seeded keyword clip starting every [`CLIP_PERIOD`]
/// samples at a seeded gain.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    bed: usize,
    bed_offset: usize,
    noise_gain: f32,
    clip_gain: f32,
    /// Clip index for each keyword slot, cycled.
    clips: Vec<usize>,
}

impl StreamPlan {
    /// The plan of stream `lane` for `seed`.
    pub fn new(subset: &Subset, seed: u64, lane: u64) -> Self {
        let mut rng = Rng::new(seed, lane + 1);
        let bed = rng.below(subset.beds.len());
        StreamPlan {
            bed,
            bed_offset: rng.below(subset.beds[bed].len()),
            noise_gain: rng.uniform(0.05, 0.3),
            clip_gain: rng.uniform(0.5, 1.0),
            clips: (0..16).map(|_| rng.below(subset.clips.len())).collect(),
        }
    }

    /// Writes stream samples `start .. start + out.len()` into `out`.
    pub fn render(&self, subset: &Subset, start: usize, out: &mut [f32]) {
        let bed = &subset.beds[self.bed];
        for (i, o) in out.iter_mut().enumerate() {
            let s = start + i;
            let noise = bed[(self.bed_offset + s) % bed.len()];
            let (slot, pos) = (s / CLIP_PERIOD, s % CLIP_PERIOD);
            let clip = &subset.clips[self.clips[slot % self.clips.len()]];
            let voice = clip.get(pos).copied().unwrap_or(0.0);
            *o = self.noise_gain * noise + self.clip_gain * voice;
        }
    }

    /// The first `len` samples as one vector.
    pub fn samples(&self, subset: &Subset, len: usize) -> Vec<f32> {
        let mut v = vec![0.0; len];
        self.render(subset, 0, &mut v);
        v
    }
}

/// `k` distinct lanes out of `0..n`, chosen by the seed.
pub fn sample_lanes(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut lanes: Vec<usize> = (0..n).collect();
    Rng::new(seed, u64::MAX).shuffle(&mut lanes);
    lanes.truncate(k.min(n));
    lanes.sort_unstable();
    lanes
}
