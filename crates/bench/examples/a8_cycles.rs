//! Cycle-attribution probe for the fully-INT8 A8 image: one inference
//! with the per-instruction-class histogram and the profiler region
//! table.
//!
//! Run with `cargo run --release -p kwt-bench --example a8_cycles`.

use kwt_baremetal::InferenceImage;
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{A8Config, A8Kwt};
use kwt_tensor::Mat;

fn main() {
    let mut p = KwtParams::init(KwtConfig::kwt_tiny(), 77).unwrap();
    p.visit_mut(|s| {
        for v in s {
            *v *= 0.6;
        }
    });
    let x = Mat::from_fn(26, 16, |r, c| {
        let h = 31u64
            .wrapping_add((r * 16 + c) as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let u = (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        if c == 0 {
            35.0 + 50.0 * u
        } else {
            u * 16.0 / (1.0 + c as f32 * 0.4)
        }
    });
    let a8 = A8Kwt::quantize(&p, A8Config::paper_a8()).unwrap();
    let img = InferenceImage::build_a8(&a8).unwrap();
    let mut sess = img.session().unwrap();
    sess.set_class_histogram_enabled(true);
    let (_, r) = sess.run(&x).unwrap();
    println!("A8: {} cycles, {} instret", r.cycles, r.instructions);
    println!("{}", sess.machine().class_histogram().to_table());
    println!("{}", sess.profile_report().to_table());
}
