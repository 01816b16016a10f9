//! Proof of the zero-allocation steady state: wraps the global allocator
//! in a counter and asserts that, after warm-up, repeated host-side
//! `classify_into` calls perform **no heap allocation at all** — the
//! tentpole property the scratch arenas exist for.

use kwt_audio::kwt_tiny_frontend;
use kwt_engine::{Engine, Prediction, StreamingConfig, StreamingKws};
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{QuantConfig, QuantizedKwt};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per-thread, so a proof
    /// counts only its own work, never a neighbouring test's — libtest
    /// runs tests on parallel threads.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the slot is gone while the thread tears down its
    // thread-locals; allocations made then go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn trained_ish() -> KwtParams {
    let mut p = KwtParams::init(KwtConfig::kwt_tiny(), 77).unwrap();
    p.visit_mut(|s| {
        for v in s {
            *v *= 0.6;
        }
    });
    p
}

fn clip(seed: u64) -> Vec<f32> {
    (0..16_000u64)
        .map(|i| {
            let t = i as f64 / 16_000.0;
            ((2.0 * std::f64::consts::PI * (300.0 + seed as f64 * 50.0) * t).sin() * 0.5) as f32
        })
        .collect()
}

/// Warm the engine on every input it will see, then count allocations
/// over many steady-state iterations.
fn steady_state_allocs(engine: &mut Engine, clips: &[Vec<f32>]) -> u64 {
    let mut pred = Prediction::default();
    for audio in clips {
        engine.classify_into(audio, &mut pred).unwrap();
    }
    allocations(|| {
        for _ in 0..10 {
            for audio in clips {
                engine.classify_into(audio, &mut pred).unwrap();
            }
        }
    })
}

#[test]
fn host_float_steady_state_allocates_nothing() {
    let clips: Vec<Vec<f32>> = (0..3).map(clip).collect();
    let mut engine = Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap();
    let n = steady_state_allocs(&mut engine, &clips);
    assert_eq!(n, 0, "host_float hot loop allocated {n} times");
}

#[test]
fn host_quant_steady_state_allocates_nothing() {
    let qm = QuantizedKwt::quantize(&trained_ish(), QuantConfig::paper_best());
    let clips: Vec<Vec<f32>> = (0..3).map(clip).collect();
    let mut engine = Engine::host_quant(qm, kwt_tiny_frontend().unwrap()).unwrap();
    let n = steady_state_allocs(&mut engine, &clips);
    assert_eq!(n, 0, "host_quant hot loop allocated {n} times");
}

#[test]
fn batched_steady_state_allocates_nothing() {
    let clips: Vec<Vec<f32>> = (0..4).map(clip).collect();
    let mut engine = Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap();
    let mut out = Vec::new();
    engine.classify_batch_into(&clips, &mut out).unwrap();
    let n = allocations(|| {
        for _ in 0..5 {
            engine.classify_batch_into(&clips, &mut out).unwrap();
        }
    });
    assert_eq!(n, 0, "batched hot loop allocated {n} times");
}

#[test]
fn streaming_push_is_allocation_bounded() {
    // The warm-up pushes absorb every one-time buffer growth (ring
    // buffer, window, vote deque); after that the streaming steady state
    // must allocate nothing at all.
    let mut kws = StreamingKws::new(
        Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap(),
        StreamingConfig::default(),
    )
    .unwrap();
    let chunk = clip(2);
    // Warm up: several full clips through the window + one classify.
    for _ in 0..3 {
        kws.push_with(&chunk, |_| {}).unwrap();
    }
    let n = allocations(|| {
        for _ in 0..5 {
            kws.push_with(&chunk, |_| {}).unwrap();
        }
    });
    assert_eq!(n, 0, "streaming steady state allocated {n} times");
}

#[test]
fn streaming_reset_reuse_allocates_nothing() {
    // Session-slot reuse in the serving layer: a stream closes, the slot
    // is reset, and a different caller's audio runs through the same
    // stream object. After warm-up the whole reset-and-replay cycle must
    // not touch the allocator — reset() keeps every arena.
    let mut kws = StreamingKws::new(
        Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap(),
        StreamingConfig::default(),
    )
    .unwrap();
    let first = clip(1);
    let second = clip(5);
    for audio in [&first, &second] {
        kws.push_with(audio, |_| {}).unwrap();
        kws.reset();
    }
    let n = allocations(|| {
        for _ in 0..4 {
            kws.reset();
            kws.push_with(&first, |_| {}).unwrap();
            kws.reset();
            kws.push_with(&second, |_| {}).unwrap();
        }
    });
    assert_eq!(n, 0, "reset-reuse cycle allocated {n} times");
}

#[test]
fn window_wave_steady_state_allocates_nothing() {
    // The serving layer's batch entry point: classifying a wave of
    // staged windows into reused Predictions must be allocation-free
    // after the first (warming) wave.
    let mut engine = Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap();
    let windows: Vec<_> = (0..4)
        .map(|s| engine.frontend().extract_padded(&clip(s)).unwrap())
        .collect();
    let mut out = vec![Prediction::default(); windows.len()];
    engine
        .classify_window_wave_into(&windows, &mut out)
        .unwrap();
    let n = allocations(|| {
        for _ in 0..10 {
            engine
                .classify_window_wave_into(&windows, &mut out)
                .unwrap();
        }
    });
    assert_eq!(n, 0, "window wave hot loop allocated {n} times");
}

#[test]
fn proof_ignores_allocations_on_other_threads() {
    // A proof must count only its own thread: here a neighbour thread
    // allocates in a loop for the whole measured window (the window
    // waits until the neighbour has made 1,000 allocations inside it),
    // and the host_float steady state must still read exactly zero.
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let clips: Vec<Vec<f32>> = (0..3).map(clip).collect();
    let mut engine = Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap();
    let mut pred = Prediction::default();
    for audio in &clips {
        engine.classify_into(audio, &mut pred).unwrap();
    }
    let stop = AtomicBool::new(false);
    let neighbour_allocs = AtomicU64::new(0);
    let n = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(Vec::<u8>::with_capacity(64));
                neighbour_allocs.fetch_add(1, Ordering::Relaxed);
            }
        });
        let n = allocations(|| {
            let start = neighbour_allocs.load(Ordering::Relaxed);
            for audio in &clips {
                engine.classify_into(audio, &mut pred).unwrap();
            }
            while neighbour_allocs.load(Ordering::Relaxed) < start + 1_000 {
                std::hint::spin_loop();
            }
        });
        stop.store(true, Ordering::Relaxed);
        n
    });
    assert_eq!(n, 0, "proof counted {n} allocations it did not make");
}
