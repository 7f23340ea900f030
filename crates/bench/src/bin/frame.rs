//! intensity backend), plus a chunk-level microbenchmark of
//! the strip scorers themselves and a "sliver storm" map-seeding
//! comparison (separable rebuild vs FFT synthesis, with the FFT path's
//! ≥5× seeding-speedup contract asserted).
//!
//! The targets are generated from a fixed seed so the benchmark is
//! bit-identical everywhere it runs. Every frame is classified and
//! approximately fractured once; each mode then refines the same starting
//! solution. The exact mode is the reference; the relaxed/coarse/fft
//! modes only promise that quality tracks it (no more failing pixels than
//! it leaves). Mode names keep the `-t1` suffix the committed baseline is
//! keyed on.
//!
//! The chunk-level microbenchmark times `cost_delta_for_strip` against
//! `cost_delta_for_strip_relaxed` on the refined solution's edge slabs
//! and reports ns/call for each, publishing the results as the
//! `frame.bench.chunk.*` counters so the run report carries the
//! inner-loop evidence alongside the end-to-end timings.
//!
//! Run with `cargo run -p maskfrac-bench --release --bin frame`
//! (`--full` doubles the frame count and enlarges the staircases).
//! Honours `--trace` and `--metrics-out <path>`, and always writes the
//! machine-readable run report `results/BENCH_frame.json` (see
//! `docs/observability.md` and `docs/benchmarks.md`). CI's perf-smoke job
//! compares the shot counts of every mode in that report against the
//! committed baseline, gated on `frame.bench.suite_fingerprint`, and
//! requires the `frame.bench.chunk.*` and `frame.bench.rebuild.*`
//! counters to be present.

use maskfrac_bench::{apply_obs_flags, finish_run_report, save_json};
use maskfrac_ebeam::violations::{cost_delta_for_strip, cost_delta_for_strip_relaxed};
use maskfrac_ebeam::{ExposureModel, IntensityMap};
use maskfrac_fracture::refine::refine;
use maskfrac_fracture::{approximate_fracture, FractureConfig, IntensityBackend, ModelBasedFracturer};
use maskfrac_geom::{Frame, Point, Polygon, Rect};
use maskfrac_obs::ShapeRecord;

const SEED: u64 = 0x6672_616d_6562_6e63; // "framebnc"
const SMOKE_FRAMES: usize = 3;

/// One (frame, mode) measurement.
#[derive(Debug)]
struct FrameRow {
    frame: String,
    mode: &'static str,
    shots: usize,
    fail_pixels: usize,
    refine_s: f64,
    iterations: usize,
}

maskfrac_obs::impl_to_json!(FrameRow { frame, mode, shots, fail_pixels, refine_s, iterations });

struct Mode {
    name: &'static str,
    /// Coarse-to-fine factor (1 = single-tier).
    coarse: usize,
    /// Lattice-profile + multi-accumulator scoring.
    relaxed: bool,
    /// Seed the intensity map with the FFT full-frame synthesis instead
    /// of the separable per-shot rebuild.
    fft: bool,
}

/// The first mode is the exact reference; the others only promise quality
/// no worse than it.
const MODES: [Mode; 5] = [
    Mode { name: "exact-t1", coarse: 1, relaxed: false, fft: false },
    Mode { name: "relaxed-t1", coarse: 1, relaxed: true, fft: false },
    Mode { name: "coarse2-t1", coarse: 2, relaxed: false, fft: false },
    Mode { name: "coarse4-t1", coarse: 4, relaxed: false, fft: false },
    Mode { name: "fft-t1", coarse: 1, relaxed: false, fft: true },
];

/// Tiny seeded xorshift64 — the bench crate carries no RNG dependency,
/// and the frames must be bit-identical everywhere the bench runs.
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform draw from `lo..=hi` (range small enough that modulo bias
    /// is irrelevant for geometry synthesis).
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % ((hi - lo + 1) as u64)) as i64
    }
}

/// Builds one rising-staircase polygon with `steps` columns: column `i`
/// spans `X[i-1]..X[i]` horizontally and reaches height `Y[i]`, with both
/// cumulative sequences strictly increasing. The boundary is emitted
/// counter-clockwise (bottom left→right, up the right side, back along
/// the stepped top), so the ring is simple and rectilinear by
/// construction.
fn staircase(rng: &mut XorShift64, steps: usize, lo: i64, hi: i64) -> Polygon {
    let mut xs = vec![0i64];
    let mut ys = vec![0i64];
    for _ in 0..steps {
        xs.push(xs.last().unwrap() + rng.range(lo, hi));
        ys.push(ys.last().unwrap() + rng.range(lo, hi));
    }
    let w = *xs.last().unwrap();
    let h = *ys.last().unwrap();
    let mut ring = vec![Point { x: 0, y: 0 }, Point { x: w, y: 0 }];
    // Up the right side to the full height, then step back down-left:
    // each column's top edge, then the drop to the previous column's top.
    ring.push(Point { x: w, y: h });
    for i in (1..=steps).rev() {
        ring.push(Point { x: xs[i - 1], y: ys[i] });
        if i > 1 {
            ring.push(Point { x: xs[i - 1], y: ys[i - 1] });
        }
    }
    Polygon::new(ring).expect("staircase ring is simple and rectilinear")
}

/// FNV-1a hash of the frame ids and vertex coordinates, published in the
/// run report as the `frame.bench.suite_fingerprint` counter. Shot counts
/// are only comparable between runs that fractured the same geometry;
/// CI's drift check keys on this so a baseline from a different generator
/// build bootstraps instead of flagging a false regression.
fn suite_fingerprint(frames: &[(String, Polygon)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (id, polygon) in frames {
        eat(id.as_bytes());
        for p in polygon.vertices() {
            eat(&p.x.to_le_bytes());
            eat(&p.y.to_le_bytes());
        }
    }
    h
}

/// Times the two strip scorers over the refined solution's edge slabs and
/// publishes ns/call plus the observed worst-case divergence. This is the
/// chunk-level half of the benchmark: it isolates the inner loop the
/// end-to-end numbers are built from (see `docs/performance.md`).
fn chunk_microbench(fracturer: &ModelBasedFracturer, target: &Polygon, shots: &[Rect]) {
    let cls = fracturer.classify(target);
    let mut exact_map = IntensityMap::new(fracturer.model().clone(), cls.frame());
    let mut lattice_map = IntensityMap::new(fracturer.model().clone(), cls.frame());
    lattice_map.enable_lattice_profiles();
    for s in shots {
        exact_map.add_shot(s);
        lattice_map.add_shot(s);
    }
    // One 1 nm slab per shot edge — the exact shape of the candidate
    // strips the refinement engine scores in its hot loop.
    let mut strips = Vec::new();
    for s in shots {
        strips.push(Rect::new(s.x0(), s.y0(), s.x0() + 1, s.y1()).unwrap());
        strips.push(Rect::new(s.x1() - 1, s.y0(), s.x1(), s.y1()).unwrap());
        strips.push(Rect::new(s.x0(), s.y0(), s.x1(), s.y0() + 1).unwrap());
        strips.push(Rect::new(s.x0(), s.y1() - 1, s.x1(), s.y1()).unwrap());
    }

    let mut max_diff = 0.0f64;
    for strip in &strips {
        for sign in [1.0, -1.0] {
            let e = cost_delta_for_strip(&cls, &exact_map, strip, sign);
            let r = cost_delta_for_strip_relaxed(&cls, &lattice_map, strip, sign);
            max_diff = max_diff.max((e - r).abs());
        }
    }
    assert!(
        max_diff < 1e-4,
        "relaxed scorer diverged from exact by {max_diff:e} on a strip"
    );

    const REPS: usize = 200;
    let time = |f: &dyn Fn(&Rect) -> f64| {
        let t0 = std::time::Instant::now();
        let mut acc = 0.0;
        for _ in 0..REPS {
            for strip in &strips {
                acc += std::hint::black_box(f(std::hint::black_box(strip)));
            }
        }
        let dt = t0.elapsed();
        std::hint::black_box(acc);
        dt.as_nanos() as u64 / (REPS * strips.len()) as u64
    };
    let exact_ns = time(&|s| cost_delta_for_strip(&cls, &exact_map, s, 1.0));
    let relaxed_ns = time(&|s| cost_delta_for_strip_relaxed(&cls, &lattice_map, s, 1.0));
    maskfrac_obs::counter!("frame.bench.chunk.exact_ns_per_call").add(exact_ns);
    maskfrac_obs::counter!("frame.bench.chunk.relaxed_ns_per_call").add(relaxed_ns);
    println!(
        "\nchunk microbench over {} strips ({REPS} reps): exact {exact_ns} ns/call, \
         relaxed {relaxed_ns} ns/call ({:.2}x), max |exact - relaxed| = {max_diff:.2e}",
        strips.len(),
        exact_ns as f64 / relaxed_ns.max(1) as f64
    );
}

/// Seeds a dense "sliver storm" — tens of thousands of 2–4 nm shots on a
/// 900×900 nm frame, the regime FFT synthesis is built for — and times
/// the two ways of building that frame's intensity map from scratch: the
/// separable per-shot rebuild (the reference) and the FFT full-frame
/// synthesis. Timings are published as the
/// `frame.bench.rebuild.*` counters; the FFT path must deliver its
/// advertised >=5x seeding speedup here, and must agree with the
/// separable map within the 3-sigma window-truncation bound (the FFT
/// keeps the kernel tails the windowed rebuild drops; see
/// `maskfrac_ebeam::fft`).
fn rebuild_storm(full: bool) {
    let side: usize = 900;
    let count: usize = if full { 320_000 } else { 160_000 };
    let model = ExposureModel::paper_default();
    let frame = Frame::new(Point::new(0, 0), side, side);
    let mut rng = XorShift64::new(SEED ^ 0x736c_6976_6572_7321); // "sliver s"
    let shots: Vec<Rect> = (0..count)
        .map(|_| {
            let x = rng.range(0, side as i64 - 5);
            let y = rng.range(0, side as i64 - 5);
            let (w, h) = (rng.range(2, 4), rng.range(2, 4));
            Rect::new(x, y, x + w, y + h).expect("storm shot ordered")
        })
        .collect();

    let mut serial = IntensityMap::new(model.clone(), frame);
    let t0 = std::time::Instant::now();
    serial.rebuild(shots.iter());
    let serial_s = t0.elapsed().as_secs_f64();

    let mut fft = IntensityMap::new(model, frame);
    let t0 = std::time::Instant::now();
    fft.rebuild_fft(&shots);
    let fft_s = t0.elapsed().as_secs_f64();
    let fft_diff = fft.max_abs_diff(&serial);

    let speedup = serial_s / fft_s.max(1e-12);
    println!(
        "\nrebuild storm ({count} slivers on {side}x{side}): separable {serial_s:.3}s, \
         fft {fft_s:.3}s ({speedup:.1}x), \
         max |fft - separable| = {fft_diff:.2e}"
    );
    maskfrac_obs::counter!("frame.bench.rebuild.shots").add(count as u64);
    maskfrac_obs::counter!("frame.bench.rebuild.separable_us").add((serial_s * 1e6) as u64);
    maskfrac_obs::counter!("frame.bench.rebuild.fft_us").add((fft_s * 1e6) as u64);
    assert!(
        speedup >= 5.0,
        "FFT synthesis only {speedup:.1}x faster than the separable rebuild (contract: >=5x)"
    );
    assert!(
        fft_diff < 1e-3,
        "FFT synthesis diverged from the separable rebuild by {fft_diff:e}"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let started = std::time::Instant::now();
    let obs = apply_obs_flags(&args);
    let full = args.iter().any(|a| a == "--full");

    let (count, steps, lo, hi) = if full {
        (SMOKE_FRAMES * 2, 7, 20, 40)
    } else {
        (SMOKE_FRAMES, 5, 18, 34)
    };
    let mut rng = XorShift64::new(SEED);
    let frames: Vec<(String, Polygon)> = (0..count)
        .map(|i| (format!("Frame-{}", i + 1), staircase(&mut rng, steps, lo, hi)))
        .collect();

    let base = FractureConfig {
        reduction_sweep: false,
        ..FractureConfig::default()
    };
    let fracturer = ModelBasedFracturer::new(base.clone());

    let fingerprint = suite_fingerprint(&frames);
    maskfrac_obs::counter!("frame.bench.suite_fingerprint").add(fingerprint);
    println!(
        "== Large-frame benchmark over {} staircase frames (suite fingerprint {fingerprint:#018x}) ==",
        frames.len()
    );

    let mut rows: Vec<FrameRow> = Vec::new();
    let mut shapes: Vec<ShapeRecord> = Vec::new();
    let mut totals = [0.0f64; MODES.len()];
    let mut first_refined: Option<Vec<Rect>> = None;

    for (id, target) in &frames {
        let cls = fracturer.classify(target);
        let approx = approximate_fracture(target, &cls, fracturer.model(), &base, fracturer.lth());
        let mut reference_fails = 0usize;
        for (mi, mode) in MODES.iter().enumerate() {
            let cfg = FractureConfig {
                incremental_refine: true,
                coarse_factor: mode.coarse,
                relaxed_scoring: mode.relaxed,
                intensity_backend: if mode.fft {
                    IntensityBackend::Fft
                } else {
                    IntensityBackend::Separable
                },
                ..base.clone()
            };
            let t0 = std::time::Instant::now();
            let out = refine(&cls, fracturer.model(), &cfg, approx.shots.clone());
            let dt = t0.elapsed().as_secs_f64();
            totals[mi] += dt;
            if mi == 0 {
                reference_fails = out.summary.fail_count();
                if first_refined.is_none() {
                    first_refined = Some(out.shots.clone());
                }
            } else {
                assert!(
                    out.summary.fail_count() <= reference_fails,
                    "{id}: {} left {} failing pixels (exact reference: {})",
                    mode.name,
                    out.summary.fail_count(),
                    reference_fails
                );
            }
            println!(
                "{:>8}  {:<12}  {:>4} shots  {:>3} fails  {:>8.3}s  {:>4} iters",
                id,
                mode.name,
                out.shots.len(),
                out.summary.fail_count(),
                dt,
                out.iterations
            );
            rows.push(FrameRow {
                frame: id.clone(),
                mode: mode.name,
                shots: out.shots.len(),
                fail_pixels: out.summary.fail_count(),
                refine_s: dt,
                iterations: out.iterations,
            });
            shapes.push(ShapeRecord {
                id: id.clone(),
                status: if out.summary.is_feasible() { "ok" } else { "degraded" }.to_owned(),
                method: mode.name.to_owned(),
                shots: out.shots.len(),
                fail_pixels: out.summary.fail_count(),
                runtime_s: dt,
                attempts: 1,
                iterations: out.iterations,
                on_fail_pixels: out.summary.on_fails,
                off_fail_pixels: out.summary.off_fails,
                ..ShapeRecord::default()
            });
        }
    }

    println!("\ntotals:");
    for (mi, mode) in MODES.iter().enumerate() {
        let speedup = totals[0] / totals[mi].max(1e-12);
        println!(
            "  {:<12} {:>8.3}s  ({speedup:.2}x vs {})",
            mode.name, totals[mi], MODES[0].name
        );
    }

    chunk_microbench(&fracturer, &frames[0].1, first_refined.as_deref().unwrap_or(&[]));
    rebuild_storm(full);

    println!("engine counters:");
    for name in [
        "refine.candidates.scored",
        "refine.candidates.skipped",
        "refine.spare_core.passes",
        "refine.spare_core.denied",
        "fracture.refine.coarse_iterations",
        "fracture.refine.polish_iterations",
        "ebeam.lut.lattice_builds",
    ] {
        println!("  {name} = {}", maskfrac_obs::counter(name).get());
    }

    save_json("frame_bench.json", &rows);
    finish_run_report("frame", started, &obs, shapes);
}
