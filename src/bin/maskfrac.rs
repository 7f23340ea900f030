//! `maskfrac` — command-line mask fracturing.
//!
//! ```text
//! maskfrac fracture <shape.json> [--method NAME] [--svg OUT.svg] [--out SHOTS.json] [--deadline-ms MS] [--coarse-factor K] [--relaxed-scoring]
//!                   [--intensity-backend separable|fft] [OBS FLAGS]
//! maskfrac fracture-layout <layout.txt> [--threads N] [--coarse-factor K] [--relaxed-scoring] [--deadline-ms MS]
//!                          [--intensity-backend separable|fft]
//!                          [--checkpoint J.mfj] [--resume] [--retries N] [--hung-multiple N] [--watchdog-min-samples N]
//!                          [--geom-cache DIR] [--fault-seed N] [--fault-rate R] [--fault-crash-rate R] [OBS FLAGS]
//! maskfrac generate-ilt <out.json> [--seed N] [--radius NM]
//! maskfrac generate-benchmark <out.json> [--shots K] [--seed N]
//! maskfrac verify <shape.json>
//! maskfrac export-suite [dir]
//! maskfrac suite
//! ```
//!
//! Shapes travel as the JSON format of
//! [`maskfrac::shapes::io::ShapeFile`]; methods are `ours` (default),
//! `gsc`, `mp`, `proto-eda`, `conventional`, `exact`. Unknown flags,
//! malformed numbers, and degenerate shapes are reported with a typed
//! message and a non-zero exit instead of a panic; `--deadline-ms`
//! bounds the refinement wall clock (best-so-far results are tagged
//! `degraded`). `--threads` defaults to the machine's available
//! parallelism (capped by the layout worker limit). A greedy pass inside
//! one shape's refinement scores its candidates on a second core
//! whenever one is idle; results are identical either way.
//! `--coarse-factor K` (1–4, default 1) enables coarse-to-fine
//! refinement: converge on a `K`-nm lattice first, then polish at
//! Δp = 1 nm. `K = 1` is the bit-exact legacy path; `K > 1` trades the
//! byte-parity guarantee for speed. `--relaxed-scoring` swaps the exact
//! candidate scorer for the integer-lattice tier — also not
//! byte-identical, same quality guarantee. `--intensity-backend fft`
//! seeds each refinement run by whole-frame FFT synthesis instead of the
//! shot-by-shot separable rebuild — `O(frame·log frame)` regardless of
//! the shot count, also not byte-identical, same quality guarantee. All
//! three fast tiers fall back to the exact path when they end
//! infeasible, so they never deliver a worse solution than the defaults
//! (see `docs/performance.md`).
//!
//! Both fracture subcommands share the observability flags (none of which
//! changes the shot output — see `docs/observability.md`):
//!
//! - `--trace` prints the pipeline span tree to stderr;
//! - `--metrics-out REPORT.json` writes the versioned run report
//!   (schema v2: per-shape ledger, worst-K outliers, anomaly flags);
//! - `--trace-out TRACE.json` captures structured events and exports them
//!   in Chrome trace format (loadable in Perfetto / `chrome://tracing`);
//! - `--events-out EVENTS.jsonl` writes the same events as raw JSON Lines;
//! - `--progress-ms N` prints a live progress line to stderr every N ms
//!   (shapes done, shots so far, cache hit rate across both dedup tiers);
//! - `--telemetry-listen ADDR` serves live telemetry over HTTP while the
//!   run is going: `GET /metrics` (Prometheus text), `GET /healthz`
//!   (JSON liveness) and `GET /events` (NDJSON stream of ledger/span
//!   events off the broadcast bus). Bind `127.0.0.1:0` for an ephemeral
//!   port; the resolved address is printed as `telemetry listening on …`.
//!
//! `fracture-layout` additionally speaks the robustness flags
//! (`docs/robustness.md`): `--checkpoint <path>` journals every
//! completed distinct geometry to a durable, checksummed file and
//! `--resume` replays its valid prefix instead of re-fracturing;
//! `--retries N` sets the supervised model-retry budget;
//! `--hung-multiple N` the hung-shape watchdog threshold (`0` off) and
//! `--watchdog-min-samples N` the computed-shape sample floor the
//! watchdog needs before it starts flagging (cache hits, persistent
//! loads and replays never count); `--geom-cache DIR` enables the
//! persistent, content-addressed geometry-cache tier (`docs/DESIGN.md`)
//! so a re-run fractures only never-seen canonical cells — hit/miss/
//! write totals are printed after the run and land in the run report as
//! `mdp.geomcache.*` counters;
//! the `--fault-*` flags arm deterministic fault injection (including
//! `--fault-crash-rate`, which kills the process mid-journal-append —
//! the crash half of the kill-and-resume test harness).

use maskfrac::baselines::{
    Conventional, ExhaustiveOptimal, GreedySetCover, MaskFracturer, MatchingPursuit, Ours,
    ProtoEda,
};
use maskfrac::fracture::FractureConfig;
use maskfrac::geom::svg::{Style, SvgCanvas};
use maskfrac::shapes::generated::{generate_benchmark, GeneratedParams};
use maskfrac::shapes::ilt::{generate_ilt_clip, IltParams};
use maskfrac::shapes::io::ShapeFile;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("fracture") => cmd_fracture(&args[1..]),
        Some("fracture-layout") => cmd_fracture_layout(&args[1..]),
        Some("generate-ilt") => cmd_generate_ilt(&args[1..]),
        Some("generate-benchmark") => cmd_generate_benchmark(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("export-suite") => cmd_export_suite(&args[1..]),
        Some("suite") => cmd_suite(),
        _ => {
            eprintln!(
                "usage: maskfrac <fracture|fracture-layout|generate-ilt|generate-benchmark|verify|export-suite|suite> [args]\n\
                 run with a subcommand; see crate docs for details"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Finds `--flag value` in an argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Shared observability flags, accepted by every fracture subcommand.
const OBS_FLAGS: [&str; 6] = [
    "--trace",
    "--metrics-out",
    "--trace-out",
    "--events-out",
    "--progress-ms",
    "--telemetry-listen",
];

/// The shared observability flags, parsed and applied:
/// `--trace` turns on the stderr span tree, `--metrics-out <path>` selects
/// where the run report goes, `--trace-out <path>` / `--events-out <path>`
/// enable structured event capture (Chrome trace / JSON Lines),
/// `--progress-ms <n>` starts the live progress sampler, and
/// `--telemetry-listen <addr>` serves the live HTTP telemetry plane.
struct ObsFlags {
    metrics_out: Option<std::path::PathBuf>,
    trace_out: Option<std::path::PathBuf>,
    events_out: Option<std::path::PathBuf>,
    progress: Option<std::time::Duration>,
    telemetry_listen: Option<String>,
}

fn obs_from_flags(args: &[String]) -> Result<ObsFlags, Box<dyn std::error::Error>> {
    if args.iter().any(|a| a == "--trace") {
        maskfrac::obs::set_trace(true);
    }
    let flags = ObsFlags {
        metrics_out: flag_value(args, "--metrics-out").map(std::path::PathBuf::from),
        trace_out: flag_value(args, "--trace-out").map(std::path::PathBuf::from),
        events_out: flag_value(args, "--events-out").map(std::path::PathBuf::from),
        progress: match parsed_flag::<u64>(args, "--progress-ms")? {
            Some(0) => return Err("--progress-ms must be positive".into()),
            ms => ms.map(std::time::Duration::from_millis),
        },
        telemetry_listen: flag_value(args, "--telemetry-listen").map(str::to_owned),
    };
    if flags.trace_out.is_some() || flags.events_out.is_some() {
        maskfrac::obs::set_capture(true);
    }
    Ok(flags)
}

impl ObsFlags {
    /// Starts the live progress sampler when `--progress-ms` was given.
    /// Keep the returned guard alive for the duration of the run.
    fn start_progress(&self, total_shapes: Option<u64>) -> Option<maskfrac::obs::ProgressSampler> {
        self.progress
            .map(|interval| maskfrac::obs::ProgressSampler::start(interval, total_shapes))
    }

    /// Binds the telemetry server when `--telemetry-listen` was given.
    /// Keep the returned guard alive for the duration of the run; the
    /// resolved address is printed so `:0` (ephemeral-port) callers can
    /// discover where to scrape.
    fn start_telemetry(
        &self,
    ) -> Result<Option<maskfrac::obs::TelemetryServer>, Box<dyn std::error::Error>> {
        let Some(addr) = self.telemetry_listen.as_deref() else {
            return Ok(None);
        };
        let server = maskfrac::obs::TelemetryServer::bind(addr)
            .map_err(|e| format!("--telemetry-listen {addr}: {e}"))?;
        println!("telemetry listening on {}", server.local_addr());
        Ok(Some(server))
    }

    /// Flushes captured events to `--trace-out`/`--events-out`, checking
    /// their structural invariants (parent resolution, begin/end pairing,
    /// per-thread timestamp order) first.
    fn flush_events(&self) -> Result<(), Box<dyn std::error::Error>> {
        if self.trace_out.is_none() && self.events_out.is_none() {
            return Ok(());
        }
        let events = maskfrac::obs::event::flush_to_files(
            self.trace_out.as_deref(),
            self.events_out.as_deref(),
        )?;
        maskfrac::obs::event::validate(&events)
            .map_err(|e| format!("event stream failed validation: {e}"))?;
        for path in [self.trace_out.as_deref(), self.events_out.as_deref()]
            .into_iter()
            .flatten()
        {
            println!("wrote {}", path.display());
        }
        Ok(())
    }
}

/// Captures the metrics gathered since `started` into a validated
/// [`maskfrac::obs::RunReport`] and writes it to `path`.
fn write_run_report(
    binary: &str,
    started: std::time::Instant,
    path: &std::path::Path,
    shapes: Vec<maskfrac::obs::ShapeRecord>,
) -> Result<(), Box<dyn std::error::Error>> {
    let report = maskfrac::obs::RunReport::capture(binary, started).with_shapes(shapes);
    report.validate()?;
    report.save(path)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Rejects flags the subcommand does not know, so a typo like
/// `--thread 4` fails loudly instead of being silently ignored.
fn check_flags(args: &[String], allowed: &[&str]) -> Result<(), Box<dyn std::error::Error>> {
    for a in args.iter().filter(|a| a.starts_with("--")) {
        if !allowed.contains(&a.as_str()) {
            return Err(if allowed.is_empty() {
                format!("unknown flag {a} (this subcommand takes no flags)").into()
            } else {
                format!("unknown flag {a} (expected one of: {})", allowed.join(", ")).into()
            });
        }
    }
    Ok(())
}

/// Parses an optional numeric flag, naming the flag and the offending
/// value in the error.
fn parsed_flag<T>(args: &[String], flag: &str) -> Result<Option<T>, Box<dyn std::error::Error>>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match flag_value(args, flag) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<T>()
            .map(Some)
            .map_err(|e| format!("{flag} {raw:?}: {e}").into()),
    }
}

/// Builds the fracture configuration shared by the fracture subcommands,
/// honouring `--deadline-ms`, `--coarse-factor`, `--relaxed-scoring` and
/// `--intensity-backend`.
fn config_from_flags(args: &[String]) -> Result<FractureConfig, Box<dyn std::error::Error>> {
    let mut cfg = FractureConfig::default();
    if let Some(ms) = parsed_flag::<u64>(args, "--deadline-ms")? {
        if ms == 0 {
            return Err("--deadline-ms must be positive".into());
        }
        cfg.deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(k) = parsed_flag::<usize>(args, "--coarse-factor")? {
        if !(1..=4).contains(&k) {
            return Err(format!("--coarse-factor {k} must be in 1..=4").into());
        }
        cfg.coarse_factor = k; // 1 = single-tier (bit-exact legacy path)
    }
    if args.iter().any(|a| a == "--relaxed-scoring") {
        // Lattice-profile scoring: faster candidate evaluation, not
        // byte-identical to the exact tier (see docs/performance.md).
        cfg.relaxed_scoring = true;
    }
    if let Some(backend) = flag_value(args, "--intensity-backend") {
        cfg.intensity_backend = match backend {
            "separable" => maskfrac::fracture::IntensityBackend::Separable,
            "fft" => maskfrac::fracture::IntensityBackend::Fft,
            other => {
                return Err(
                    format!("--intensity-backend {other:?} must be 'separable' or 'fft'").into(),
                )
            }
        };
    }
    Ok(cfg)
}

/// Default worker-thread count for `fracture-layout`: what the machine
/// offers, bounded by the layout cap (1 if parallelism cannot be probed).
fn default_layout_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(maskfrac::mdp::MAX_LAYOUT_THREADS)
}

fn cmd_fracture(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut allowed = vec![
        "--method",
        "--svg",
        "--out",
        "--deadline-ms",
        "--coarse-factor",
        "--relaxed-scoring",
        "--intensity-backend",
    ];
    allowed.extend_from_slice(&OBS_FLAGS);
    check_flags(args, &allowed)?;
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("fracture needs a shape.json path")?;
    let file = ShapeFile::load(path)?;
    let method = flag_value(args, "--method").unwrap_or("ours");
    let cfg = config_from_flags(args)?;
    let obs = obs_from_flags(args)?;
    let _telemetry = obs.start_telemetry()?;
    let started = std::time::Instant::now();

    let fracturer: Box<dyn MaskFracturer> = match method {
        "ours" => {
            // The validating front door: degenerate shapes come back as a
            // typed error naming the shape, not a panic.
            let ours = Ours::new(cfg.clone());
            let result = ours
                .inner()
                .try_fracture(&file.polygon)
                .map_err(|e| format!("shape {:?}: {e}", file.id))?;
            report(&file.id, "ours", &result, args, &file)?;
            emit_shape_report(&file.id, "ours", &result, started, &obs)?;
            return Ok(());
        }
        "gsc" => Box::new(GreedySetCover::new(cfg.clone())),
        "mp" => Box::new(MatchingPursuit::new(cfg.clone())),
        "proto-eda" => Box::new(ProtoEda::new(cfg.clone())),
        "conventional" => Box::new(Conventional::new(cfg.clone())),
        "exact" => {
            // Exhaustive search is not a MaskFracturer-by-default; wrap it.
            let exact = ExhaustiveOptimal::new(cfg.clone());
            let result = exact.run(&file.polygon);
            report(&file.id, "exact", &result, args, &file)?;
            emit_shape_report(&file.id, "exact", &result, started, &obs)?;
            return Ok(());
        }
        other => return Err(format!("unknown method {other:?}").into()),
    };
    let result = fracturer.fracture(&file.polygon);
    report(&file.id, method, &result, args, &file)?;
    emit_shape_report(&file.id, method, &result, started, &obs)
}

/// Finishes the single-shape run: flushes captured events and writes the
/// run report when `--metrics-out` was given.
fn emit_shape_report(
    id: &str,
    method: &str,
    result: &maskfrac::fracture::FractureResult,
    started: std::time::Instant,
    obs: &ObsFlags,
) -> Result<(), Box<dyn std::error::Error>> {
    obs.flush_events()?;
    let Some(path) = obs.metrics_out.as_deref() else {
        return Ok(());
    };
    let shapes = vec![maskfrac::obs::ShapeRecord {
        id: id.to_owned(),
        status: result.status.label().to_owned(),
        method: method.to_owned(),
        shots: result.shot_count(),
        fail_pixels: result.summary.fail_count(),
        runtime_s: result.runtime.as_secs_f64(),
        attempts: 1,
        iterations: result.iterations,
        on_fail_pixels: result.summary.on_fails,
        off_fail_pixels: result.summary.off_fails,
        cache: String::new(),
        deadline_hit: result.deadline_hit,
    }];
    write_run_report("maskfrac", started, path, shapes)
}

fn report(
    id: &str,
    method: &str,
    result: &maskfrac::fracture::FractureResult,
    args: &[String],
    file: &ShapeFile,
) -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{id}: {method} -> {} shots, {} failing pixels, {:.2} s [{}]",
        result.shot_count(),
        result.summary.fail_count(),
        result.runtime.as_secs_f64(),
        result.status
    );
    if let Some(out) = flag_value(args, "--out") {
        let saved = ShapeFile {
            id: format!("{id}:{method}"),
            polygon: file.polygon.clone(),
            shots: result.shots.clone(),
        };
        saved.save(out)?;
        println!("wrote {out}");
    }
    if let Some(svg_path) = flag_value(args, "--svg") {
        let view = file
            .polygon
            .bbox()
            .expand(20)
            .ok_or("shape bbox cannot grow")?;
        let mut canvas = SvgCanvas::new(view, 5.0);
        canvas.polygon(&file.polygon, &Style::filled("#dde6f2"));
        for shot in &result.shots {
            canvas.rect(shot, &Style::outline("#d62728", 0.8));
        }
        std::fs::write(svg_path, canvas.finish())?;
        println!("wrote {svg_path}");
    }
    Ok(())
}

/// Parses the supervised-robustness flags shared semantics: retry
/// budget, checkpoint journal, and the crash-injection fault plan used
/// by the kill-and-resume tests.
fn layout_options_from_flags(
    args: &[String],
) -> Result<maskfrac::mdp::LayoutOptions, Box<dyn std::error::Error>> {
    let mut options = maskfrac::mdp::LayoutOptions::default();
    if let Some(retries) = parsed_flag::<u32>(args, "--retries")? {
        options.retry = maskfrac::fracture::RetryPolicy::with_retries(retries);
    }
    if let Some(multiple) = parsed_flag::<u32>(args, "--hung-multiple")? {
        options.hung_shape_multiple = multiple; // 0 disables the watchdog
    }
    if let Some(samples) = parsed_flag::<usize>(args, "--watchdog-min-samples")? {
        options.watchdog_min_samples = samples;
    }
    options.geom_cache = flag_value(args, "--geom-cache").map(std::path::PathBuf::from);
    Ok(options)
}

/// Arms the fault-injection plan requested by `--fault-rate` /
/// `--fault-crash-rate` (keyed by `--fault-seed`, default 0). Returns
/// the scope guard keeping the plan armed, or `None` when no fault flag
/// was given.
fn fault_scope_from_flags(
    args: &[String],
) -> Result<Option<maskfrac::fracture::faults::FaultScope>, Box<dyn std::error::Error>> {
    let rate = parsed_flag::<f64>(args, "--fault-rate")?;
    let crash = parsed_flag::<f64>(args, "--fault-crash-rate")?;
    if rate.is_none() && crash.is_none() {
        return Ok(None);
    }
    for (flag, value) in [("--fault-rate", rate), ("--fault-crash-rate", crash)] {
        if let Some(v) = value {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{flag} {v} must be within [0, 1]").into());
            }
        }
    }
    let seed = parsed_flag::<u64>(args, "--fault-seed")?.unwrap_or(0);
    let plan = maskfrac::fracture::FaultPlan::uniform(seed, rate.unwrap_or(0.0))
        .with_crash_rate(crash.unwrap_or(0.0));
    Ok(Some(maskfrac::fracture::faults::arm_scoped(plan)))
}

fn cmd_fracture_layout(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut allowed = vec![
        "--threads",
        "--coarse-factor",
        "--relaxed-scoring",
        "--intensity-backend",
        "--deadline-ms",
        "--checkpoint",
        "--resume",
        "--retries",
        "--hung-multiple",
        "--watchdog-min-samples",
        "--geom-cache",
        "--fault-seed",
        "--fault-rate",
        "--fault-crash-rate",
    ];
    allowed.extend_from_slice(&OBS_FLAGS);
    check_flags(args, &allowed)?;
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("fracture-layout needs a layout.txt path")?;
    let threads =
        parsed_flag::<usize>(args, "--threads")?.unwrap_or_else(default_layout_threads);
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if threads > maskfrac::mdp::MAX_LAYOUT_THREADS {
        return Err(format!(
            "--threads {threads} exceeds the cap of {}",
            maskfrac::mdp::MAX_LAYOUT_THREADS
        )
        .into());
    }
    let checkpoint = flag_value(args, "--checkpoint").map(|p| maskfrac::mdp::CheckpointOptions {
        path: std::path::PathBuf::from(p),
        resume: args.iter().any(|a| a == "--resume"),
    });
    if checkpoint.is_none() && args.iter().any(|a| a == "--resume") {
        return Err("--resume needs --checkpoint <path>".into());
    }
    // Bind the telemetry endpoint before the (potentially slow) layout
    // load so scrapers can attach from the very start of the run.
    let obs = obs_from_flags(args)?;
    let _telemetry = obs.start_telemetry()?;
    let layout = maskfrac::mdp::load_layout(path)?;
    println!(
        "layout {:?}: {} shapes, {} instances",
        layout.name,
        layout.shape_count(),
        layout.instance_count()
    );
    let cfg = config_from_flags(args)?;
    let mut options = layout_options_from_flags(args)?;
    options.threads = threads;
    let _faults = fault_scope_from_flags(args)?;
    let started = std::time::Instant::now();
    let progress = obs.start_progress(Some(layout.shape_count() as u64));
    let report = match &checkpoint {
        Some(checkpoint) => {
            maskfrac::mdp::fracture_layout_journaled(&layout, &cfg, &options, checkpoint)?
        }
        None => maskfrac::mdp::fracture_layout_opts(&layout, &cfg, &options),
    };
    if let Some(sampler) = progress {
        sampler.stop();
    }
    obs.flush_events()?;
    if let Some(path) = obs.metrics_out.as_deref() {
        let shapes = report.per_shape.iter().map(|s| s.ledger_record()).collect();
        write_run_report("maskfrac", started, path, shapes)?;
    }
    for s in &report.per_shape {
        println!(
            "  {:16} {:>4} shots/instance x {:>5} instances ({} failing px, {:.2} s) [{} via {}]",
            s.shape, s.shots_per_instance, s.instances, s.fail_pixels, s.runtime_s,
            s.status, s.method
        );
        if let Some(cause) = &s.error {
            println!("    note: {cause}");
        }
    }
    if options.geom_cache.is_some() {
        // The same totals land in --metrics-out as mdp.geomcache.*.
        println!(
            "geometry cache: {} hits, {} misses, {} writes, {} write failures",
            maskfrac::obs::counter("mdp.geomcache.hits").get(),
            maskfrac::obs::counter("mdp.geomcache.misses").get(),
            maskfrac::obs::counter("mdp.geomcache.writes").get(),
            maskfrac::obs::counter("mdp.geomcache.write_failures").get(),
        );
    }
    let total = report.total_shots() as u64;
    let wt = maskfrac::mdp::WriteTimeModel::default().estimate(total);
    println!(
        "total {total} shots -> estimated write time {:.2} s beam + {:.2} s stage",
        wt.beam_s, wt.stage_s
    );
    println!("layout status: {}", report.worst_status());
    let failed: Vec<&str> = report
        .per_shape
        .iter()
        .filter(|s| !s.status.is_usable())
        .map(|s| s.shape.as_str())
        .collect();
    if !failed.is_empty() {
        return Err(format!("fracturing failed for shape(s): {}", failed.join(", ")).into());
    }
    Ok(())
}

fn cmd_generate_ilt(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags(args, &["--seed", "--radius"])?;
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("generate-ilt needs an output path")?;
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(0);
    let radius: f64 = parsed_flag(args, "--radius")?.unwrap_or(45.0);
    let clip = generate_ilt_clip(&IltParams {
        base_radius: radius,
        seed,
        ..IltParams::default()
    });
    let file = ShapeFile {
        id: format!("ilt-seed{seed}"),
        polygon: clip,
        shots: Vec::new(),
    };
    file.save(path)?;
    println!(
        "wrote {path} ({} vertices, bbox {})",
        file.polygon.len(),
        file.polygon.bbox()
    );
    Ok(())
}

fn cmd_generate_benchmark(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags(args, &["--seed", "--shots"])?;
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("generate-benchmark needs an output path")?;
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(0);
    let shots: usize = parsed_flag(args, "--shots")?.unwrap_or(5);
    let cfg = FractureConfig::default();
    let shape = generate_benchmark(
        &cfg.model(),
        &GeneratedParams {
            shots,
            seed,
            ..GeneratedParams::default()
        },
    );
    let file = ShapeFile {
        id: format!("generated-k{shots}-seed{seed}"),
        polygon: shape.polygon,
        shots: shape.generating_shots,
    };
    file.save(path)?;
    println!("wrote {path} (known achievable shot count: {shots})");
    Ok(())
}

/// Independently re-simulates the shots stored in a shape file.
fn cmd_verify(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags(args, &[])?;
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("verify needs a shape.json path containing shots")?;
    let file = ShapeFile::load(path)?;
    if file.shots.is_empty() {
        return Err(format!("{path} carries no shots to verify").into());
    }
    let cfg = FractureConfig::default();
    let summary = maskfrac::fracture::verify_shots(&file.polygon, &file.shots, &cfg);
    println!(
        "{}: {} shots -> {} failing pixels ({} on, {} off), cost {:.4} => {}",
        file.id,
        file.shots.len(),
        summary.fail_count(),
        summary.on_fails,
        summary.off_fails,
        summary.cost,
        if summary.is_feasible() { "FEASIBLE" } else { "INFEASIBLE" }
    );
    Ok(())
}

/// Writes every suite instance as a shape JSON under a directory — the
/// repository's equivalent of the benchmarking website's downloads.
fn cmd_export_suite(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("benchmarks");
    std::fs::create_dir_all(dir)?;
    let mut count = 0;
    for clip in maskfrac::shapes::ilt_suite() {
        let file = ShapeFile {
            id: clip.id.clone(),
            polygon: clip.polygon,
            shots: Vec::new(),
        };
        file.save(format!("{dir}/{}.json", clip.id.to_lowercase()))?;
        count += 1;
    }
    let model = FractureConfig::default().model();
    for clip in maskfrac::shapes::generated_suite(&model) {
        let file = ShapeFile {
            id: clip.id.clone(),
            polygon: clip.polygon,
            shots: clip.generating_shots, // the known-feasible solution
        };
        file.save(format!("{dir}/{}.json", clip.id.to_lowercase()))?;
        count += 1;
    }
    println!("wrote {count} suite instances under {dir}/");
    Ok(())
}

fn cmd_suite() -> Result<(), Box<dyn std::error::Error>> {
    println!("ILT suite:");
    for clip in maskfrac::shapes::ilt_suite() {
        println!(
            "  {:8} {:4} vertices, bbox {} (paper LB/UB {}/{})",
            clip.id,
            clip.polygon.len(),
            clip.polygon.bbox(),
            clip.reference.lower_bound,
            clip.reference.upper_bound
        );
    }
    println!("generated suite:");
    let model = FractureConfig::default().model();
    for clip in maskfrac::shapes::generated_suite(&model) {
        println!(
            "  {:8} optimal {:3}, {:4} vertices, bbox {}",
            clip.id,
            clip.optimal,
            clip.polygon.len(),
            clip.polygon.bbox()
        );
    }
    Ok(())
}
