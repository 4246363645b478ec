//! Layer-by-layer benchmark of the Chimera workspace.
//!
//! ```text
//! perfbench --workload <splash-record|server-record|hybrid-loop>
//!           [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//! ```
//!
//! One process, one thread, one closed-loop client. The last line of
//! standard output is a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Standard error carries the same metrics per
//! program and the workload's exact-counter fingerprint. See README.md.

mod book;
mod calib;
mod ops;

use book::{mean, quantile, ratio, Book, Books, Exact, Group};
use calib::Calib;
use ops::{certify_op, mix, record_op, setup, CertifyTarget, Spec, Target, WORKLOADS};
use std::fmt::Write as _;
use std::time::Instant;

/// Set-up repetitions per run, spread evenly across it.
const SETUP_REPS: u32 = 20;
/// Share of a record workload's run that its certify passes take. A pass
/// runs whenever they have taken less, so passes spread across the run, and
/// short passes (server programs) yield more samples than long ones.
const CERTIFY_SHARE: f64 = 0.18;
/// Certify passes a record workload runs at least.
const MIN_CERTIFY_PASSES: u32 = 10;
/// Seed slots record rounds cycle through. A program's wall time may depend
/// on its execution seed at a fixed instruction count, so every run
/// averages over many seeds; the cycle lets each slot repeat, so that its
/// exact counters can be checked.
const SLOTS: u32 = 32;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

const USAGE: &str = "usage: perfbench --workload <splash-record|server-record|hybrid-loop> \
                     [--seed N] [--seconds S] [--trace 0|1] [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// One named metric of the report.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Mutable state of one benchmark run.
struct Run {
    seed: u64,
    /// Groups with tracing on (per-layer metrics) and off (end-to-end).
    traced: Books,
    plain: Books,
    exact: Exact,
    calib: Calib,
    attempted: u64,
    failed: u64,
    record_rounds: u32,
}

impl Run {
    /// File a group, each operation's times scaled by the reference
    /// samples around it (one more is taken first, after the last one).
    fn close(&mut self, g: Group) {
        self.calib.tick();
        let scales: Vec<f64> = g
            .ops()
            .iter()
            .map(|&(s, e)| self.calib.scale(s, e))
            .collect();
        if g.traced {
            self.traced.close(g, &scales);
        } else {
            self.plain.close(g, &scales);
        }
    }

    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// One set-up repetition over every program of the workload.
    fn setup_rep(&mut self, spec: &Spec, traced: bool) -> Vec<Option<chimera::Analysis>> {
        let mut g = Group::new(traced);
        let out = spec
            .setup
            .iter()
            .map(|(w, p)| {
                self.calib.tick();
                g.begin();
                let a = setup(w, p, &mut g, &mut self.exact);
                g.end();
                if let Err(e) = &a {
                    eprintln!("set-up failed: {e}");
                }
                self.count(a.is_ok());
                a.ok()
            })
            .collect();
        self.close(g);
        out
    }

    /// One certify pass; returns each program's planned variant.
    fn certify_pass(
        &mut self,
        targets: &[CertifyTarget],
        traced: bool,
        pass: u64,
    ) -> Vec<Option<chimera::minic::ir::Program>> {
        let mut g = Group::new(traced);
        let out = targets
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.calib.tick();
                let verify_seed = mix(self.seed, 2, pass % u64::from(SLOTS));
                g.begin();
                let planned = certify_op(c, verify_seed, pass + i as u64, &mut g, &mut self.exact);
                g.end();
                self.count(planned.is_some());
                planned
            })
            .collect();
        self.close(g);
        out
    }

    /// One record round: every target once, at the seeds of the next slot.
    fn record_round(&mut self, targets: &[Target], traced: bool) {
        let slot = self.record_rounds % SLOTS;
        self.record_rounds += 1;
        let mut g = Group::new(traced);
        for (i, t) in targets.iter().enumerate() {
            self.calib.tick();
            let seed = mix(self.seed, 3 + u64::from(slot), i as u64);
            g.begin();
            let ok = record_op(t, seed, slot, &mut g, &mut self.exact);
            g.end();
            self.count(ok);
        }
        self.close(g);
    }
}

fn run(spec: &Spec, args: &Args) -> Result<Run, String> {
    let mut run = Run {
        seed: args.seed,
        traced: Books::default(),
        plain: Books::default(),
        exact: Exact::default(),
        calib: Calib::new(),
        attempted: 0,
        failed: 0,
        record_rounds: 0,
    };
    let start = Instant::now();
    let analyses: Vec<chimera::Analysis> = run
        .setup_rep(spec, args.trace)
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("set-up failed")?;
    let names: Vec<&'static str> = spec.setup.iter().map(|(w, _)| w.name).collect();
    // Hybrid-loop certifies the programs it set up and records their
    // planned variants; the record workloads record their set-up programs
    // fully instrumented and certify eval-scale variants, built once here.
    let (certify_targets, mut targets) = if spec.hybrid {
        let certify: Vec<CertifyTarget> = names
            .iter()
            .zip(analyses)
            .map(|(&name, analysis)| CertifyTarget { name, analysis })
            .collect();
        (certify, Vec::new())
    } else {
        let record: Vec<Target> = names
            .iter()
            .zip(analyses)
            .map(|(&name, a)| Target {
                name,
                original: a.program,
                instrumented: a.instrumented,
            })
            .collect();
        let mut scratch = Exact::default();
        let certify = spec
            .certify
            .iter()
            .map(|(w, p)| {
                let analysis = setup(w, p, &mut Group::new(false), &mut scratch)?;
                Ok(CertifyTarget {
                    name: w.name,
                    analysis,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        (certify, record)
    };

    // Hybrid-loop records its planned programs four times per certify
    // pass, so that a run yields over 100 record and replay samples.
    let record_rounds = if spec.hybrid { 4 } else { 1 };
    let (mut setups, mut passes, mut round) = (1u32, 0u32, 0u64);
    let mut certify_wall = 0.0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let due = |done: u32, of: u32| {
            done < of && elapsed >= args.seconds * f64::from(done) / f64::from(of)
        };
        let traced = args.trace && round % 2 == 0;
        if due(setups, SETUP_REPS) {
            run.setup_rep(spec, args.trace && setups % 2 == 0);
            setups += 1;
        }
        if spec.hybrid {
            let planned = run.certify_pass(&certify_targets, traced, round);
            targets = certify_targets
                .iter()
                .zip(planned)
                .filter_map(|(c, p)| {
                    Some(Target {
                        name: c.name,
                        original: c.analysis.program.clone(),
                        instrumented: p?,
                    })
                })
                .collect();
        } else if certify_wall <= CERTIFY_SHARE * elapsed
            || (elapsed >= args.seconds && passes < MIN_CERTIFY_PASSES)
        {
            let t = Instant::now();
            run.certify_pass(
                &certify_targets,
                args.trace && passes % 2 == 0,
                u64::from(passes),
            );
            certify_wall += t.elapsed().as_secs_f64();
            passes += 1;
        }
        for _ in 0..record_rounds {
            run.record_round(&targets, traced);
        }
        round += 1;
        let finished = start.elapsed().as_secs_f64() >= args.seconds
            && round >= 2
            && run.record_rounds >= SLOTS
            && setups == SETUP_REPS
            && (spec.hybrid || passes >= MIN_CERTIFY_PASSES);
        if finished {
            return Ok(run);
        }
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Model overhead (record / baseline virtual makespan), averaged over the
/// recordings of one program or all.
fn model_overhead(ex: &Exact, prog: Option<&str>) -> f64 {
    let rec = ex.values(prog, "rec_cycles");
    let base = ex.values(prog, "base_cycles");
    let ratios: Vec<f64> = rec
        .iter()
        .zip(&base)
        .map(|(&r, &b)| ratio(r as f64, b as f64))
        .collect();
    mean(&ratios)
}

/// The end-to-end metrics, from untraced groups.
///
/// Timings of record rounds (over 100 per run) are 10th percentiles, not
/// medians: a busy neighbour on the host only ever slows an operation, so
/// the fast end of a run's distribution holds the least disturbed samples.
/// Set-up repetitions and certify passes are too few for that and report
/// medians. See README.md, "Steadiness".
fn end_to_end(b: &Book, ex: &Exact, prog: Option<&str>) -> Vec<Metric> {
    let bytes: Vec<f64> = ex
        .values(prog, "log_bytes")
        .iter()
        .map(|&v| v as f64)
        .collect();
    vec![
        m("setup_s", "s", b.median("setup_s")),
        m("baseline_ms.p10", "ms", b.p10("base_ms")),
        m("record_ms.p10", "ms", b.p10("rec_ms")),
        m("replay_ms.p10", "ms", b.p10("rep_ms")),
        m("record_overhead_model", "x", model_overhead(ex, prog)),
        m("log_bytes", "B", mean(&bytes)),
        m("certify_s", "s", b.median("certify_s")),
        m(
            "cells_per_s",
            "1/s",
            ratio(b.median("cells"), b.median("gather_s")),
        ),
    ]
}

/// Median over groups of `num / den`, both summed within each group.
fn per_group(b: &Book, num: &str, den: &str) -> f64 {
    let (Some(n), Some(d)) = (b.samples.get(num), b.samples.get(den)) else {
        return 0.0;
    };
    let r: Vec<f64> = n.iter().zip(d).map(|(&x, &y)| ratio(x, y)).collect();
    quantile(&r, 0.5)
}

/// The per-layer metrics, from traced groups (`plain` only for the
/// tracing overhead).
fn per_layer(b: &Book, plain: &Book, ex: &Exact, prog: Option<&str>) -> Vec<Metric> {
    let ms = |key: &str| b.median(key);
    let ns = |num: &str, den: &str| 1e6 * per_group(b, num, den);
    let count = |key: &str| ex.sum(prog, key);
    let per_round = |key: &str| ex.sum(prog, key) / f64::from(SLOTS);
    let wall = per_group(b, "record_ms", "base_ms");
    let core = |b: &Book| {
        b.median("base_ms") + b.median("rec_ms") + b.median("rep_ms") + 1e3 * b.median("certify_s")
    };
    vec![
        m("minic.compile_ms", "ms", ms("compile_ms")),
        m("minic.ir_instrs", "count", count("ir_instrs")),
        m("pta.andersen_ms", "ms", ms("andersen_ms")),
        m("pta.steensgaard_ms", "ms", ms("steensgaard_ms")),
        m("relay.detect_ms", "ms", ms("relay_ms")),
        m("relay.race_pairs", "count", count("race_pairs")),
        m("profile.runs_ms", "ms", ms("profile_ms")),
        m(
            "profile.concurrent_pairs",
            "count",
            count("concurrent_pairs"),
        ),
        m("instrument.plan_ms", "ms", ms("plan_ms")),
        m("instrument.rewrite_ms", "ms", ms("rewrite_ms")),
        m("instrument.sites.func", "count", count("sites_func")),
        m("instrument.sites.loop", "count", count("sites_loop")),
        m("instrument.sites.bb", "count", count("sites_bb")),
        m("instrument.sites.instr", "count", count("sites_instr")),
        m(
            "runtime.baseline_ns_per_instr",
            "ns/instr",
            ns("base_ms", "base_instrs"),
        ),
        m(
            "runtime.batch_run_len",
            "ops",
            ratio(b.total("batched_ops"), b.total("batch_runs")),
        ),
        m(
            "runtime.fused_share",
            "share",
            ratio(2.0 * b.total("fused_ops"), b.total("base_instrs")),
        ),
        m(
            "runtime.spec_commit_ratio",
            "share",
            ratio(
                b.total("spec_rounds"),
                b.total("spec_rounds") + b.total("spec_discards"),
            ),
        ),
        m(
            "replay.record_ns_per_instr",
            "ns/instr",
            ns("record_ms", "rec_instrs"),
        ),
        m("replay.events", "count", per_round("events")),
        m("replay.chunks", "count", per_round("chunks")),
        m("replay.checkpoints", "count", per_round("checkpoints")),
        m("replay.encode_ms", "ms", ms("encode_ms")),
        m("replay.decode_ms", "ms", ms("decode_ms")),
        m(
            "replay.replay_ns_per_instr",
            "ns/instr",
            ns("replay_ms", "rep_instrs"),
        ),
        m("replay.verify_ms", "ms", ms("verify_ms")),
        m("replay.weak_acquires", "count", per_round("weak_acquires")),
        m(
            "replay.weak_wait_mcycles",
            "Mcycles",
            per_round("weak_wait") / 1e6,
        ),
        m(
            "replay.weak_log_mcycles",
            "Mcycles",
            per_round("weak_log") / 1e6,
        ),
        m(
            "replay.forced_releases",
            "count",
            per_round("forced_releases"),
        ),
        m("replay.record_overhead_wall", "x", wall),
        m(
            "replay.model_wall_gap",
            "x",
            ratio(wall, model_overhead(ex, prog)),
        ),
        m("drd.detect_ms", "ms", ms("drd_ms")),
        m("drd.ns_per_instr", "ns/instr", ns("drd_ms", "drd_instrs")),
        m("fleet.cell_ms", "ms", ms("cell_ms")),
        m(
            "fleet.preemptions_per_cell",
            "count",
            ratio(count("preemptions"), count("cells")),
        ),
        m(
            "fleet.clean_share",
            "share",
            ratio(count("clean_cells"), count("cells")),
        ),
        m("plan.gather_ms", "ms", ms("gather_ms")),
        m("plan.demote_ms", "ms", ms("demote_ms")),
        m("plan.apply_ms", "ms", ms("apply_ms")),
        m("plan.verify_ms", "ms", ms("plan_verify_ms")),
        m("plan.pairs_demoted", "count", count("demoted_pairs")),
        m("plan.pairs_kept", "count", count("kept_pairs")),
        m("trace.overhead_ratio", "x", ratio(core(b), core(plain))),
    ]
}

fn json_metrics(ms: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, x) in ms.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if x.value.is_finite() { x.value } else { 0.0 };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            x.name, x.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push('}');
    s
}

extern "C" {
    /// glibc's allocator tuning call.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keep freed heap memory in the process. With glibc's defaults, server
/// recordings return memory to the kernel and fault it back in: 60-550
/// page faults per operation, each kernel work on a shared host that the
/// benchmark does not mean to time. Kept, they drop to almost none after
/// the first operations.
fn keep_heap() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets allocator parameters, and runs before this
    // process allocates from any other thread (it has none).
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

fn main() {
    keep_heap();
    // One thread: the workspace's parallel helpers fall back to serial loops.
    std::env::set_var("CHIMERA_SERIAL", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = Spec::named(&args.workload, args.tiny).expect("workload name was checked");
    let run = match run(&spec, &args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let empty = Book::default();
    let (reference_ms, references) = run.calib.summary();
    eprintln!(
        "calibration: reference kernel median {reference_ms:.4} ms over {references} samples"
    );

    // Per-program breakdown and fingerprint on standard error.
    let mut per_program = String::from("{");
    let books = if args.trace { &run.traced } else { &run.plain };
    for (i, (prog, b)) in books.progs.iter().enumerate() {
        let metrics = if args.trace {
            let plain = run.plain.progs.get(prog).unwrap_or(&empty);
            per_layer(b, plain, &run.exact, Some(prog))
        } else {
            end_to_end(b, &run.exact, Some(prog))
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(per_program, "{sep}\"{prog}\": {}", json_metrics(&metrics))
            .expect("writing to a String cannot fail");
    }
    per_program.push('}');
    eprintln!("per_program {per_program}");
    let fingerprint: Vec<String> = run
        .exact
        .fingerprint()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    eprintln!("fingerprint {{{}}}", fingerprint.join(", "));
    let counts: Vec<String> = ["setup_s", "certify_s", "base_ms", "rec_ms", "rep_ms"]
        .iter()
        .map(|k| format!("{k} {}", books.all.count(k)))
        .collect();
    eprintln!("samples {}", counts.join(", "));
    if books.all.count("rec_ms") < 100 {
        eprintln!("warning: under 100 record rounds, so fewer than 10 samples lie below p10");
    }
    for miss in &run.exact.mismatches {
        eprintln!("exact counter changed: {miss}");
    }

    let metrics = if args.trace {
        per_layer(&run.traced.all, &run.plain.all, &run.exact, None)
    } else {
        let mut e = end_to_end(&run.plain.all, &run.exact, None);
        let done = run.attempted - run.failed;
        e.push(m(
            "success_rate",
            "share",
            ratio(done as f64, run.attempted as f64),
        ));
        e.push(m("peak_rss_mb", "MiB", peak_rss_mib()));
        e
    };
    let correct = run.failed == 0 && run.exact.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        json_metrics(&metrics)
    );
}
