//! Workloads and the operations they run, each a chain of calls into the
//! workspace's public layer functions.

use crate::book::{Exact, Group};
use chimera::drd::detect;
use chimera::fleet::cell::{program_digest, resolve_strategy, run_cell};
use chimera::instrument::{apply, plan, plan_site_counts, OptSet};
use chimera::minic::ir::{LockGranularity, Program};
use chimera::profile::profile_runs;
use chimera::pta::{Andersen, ObjectTable, Steensgaard};
use chimera::relay::detect_races;
use chimera::replay::{record, replay, verify_determinism, ReplayLogs};
use chimera::runtime::{execute, ExecConfig, SchedStrategy};
use chimera::workloads::{by_name, Params, Workload};
use chimera::{apply_plan, demote, gather_evidence, verify_under_plan, Analysis, GatherConfig};
use chimera::{PipelineConfig, Thresholds};
use std::time::{Duration, Instant};

/// Worker threads every program runs with.
const WORKERS: u32 = 4;

/// One benchmark workload: the programs its record rounds run and the
/// programs its certify passes run.
pub struct Spec {
    /// Programs the set-up repetitions build, with their scale.
    pub setup: Vec<(Workload, Params)>,
    /// Programs certify passes run, at eval scale. For hybrid-loop these
    /// are the set-up programs themselves, and record rounds run the
    /// planned programs; otherwise record rounds run the set-up programs
    /// fully instrumented, and certify passes are spread across the run.
    pub certify: Vec<(Workload, Params)>,
    pub hybrid: bool,
}

/// Workload names, in the order the usage line lists them.
pub const WORKLOADS: [&str; 3] = ["splash-record", "server-record", "hybrid-loop"];

// Record-workload scales: no program dominates a splash round (7-12 ms to
// record each), and every server recording holds about 9k ordered events
// (34-37 v2 chunks) while a 30-second run still completes over 100 rounds.
const SPLASH: [(&str, u32); 4] = [("ocean", 20), ("water", 10), ("fft", 160), ("radix", 40)];
const SERVER: [(&str, u32); 4] = [
    ("apache", 210),
    ("knot", 280),
    ("pfscan", 320),
    ("aget", 720),
];

/// The listed programs at their scale, or at eval scale if `!scaled`.
fn programs(list: &[(&str, u32)], scaled: bool) -> Vec<(Workload, Params)> {
    list.iter()
        .map(|&(name, scale)| {
            let w = by_name(name).expect("workload exists");
            let mut p = w.eval_params(WORKERS);
            if scaled {
                p.scale = scale;
            }
            (w, p)
        })
        .collect()
}

impl Spec {
    /// The named workload. `tiny` runs every program at its eval scale.
    pub fn named(name: &str, tiny: bool) -> Option<Spec> {
        let record = |list: &[(&str, u32)]| Spec {
            setup: programs(list, !tiny),
            certify: programs(list, false),
            hybrid: false,
        };
        match name {
            "splash-record" => Some(record(&SPLASH)),
            "server-record" => Some(record(&SERVER)),
            "hybrid-loop" => {
                let all: Vec<(&str, u32)> = chimera::workloads::all()
                    .iter()
                    .map(|w| (w.name, 0))
                    .collect();
                Some(Spec {
                    setup: programs(&all, false),
                    certify: programs(&all, false),
                    hybrid: true,
                })
            }
            _ => None,
        }
    }
}

/// A program ready to record: the original and the variant that records.
pub struct Target {
    pub name: &'static str,
    pub original: Program,
    pub instrumented: Program,
}

/// What certify needs of one program.
pub struct CertifyTarget {
    pub name: &'static str,
    pub analysis: Analysis,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A deterministic 64-bit mix (SplitMix64 finaliser) of the workload seed
/// and two small indices; every execution seed of a run comes from here.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Source to instrumented program for one workload program: compile,
/// profile, RELAY, plan and rewrite — the calls `chimera::analyze` makes,
/// made one by one so a traced group can time each layer. Points-to
/// analysis runs inside RELAY; a traced group times it again on its own as
/// a probe, outside the set-up time.
pub fn setup(w: &Workload, p: &Params, g: &mut Group, ex: &mut Exact) -> Result<Analysis, String> {
    let name = w.name;
    let cfg = PipelineConfig::default();
    let t0 = Instant::now();
    let program = w.compile(p).map_err(|e| format!("{name}: {e}"))?;
    let t1 = Instant::now();
    let profile = profile_runs(&program, &cfg.exec, &cfg.profile_seeds);
    let t2 = Instant::now();
    let races = detect_races(&program);
    let t3 = Instant::now();
    let plan = plan(&program, &races, &profile, &cfg.opts);
    let t4 = Instant::now();
    let instrumented = apply(&program, &plan);
    let t5 = Instant::now();
    g.push(name, "setup_s", (t5 - t0).as_secs_f64());
    g.span(name, "compile_ms", ms(t1 - t0));
    g.span(name, "profile_ms", ms(t2 - t1));
    g.span(name, "relay_ms", ms(t3 - t2));
    g.span(name, "plan_ms", ms(t4 - t3));
    g.span(name, "rewrite_ms", ms(t5 - t4));
    if g.traced {
        let objects = ObjectTable::build(&program);
        let t = Instant::now();
        std::hint::black_box(Andersen::analyze(&program, &objects));
        g.span(name, "andersen_ms", ms(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(Steensgaard::analyze(&program, &objects));
        g.span(name, "steensgaard_ms", ms(t.elapsed()));
    }

    let ir_instrs: usize = program
        .funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.instrs.len())
        .sum();
    let sites = plan_site_counts(&plan);
    let site = |gran| sites.get(&gran).copied().unwrap_or(0) as u64;
    let mut same = true;
    for (key, v) in [
        ("ir_instrs", ir_instrs as u64),
        ("race_pairs", races.pairs.len() as u64),
        ("concurrent_pairs", profile.concurrent.len() as u64),
        ("sites_func", site(LockGranularity::Function)),
        ("sites_loop", site(LockGranularity::Loop)),
        ("sites_bb", site(LockGranularity::BasicBlock)),
        ("sites_instr", site(LockGranularity::Instruction)),
        ("weak_locks", instrumented.weak_locks as u64),
        ("instrumented_digest", program_digest(&instrumented)),
    ] {
        same &= ex.check(name, 0, key, v);
    }
    if !same {
        return Err(format!("{name}: set-up produced a different program"));
    }
    Ok(Analysis {
        program,
        instrumented,
        races,
        profile,
        plan,
    })
}

/// Record one program and replay it: baseline → record → encode → decode
/// → replay at a hostile seed → verify. Returns whether every check held.
pub fn record_op(t: &Target, seed: u64, slot: u32, g: &mut Group, ex: &mut Exact) -> bool {
    let name = t.name;
    let cfg = ExecConfig {
        seed,
        ..ExecConfig::default()
    };
    let hostile = ExecConfig {
        seed: mix(seed, 1, 1),
        ..cfg
    };
    let t0 = Instant::now();
    let base = execute(&t.original, &cfg);
    let t1 = Instant::now();
    let rec = record(&t.instrumented, &cfg);
    let t2 = Instant::now();
    let bytes = rec.logs.to_bytes();
    let t3 = Instant::now();
    let decoded = ReplayLogs::from_bytes(&bytes);
    let t4 = Instant::now();
    let Ok(logs) = decoded else {
        eprintln!("{name}: recorded log does not decode");
        return false;
    };
    let rep = replay(&t.instrumented, &logs, &hostile);
    let t5 = Instant::now();
    let verdict = verify_determinism(&rec.result, &rep.result);
    let t6 = Instant::now();

    g.push(name, "base_ms", ms(t1 - t0));
    g.push(name, "rec_ms", ms(t3 - t1));
    g.push(name, "rep_ms", ms(t6 - t3));
    g.span(name, "record_ms", ms(t2 - t1));
    g.span(name, "encode_ms", ms(t3 - t2));
    g.span(name, "decode_ms", ms(t4 - t3));
    g.span(name, "replay_ms", ms(t5 - t4));
    g.span(name, "verify_ms", ms(t6 - t5));
    let perf = base.stats.vm;
    g.span(name, "base_instrs", base.stats.instrs as f64);
    g.span(name, "rec_instrs", rec.result.stats.instrs as f64);
    g.span(name, "rep_instrs", rep.result.stats.instrs as f64);
    g.span(name, "fused_ops", perf.fused_ops as f64);
    g.span(name, "batch_runs", perf.batch_runs as f64);
    g.span(name, "batched_ops", perf.batched_ops as f64);
    g.span(name, "spec_rounds", perf.spec_rounds as f64);
    g.span(name, "spec_discards", perf.spec_discards as f64);

    let s = &rec.result.stats;
    let mut ok = base.outcome.is_exit() && logs == rec.logs && rep.complete && verdict.equivalent;
    if !ok {
        eprintln!(
            "{name}: seed {seed}: record/replay check failed: {}",
            verdict.differences.join("; ")
        );
    }
    for (key, v) in [
        ("base_cycles", base.makespan),
        ("base_instrs", base.stats.instrs),
        ("rec_cycles", rec.result.makespan),
        ("rec_instrs", s.instrs),
        ("rep_cycles", rep.result.makespan),
        ("rep_instrs", rep.result.stats.instrs),
        ("events", logs.journal.len() as u64),
        ("chunks", logs.chunk_count() as u64),
        ("checkpoints", logs.checkpoints.len() as u64),
        ("log_bytes", bytes.len() as u64),
        ("weak_acquires", s.total_weak_acquires()),
        ("weak_wait", s.weak_wait.values().sum()),
        ("weak_log", s.weak_log_cycles.values().sum()),
        ("forced_releases", s.forced_releases),
    ] {
        ok &= ex.check(name, slot, key, v);
    }
    ok
}

/// The evidence sweep of the hybrid loop: PCT(3) and preemption-bounded
/// schedules at the default evidence seeds, one worker.
///
/// The sweep's seeds stay fixed for every workload seed: evidence is the
/// input demotion certifies, and the expected partition (pfscan keeps its
/// 2 confirmed pairs) holds for this sweep. Coverage is not proof: a sweep
/// at other seeds can miss pfscan's race and demote all six pairs, which
/// is the gap guarded demotion is meant to close.
fn gather_config() -> GatherConfig {
    GatherConfig {
        strategies: vec![SchedStrategy::pct(3), SchedStrategy::preempt_bound()],
        jobs: 1,
        ..GatherConfig::default()
    }
}

/// Weak-lock pairs the hostile sweep confirms as real races, and which
/// demotion must therefore keep.
fn expected_kept(name: &str) -> usize {
    if name == "pfscan" {
        2
    } else {
        0
    }
}

/// Certify one program: gather_evidence → demote → apply_plan →
/// verify_under_plan. Returns the planned program, or `None` when a step
/// failed or the demotion partition is not the expected one.
pub fn certify_op(
    c: &CertifyTarget,
    verify_seed: u64,
    probe: u64,
    g: &mut Group,
    ex: &mut Exact,
) -> Option<Program> {
    let name = c.name;
    let a = &c.analysis;
    let gcfg = gather_config();
    let statics: Vec<_> = a.races.pairs.iter().map(|p| (p.a, p.b)).collect();
    let verify_cfg = ExecConfig {
        seed: verify_seed,
        ..ExecConfig::default()
    };
    let t0 = Instant::now();
    let ev = gather_evidence(name, &a.program, &a.instrumented, &statics, &gcfg);
    let t1 = Instant::now();
    let certified = demote(&ev, &Thresholds::default()).map_err(|r| r.to_string());
    let t2 = Instant::now();
    let applied = certified
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|plan| apply_plan(&a.program, &a.races, &a.profile, &OptSet::all(), plan));
    let t3 = Instant::now();
    let verified = match (&certified, &applied) {
        (Ok(plan), Ok((planned, _))) => verify_under_plan(planned, plan, &verify_cfg),
        (Err(e), _) | (_, Err(e)) => Err(e.clone()),
    };
    let t4 = Instant::now();
    g.push(name, "certify_s", (t4 - t0).as_secs_f64());
    g.push(name, "gather_s", (t1 - t0).as_secs_f64());
    g.push(name, "cells", ev.cells.len() as f64);
    g.span(name, "gather_ms", ms(t1 - t0));
    g.span(name, "demote_ms", ms(t2 - t1));
    g.span(name, "apply_ms", ms(t3 - t2));
    g.span(name, "plan_verify_ms", ms(t4 - t3));
    if g.traced {
        // Probe one of the sweep's cells from outside: the fleet cell
        // body, then FastTrack on both program variants.
        let k = (probe % ev.cells.len().max(1) as u64) as usize;
        let strategy = gcfg.strategies[k / gcfg.seeds.len()];
        let cell_seed = gcfg.seeds[k % gcfg.seeds.len()];
        let instrs = execute(&a.instrumented, &gcfg.exec).stats.instrs;
        let sched = resolve_strategy(strategy, instrs);
        let t = Instant::now();
        std::hint::black_box(run_cell(
            &a.instrumented,
            None,
            sched,
            cell_seed,
            &gcfg.exec,
            false,
        ));
        g.span(name, "cell_ms", ms(t.elapsed()));
        let run_cfg = ExecConfig {
            seed: cell_seed,
            sched,
            ..gcfg.exec
        };
        for p in [&a.instrumented, &a.program] {
            let t = Instant::now();
            let run = detect(p, &run_cfg);
            g.span(name, "drd_ms", ms(t.elapsed()));
            g.span(name, "drd_instrs", run.result.stats.instrs as f64);
        }
    }

    let clean = ev.cells.iter().filter(|c| c.clean).count() as u64;
    let preemptions: u64 = ev.cells.iter().map(|c| c.preemptions).sum();
    let mut ok = ex.check(name, 0, "cells", ev.cells.len() as u64)
        & ex.check(name, 0, "clean_cells", clean)
        & ex.check(name, 0, "preemptions", preemptions);
    g.span(name, "preemptions", preemptions as f64);
    g.span(name, "clean_cells", clean as f64);
    if let Err(e) = verified {
        eprintln!("{name}: certify failed: {e}");
        return None;
    }
    let (Ok(plan), Ok((planned, _))) = (certified, applied) else {
        unreachable!("a verified plan was certified and applied")
    };
    if plan.kept.len() != expected_kept(name)
        || plan.kept.len() + plan.demotions.len() != statics.len()
    {
        eprintln!(
            "{name}: demotion kept {} and demoted {} of {} pairs; expected {} kept",
            plan.kept.len(),
            plan.demotions.len(),
            statics.len(),
            expected_kept(name)
        );
        ok = false;
    }
    ok &= ex.check(name, 0, "demoted_pairs", plan.demotions.len() as u64)
        & ex.check(name, 0, "kept_pairs", plan.kept.len() as u64)
        & ex.check(name, 0, "planned_digest", program_digest(&planned));
    g.span(name, "demoted", plan.demotions.len() as f64);
    g.span(name, "kept", plan.kept.len() as f64);
    ok.then_some(planned)
}
