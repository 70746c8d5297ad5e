//! Integration tests for the persistent disk cache: a second engine
//! sharing the same cache directory (standing in for a second process —
//! the caches it would inherit in-process are fresh) must compute zero
//! traces, serve everything from disk, and render byte-identical output.

use lvp_harness::{experiment, run_workload_with, DiskCache, Engine, MachineModel};
use lvp_isa::AsmProfile;
use lvp_lang::OptLevel;
use lvp_sim::SimEngine;
use lvp_trace::crc32;
use lvp_workloads::Workload;
use std::path::PathBuf;

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lvp-disk-cache-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_named(engine: &Engine, name: &str) -> String {
    let def = experiment(name).unwrap_or_else(|| panic!("unknown experiment {name}"));
    (def.run)(engine)
        .unwrap_or_else(|e| panic!("{name} failed: {e}"))
        .render_text()
}

/// Acceptance: with a shared cache dir, the second engine (fresh
/// in-memory caches, as a second process would have) performs zero
/// phase-1 runs and produces byte-identical experiment output.
#[test]
fn second_engine_is_served_entirely_from_disk() {
    let dir = temp_cache_dir("rerun");

    let cold = Engine::new()
        .with_workload_names(&["sc", "grep"])
        .unwrap()
        .with_threads(4)
        .with_disk_cache(&dir);
    let cold_out = run_named(&cold, "table3");
    let cold_stats = cold.stats();
    assert!(cold_stats.traces_computed > 0, "{cold_stats:?}");
    assert_eq!(cold_stats.traces_disk_hit, 0, "{cold_stats:?}");

    let warm = Engine::new()
        .with_workload_names(&["sc", "grep"])
        .unwrap()
        .with_threads(4)
        .with_disk_cache(&dir);
    let warm_out = run_named(&warm, "table3");
    let warm_stats = warm.stats();
    assert_eq!(
        warm_stats.traces_computed, 0,
        "warm run re-traced: {warm_stats:?}"
    );
    assert_eq!(
        warm_stats.traces_disk_hit, cold_stats.traces_computed,
        "{warm_stats:?}"
    );
    assert_eq!(cold_out, warm_out, "disk-cached rerun changed the output");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The disk cache only changes *where* traces come from, never what the
/// downstream phases see: annotation work and results are unchanged.
#[test]
fn disk_cache_is_transparent_to_annotations() {
    let dir = temp_cache_dir("transparent");

    let hermetic = Engine::new().with_workload_names(&["xlisp"]).unwrap();
    let baseline = run_named(&hermetic, "table4");

    let cached = Engine::new()
        .with_workload_names(&["xlisp"])
        .unwrap()
        .with_disk_cache(&dir);
    run_named(&cached, "table4");

    let warm = Engine::new()
        .with_workload_names(&["xlisp"])
        .unwrap()
        .with_disk_cache(&dir);
    let warm_out = run_named(&warm, "table4");
    let warm_stats = warm.stats();
    assert_eq!(warm_stats.traces_computed, 0, "{warm_stats:?}");
    assert!(warm_stats.traces_disk_hit > 0, "{warm_stats:?}");
    assert!(
        warm_stats.annotations_computed > 0,
        "annotations are per-process and must still run: {warm_stats:?}"
    );
    assert_eq!(baseline, warm_out, "cached trace altered table4 output");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Engines without an attached disk cache never touch the filesystem —
/// the library default stays hermetic.
#[test]
fn engine_without_disk_cache_writes_nothing() {
    let dir = temp_cache_dir("hermetic");
    let engine = Engine::new().with_workload_names(&["sc"]).unwrap();
    assert!(engine.disk_cache_dir().is_none());
    run_named(&engine, "table3");
    assert!(!dir.exists());

    // And the builder is reversible.
    let detached = Engine::new().with_disk_cache(&dir).without_disk_cache();
    assert!(detached.disk_cache_dir().is_none());
}

/// A cache entry whose trace carries a record the timing models cannot
/// interpret — a load rewritten into a conditional branch that still
/// carries a memory access and no outcome, behind resealed, valid
/// checksums — must be a miss, never a panic: `load` refuses it, and an
/// engine reading the cache regenerates the trace and times it exactly
/// as a clean engine does.
#[test]
fn kind_payload_mismatch_in_a_cached_trace_is_a_miss() {
    let dir = temp_cache_dir("kind-mismatch");
    let w = Workload::by_name("quick").unwrap();
    let (profile, opt) = (AsmProfile::Toc, OptLevel::O0);
    let run = run_workload_with(&w, profile, opt, SimEngine::default()).unwrap();
    let cache = DiskCache::new(&dir);
    cache.store(&w, profile, opt, &run).unwrap();
    assert!(
        cache.load(&w, profile, opt).is_some(),
        "clean entry must hit"
    );

    // LVPC: magic/version (8), output checksum and count (16), the
    // outputs, meta crc (4); then the LVPT v2 header (24) and the first
    // block's header (12: entry count, byte length, crc32).
    let path = cache.entry_path(&w, profile, opt);
    let mut bytes = std::fs::read(&path).unwrap();
    let outputs = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let block = 8 + 16 + 8 * outputs + 4 + 24;
    let block_len = u32::from_le_bytes(bytes[block + 4..block + 8].try_into().unwrap()) as usize;
    let payload = block + 12;
    let mut at = payload;
    loop {
        assert!(at < payload + block_len, "no load in the first block");
        let (kind, flags) = (bytes[at + 8], bytes[at + 9]);
        if kind == 4 {
            assert_ne!(flags & 8, 0, "a load record carries its access");
            bytes[at + 8] = 6; // CondBranch, mem flag kept
            break;
        }
        at += 13 + if flags & 8 != 0 { 17 } else { 0 } + if flags & 16 != 0 { 8 } else { 0 };
    }
    let crc = crc32(&bytes[payload..payload + block_len]);
    bytes[block + 8..block + 12].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    assert!(
        cache.load(&w, profile, opt).is_none(),
        "a record whose payload disagrees with its kind was served"
    );
    let timing = |engine: Engine| {
        engine
            .ctx()
            .timing(&w, profile, opt, None, &MachineModel::ppc620())
            .unwrap()
    };
    let clean = timing(Engine::new().with_workload_names(&["quick"]).unwrap());
    let cached = timing(
        Engine::new()
            .with_workload_names(&["quick"])
            .unwrap()
            .with_disk_cache(&dir),
    );
    assert_eq!(*cached, *clean);

    let _ = std::fs::remove_dir_all(&dir);
}
