//! Fixture tests for the `acc-lint` rules: each rule has one violating
//! and one clean fixture, the allowlist round-trips its reasons, and the
//! workspace itself must pass with zero violations (self-check).

use std::path::{Path, PathBuf};

use acc_lint::{analyze_source, analyze_workspace, FileReport, Rule};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Analyze a fixture as if it lived at `logical` inside the workspace.
fn check(name: &str, logical: &str) -> FileReport {
    analyze_source(logical, &fixture(name))
}

fn rules_of(report: &FileReport) -> Vec<Rule> {
    report.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn r1_violating_fixture_is_flagged_with_line() {
    let report = check("r1_violate.rs", "crates/net/src/table.rs");
    let rules = rules_of(&report);
    assert!(
        rules.iter().all(|&r| r == Rule::R1),
        "only R1 expected, got {rules:?}"
    );
    assert_eq!(rules.len(), 3, "use, field and constructor: {report:?}");
    assert_eq!(report.violations[0].line, 2, "the `use` line");
    assert_eq!(report.violations[0].path, "crates/net/src/table.rs");
}

#[test]
fn r1_clean_fixture_passes() {
    let report = check("r1_clean.rs", "crates/net/src/table.rs");
    assert!(report.violations.is_empty(), "{report:?}");
}

#[test]
fn r1_covers_the_collective_engine_crate() {
    // acc-coll compiles schedules whose round order *is* the wire
    // protocol — an unordered map there reorders sends between runs.
    let report = check("r1_violate.rs", "crates/coll/src/engine.rs");
    let rules = rules_of(&report);
    assert!(
        !rules.is_empty() && rules.iter().all(|&r| r == Rule::R1),
        "coll is deterministic, HashMap must flag: {report:?}"
    );
}

#[test]
fn r1_covers_the_collective_recovery_module() {
    // The recovery re-planner partitions round legs by dead-set
    // membership; an unordered set there would reorder the rerouted
    // TCP side streams between runs and break byte-identical resumes.
    let report = check("r1_violate.rs", "crates/coll/src/recovery.rs");
    let rules = rules_of(&report);
    assert!(
        !rules.is_empty() && rules.iter().all(|&r| r == Rule::R1),
        "recovery is deterministic, HashMap must flag: {report:?}"
    );
}

#[test]
fn r1_does_not_apply_outside_deterministic_crates() {
    let report = check("r1_violate.rs", "crates/bench/src/table.rs");
    assert!(
        report.violations.is_empty(),
        "bench is exempt from R1: {report:?}"
    );
}

#[test]
fn r2_violating_fixture_is_flagged_with_line() {
    let report = check("r2_violate.rs", "crates/core/src/clock.rs");
    let rules = rules_of(&report);
    assert!(
        !rules.is_empty() && rules.iter().all(|&r| r == Rule::R2),
        "{report:?}"
    );
    assert_eq!(report.violations[0].line, 2, "the `use std::time` line");
}

#[test]
fn r2_clean_fixture_passes_and_bench_is_exempt() {
    let clean = check("r2_clean.rs", "crates/core/src/clock.rs");
    assert!(clean.violations.is_empty(), "{clean:?}");
    let bench = check("r2_violate.rs", "crates/bench/src/harness.rs");
    assert!(
        bench.violations.is_empty(),
        "bench wall-clock code is exempt from R2: {bench:?}"
    );
}

#[test]
fn r3_violating_fixture_is_flagged_with_line() {
    let report = check("r3_violate.rs", "crates/proto/src/codec.rs");
    let rules = rules_of(&report);
    assert_eq!(rules, vec![Rule::R3], "{report:?}");
    assert_eq!(report.violations[0].line, 3, "the `as u16` line");
}

#[test]
fn r3_clean_fixture_passes_and_rule_is_proto_scoped() {
    let clean = check("r3_clean.rs", "crates/proto/src/codec.rs");
    assert!(clean.violations.is_empty(), "{clean:?}");
    // The identical narrowing cast outside the wire-codec crate is not
    // an R3 matter (clippy's crate-level lints cover it there).
    let elsewhere = check("r3_violate.rs", "crates/host/src/codec.rs");
    assert!(elsewhere.violations.is_empty(), "{elsewhere:?}");
}

#[test]
fn r4_violating_fixture_is_flagged_with_line() {
    let report = check("r4_violate.rs", "crates/fpga/src/slice.rs");
    let rules = rules_of(&report);
    assert_eq!(rules, vec![Rule::R4], "{report:?}");
    assert_eq!(report.violations[0].line, 3, "the `.unwrap()` line");
}

#[test]
fn r4_clean_fixture_passes() {
    let report = check("r4_clean.rs", "crates/fpga/src/slice.rs");
    assert!(report.violations.is_empty(), "{report:?}");
}

#[test]
fn r5_violating_fixture_is_flagged_with_line() {
    let report = check("r5_violate.rs", "crates/sim/src/dispatch.rs");
    let rules = rules_of(&report);
    assert_eq!(rules, vec![Rule::R5], "{report:?}");
    assert_eq!(report.violations[0].line, 5, "the `panic!` line");
}

#[test]
fn r5_clean_fixture_passes_and_panic_is_sim_scoped() {
    let clean = check("r5_clean.rs", "crates/sim/src/dispatch.rs");
    assert!(clean.violations.is_empty(), "{clean:?}");
    // Component crates may panic (fail-loud event handlers, the PR 1
    // trace-dump convention); only the sim hot path is restricted.
    let component = check("r5_violate.rs", "crates/net/src/dispatch.rs");
    assert!(component.violations.is_empty(), "{component:?}");
}

#[test]
fn r6_violating_fixture_is_flagged_with_line() {
    let report = check("r6_violate.rs", "crates/core/src/probe.rs");
    let rules = rules_of(&report);
    assert!(
        !rules.is_empty() && rules.iter().all(|&r| r == Rule::R6),
        "{report:?}"
    );
    assert_eq!(rules.len(), 3, "run, run_until and run_guarded: {report:?}");
    assert_eq!(report.violations[0].line, 5, "the `sim.run()` line");
}

#[test]
fn r6_clean_fixture_passes_with_one_justified_allow() {
    let report = check("r6_clean.rs", "crates/core/src/probe.rs");
    assert!(report.violations.is_empty(), "{report:?}");
    assert_eq!(report.allows.len(), 1, "{report:?}");
    assert_eq!(report.allows[0].rule, Rule::R6);
}

#[test]
fn r6_does_not_apply_inside_the_engine_crate() {
    // The engine implements the run family; its own internals (and the
    // guarded entry calling the plain one) are not raw callers.
    let report = check("r6_violate.rs", "crates/sim/src/engine_probe.rs");
    assert!(report.violations.is_empty(), "{report:?}");
}

#[test]
fn allowlist_round_trip_suppresses_and_collects_reasons() {
    let report = check("allow_roundtrip.rs", "crates/net/src/scratch.rs");
    assert!(
        report.violations.is_empty(),
        "annotated violations must be suppressed: {report:?}"
    );
    assert_eq!(report.allows.len(), 2, "{report:?}");
    assert_eq!(
        report.allows[0].reason,
        "drop-order scratch set; never iterated"
    );
    assert_eq!(report.allows[0].rule, Rule::R1);
    assert_eq!(
        report.allows[1].reason,
        "len() only; iteration order never observed"
    );
}

#[test]
fn allow_without_reason_is_a_diagnostic_and_suppresses_nothing() {
    let report = check("allow_missing_reason.rs", "crates/net/src/scratch.rs");
    let rules = rules_of(&report);
    assert!(
        rules.contains(&Rule::A0),
        "missing reason must be flagged: {report:?}"
    );
    assert!(
        rules.contains(&Rule::R1),
        "a reasonless allow must not suppress: {report:?}"
    );
    assert!(report.allows.is_empty(), "{report:?}");
}

#[test]
fn cfg_test_modules_are_exempt() {
    let report = check("test_mod_exempt.rs", "crates/net/src/double.rs");
    assert!(
        report.violations.is_empty(),
        "test modules are exempt from every rule: {report:?}"
    );
}

#[test]
fn integration_test_paths_are_exempt() {
    let report = check("r4_violate.rs", "crates/fpga/tests/behaviour.rs");
    assert!(report.violations.is_empty(), "{report:?}");
}

#[test]
fn r7_deep_copies_flag_in_hot_modules_only() {
    let report = check("r7_violate.rs", "crates/net/src/switch.rs");
    let rules = rules_of(&report);
    assert!(
        rules.iter().all(|&r| r == Rule::R7),
        "only R7 expected: {report:?}"
    );
    assert_eq!(rules.len(), 3, "clone, to_vec and Vec::from: {report:?}");
    // The identical code outside the zero-copy forwarding plane is not
    // an R7 matter.
    let cold = check("r7_violate.rs", "crates/net/src/table.rs");
    assert!(cold.violations.is_empty(), "{cold:?}");
}

#[test]
fn r7_covers_the_proto_framing_modules() {
    // The INIC and TCP codecs frame every bulk byte: a copy there is a
    // copy per packet, as on the forwarding plane.
    for module in ["crates/proto/src/inic_wire.rs", "crates/proto/src/tcp.rs"] {
        let report = check("r7_violate.rs", module);
        assert_eq!(rules_of(&report), vec![Rule::R7; 3], "{module}: {report:?}");
        let report = check("r7_extend_violate.rs", module);
        assert_eq!(rules_of(&report), vec![Rule::R7], "{module}: {report:?}");
        assert_eq!(report.violations[0].line, 9, "the append line");
    }
    let cold = check("r7_extend_violate.rs", "crates/proto/src/lib.rs");
    assert!(cold.violations.is_empty(), "{cold:?}");
}

#[test]
fn r7_payload_view_clone_is_clean() {
    let report = check("r7_clean.rs", "crates/net/src/switch.rs");
    assert!(
        report.violations.is_empty(),
        "PayloadView clone is a refcount bump: {report:?}"
    );
}

#[test]
fn r7_justified_materialization_is_suppressed() {
    let report = check("r7_allow.rs", "crates/net/src/switch.rs");
    assert!(report.violations.is_empty(), "{report:?}");
    assert_eq!(report.allows.len(), 1, "{report:?}");
    assert_eq!(report.allows[0].rule, Rule::R7);
}

#[test]
fn r8_asymmetric_codec_flags_both_directions() {
    let report = check("r8_violate.rs", "crates/proto/src/codec.rs");
    let rules = rules_of(&report);
    assert!(
        rules.iter().all(|&r| r == Rule::R8),
        "only R8 expected: {report:?}"
    );
    assert_eq!(
        rules.len(),
        2,
        "unread encode bytes and unwritten decode bytes: {report:?}"
    );
}

#[test]
fn r8_symmetric_codec_passes_and_rule_is_proto_scoped() {
    let clean = check("r8_clean.rs", "crates/proto/src/codec.rs");
    assert!(clean.violations.is_empty(), "{clean:?}");
    let elsewhere = check("r8_violate.rs", "crates/host/src/codec.rs");
    assert!(
        elsewhere.violations.is_empty(),
        "R8 is proto-only: {elsewhere:?}"
    );
}

#[test]
fn r8_pairs_a_header_encoder_with_its_two_part_decoder() {
    // The header encoders return only the header and the decoders take
    // (header, body): R8 checks the header parameter's reads against
    // the encoder's writes.
    let clean = check("r8_two_part.rs", "crates/proto/src/codec.rs");
    assert!(clean.violations.is_empty(), "{clean:?}");
    let bent = check("r8_two_part_violate.rs", "crates/proto/src/codec.rs");
    assert_eq!(rules_of(&bent), vec![Rule::R8], "{bent:?}");
    assert!(
        bent.violations[0]
            .message
            .contains("decode reads header bytes 6..8"),
        "{bent:?}"
    );
}

#[test]
fn r8_padding_probe_with_allow_is_suppressed() {
    let report = check("r8_allow.rs", "crates/proto/src/codec.rs");
    assert!(report.violations.is_empty(), "{report:?}");
    assert_eq!(report.allows.len(), 1, "{report:?}");
    assert_eq!(report.allows[0].rule, Rule::R8);
}

#[test]
fn r9_unbounded_queue_flags_at_the_field_decl() {
    let report = check("r9_violate.rs", "crates/net/src/relay.rs");
    let rules = rules_of(&report);
    assert_eq!(rules, vec![Rule::R9], "{report:?}");
    assert_eq!(report.violations[0].line, 5, "the `inbox` field line");
    // Non-component crates are exempt: their collections are plans and
    // tables, not simulated component state.
    let elsewhere = check("r9_violate.rs", "crates/coll/src/relay.rs");
    assert!(elsewhere.violations.is_empty(), "{elsewhere:?}");
}

#[test]
fn r9_bounded_queue_is_clean() {
    let report = check("r9_clean.rs", "crates/net/src/relay.rs");
    assert!(
        report.violations.is_empty(),
        "the len()-vs-cap comparison is the bound evidence: {report:?}"
    );
}

#[test]
fn r9_justified_queue_is_suppressed() {
    let report = check("r9_allow.rs", "crates/net/src/relay.rs");
    assert!(report.violations.is_empty(), "{report:?}");
    assert_eq!(report.allows.len(), 1, "{report:?}");
    assert_eq!(report.allows[0].rule, Rule::R9);
}

#[test]
fn r10_type_erased_dispatch_is_flagged_with_lines() {
    let report = check("r10_violate.rs", "crates/fpga/src/probe.rs");
    let rules = rules_of(&report);
    assert_eq!(rules, vec![Rule::R10; 4], "{report:?}");
    let lines: Vec<usize> = report.violations.iter().map(|v| v.line).collect();
    assert_eq!(
        lines,
        vec![4, 5, 8, 10],
        "the Box<dyn Any> parameter, is::<>, downcast and downcast_ref lines"
    );
}

#[test]
fn r10_typed_dispatch_passes_and_a_justified_downcast_is_suppressed() {
    let report = check("r10_clean.rs", "crates/sim/src/probe.rs");
    assert!(report.violations.is_empty(), "{report:?}");
    assert_eq!(report.allows.len(), 1, "{report:?}");
    assert_eq!(report.allows[0].rule, Rule::R10);
}

#[test]
fn r10_covers_the_simulated_crates_only() {
    for krate in ["sim", "net", "proto", "fpga", "host", "core"] {
        let report = check("r10_violate.rs", &format!("crates/{krate}/src/probe.rs"));
        assert_eq!(report.violations.len(), 4, "{krate}: {report:?}");
    }
    // Panic payloads and foreign plugins are downcast legitimately in
    // the bench harnesses and the algorithm crates.
    for krate in ["bench", "algos", "coll"] {
        let report = check("r10_violate.rs", &format!("crates/{krate}/src/probe.rs"));
        assert!(report.violations.is_empty(), "{krate}: {report:?}");
    }
}

#[test]
fn module_scope_allow_covers_the_block_in_single_file_mode() {
    // Satellite fix: `--check-file` (analyze_source) must honor allows
    // bound to a `mod` header exactly as workspace mode does.
    let report = check("allow_module_scope.rs", "crates/net/src/scratch.rs");
    let rules = rules_of(&report);
    assert_eq!(
        rules,
        vec![Rule::R1],
        "only the violation outside the mod survives: {report:?}"
    );
    // One audit-trail entry per suppressed site, all carrying the one
    // annotation's reason: use, return type, constructor.
    assert_eq!(report.allows.len(), 3, "{report:?}");
    assert!(
        report
            .allows
            .iter()
            .all(|a| a.rule == Rule::R1 && a.reason.contains("scratch cache module")),
        "{report:?}"
    );
}

#[test]
fn file_scope_allow_covers_the_whole_file_in_single_file_mode() {
    let report = check("allow_file_scope.rs", "crates/core/src/clock.rs");
    assert!(report.violations.is_empty(), "{report:?}");
    // The import line plus both `Instant` mentions, every suppression
    // traced back to the single file-scope annotation.
    assert_eq!(report.allows.len(), 3, "{report:?}");
    assert!(
        report.allows.iter().all(|a| a.rule == Rule::R2),
        "{report:?}"
    );
}

#[test]
fn json_report_is_stable_and_carries_locations() {
    let report = check("r9_violate.rs", "crates/net/src/relay.rs");
    let json = acc_lint::render_json(1, &report.violations, &report.allows);
    assert!(json.contains("\"tool\": \"acc-lint\""), "{json}");
    assert!(json.contains("\"files_scanned\": 1"), "{json}");
    assert!(json.contains("\"rule\": \"R9\""), "{json}");
    assert!(
        json.contains("\"path\": \"crates/net/src/relay.rs\""),
        "{json}"
    );
    assert!(json.contains("\"line\": 5"), "{json}");
}

/// The workspace itself must be clean: zero violations, and every
/// surviving allow annotation carries its justification.
#[test]
fn workspace_self_check_passes() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives at <root>/crates/lint")
        .to_path_buf();
    let report = analyze_workspace(&root).expect("workspace scan failed");
    assert!(
        report.files_scanned > 50,
        "expected to scan the whole workspace, saw {} files",
        report.files_scanned
    );
    let rendered: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
    assert!(
        report.violations.is_empty(),
        "workspace must be acc-lint clean:\n{}",
        rendered.join("\n")
    );
    for allow in &report.allows {
        assert!(
            !allow.reason.is_empty(),
            "allow at {}:{} lost its reason",
            allow.path,
            allow.line
        );
    }
}
