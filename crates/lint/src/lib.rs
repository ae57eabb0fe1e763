//! # acc-lint — static determinism and wire-safety invariants
//!
//! The repo's core promise — byte-identical campaign reports at any
//! `--jobs` count and per-seed reproducible soak runs — rests on a small
//! set of source-level invariants. The runtime Auditor (acc-core) checks
//! the dynamic half; this crate checks the static half at review time,
//! dependency-free and token-level, so it runs everywhere CI does.
//!
//! ## Rules
//!
//! * **R1** — no `HashMap`/`HashSet` in deterministic crates (`sim`,
//!   `core`, `net`, `proto`, `fpga`, `host`, `algos` and the umbrella
//!   crate). `RandomState` seeds hash iteration order per-process, so a
//!   single map iteration feeding an event schedule or a report silently
//!   breaks reproducibility. Use `BTreeMap`/`BTreeSet`, or annotate with
//!   a justification (see below) when iteration provably never feeds
//!   output ordering.
//! * **R2** — no `std::time::Instant`/`SystemTime`, `RandomState` or
//!   thread-identity values outside `crates/bench` (wall-clock timing is
//!   the bench harness's job; everything else runs on [`SimTime`]).
//! * **R3** — no `as` narrowing casts in the wire-codec crate
//!   (`proto`): `try_from`/`From`/checked conversions only. PR 3's
//!   `InicPacket::encode` truncation bug is exactly the class this rule
//!   kills.
//! * **R4** — no bare `unwrap()` in non-test library code: `expect` with
//!   a component-identifying message (the PR 3 convention), so a panic
//!   names its component in the trace dump.
//! * **R5** — no direct `panic!`/`todo!`/`unimplemented!` in the sim
//!   hot path (`crates/sim`), and no `todo!`/`unimplemented!` anywhere
//!   in deterministic crates. Deliberate fail-loud invariant breaches
//!   must carry an allowlist justification.
//! * **R6** — no raw engine run-family calls (`.run()`, `.run_until()`,
//!   `.run_guarded()`) outside `crates/sim` itself and test code. Every
//!   production run must go through the deadline-aware wrapper
//!   (`Wiring::run_to_completion` in acc-core), which arms the
//!   watchdog derived from the `DeadlineHierarchy` so a wedged run
//!   aborts with a structured hang report instead of spinning forever.
//!   The wrapper itself, and micro-simulations that provably terminate
//!   (bounded ablation probes), carry allow annotations.
//! * **R7** — no deep payload copies (`.to_vec()`, `.extend_from_slice`,
//!   `Vec::from`, `.clone()` on a `Vec<u8>`-typed buffer) inside the
//!   acc-net/acc-sim hot-path modules and the acc-proto wire codecs.
//!   Zero-copy forwarding holds because a frame's payload is a
//!   refcounted `PayloadView` behind an inline header; cloning the
//!   *view* is a refcount bump and stays legal, materializing the bytes
//!   is the regression this rule kills. The view's own explicit copy
//!   API and the codecs' few deliberate copies carry justified allows.
//! * **R8** — wire-codec encode/decode field symmetry in acc-proto:
//!   every header byte an encode-family fn (`encode`/`try_encode`)
//!   writes must be read back by the paired `decode` in the same
//!   `impl`, and vice versa, with numeric (or named-const) offsets
//!   cross-checked byte-for-byte; a `self.field` written by encode must
//!   be mentioned by decode. Asymmetric padding contracts carry
//!   justified allows.
//! * **R9** — every growable queue in the simulated component crates
//!   (a `VecDeque` field, or a `Vec` field named like a queue) must
//!   show an enforced bound in its file (a `len()` comparison or
//!   `truncate` on the field) or carry a justified allow naming the
//!   invariant that bounds it.
//! * **R10** — no type-erased event dispatch in the simulated crates
//!   (`sim`, `net`, `proto`, `fpga`, `host`, `core`): no
//!   `downcast`/`downcast_ref`/`downcast_mut`/`is::<..>` call, and no
//!   parameter typed `Box<dyn Any>`. Events travel in typed carriers and
//!   a handler decodes them with one exhaustive `match`, so a mis-wired
//!   event fails to compile instead of panicking at run time. The
//!   legacy `Box<dyn Any>` carrier's adapter module and
//!   `Simulation::component`'s downcast of a *component* carry
//!   justified allows.
//!
//! R7–R9 ride on the item/symbol pass (see `symbols`): module, impl
//! and fn spans, struct fields with textual types, and integer consts,
//! aggregated into per-crate symbol tables by the workspace walk.
//!
//! ## Allowlist
//!
//! A violation is suppressed — and its justification collected into the
//! report — by an annotation on the same line or on its own comment line
//! directly above (attribute lines in between are skipped):
//!
//! ```text
//! // acc-lint: allow(R1, reason = "drop-order scratch set; never iterated")
//! ```
//!
//! The `reason` is mandatory: an allow without one is itself a
//! diagnostic (`A0`). An annotation binds to the next code line; two
//! wider scopes exist: above a `mod name {` item it governs the whole
//! module body, and above an inner attribute (`#![...]`, i.e. at file
//! top) it governs the whole file. Both scopes apply identically in
//! workspace mode and `--check-file` mode.
//!
//! [`SimTime`]: https://docs.rs/acc-sim

#![forbid(unsafe_code)]

mod symbols;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use symbols::FileSymbols;

/// Crates whose event schedules and outputs must be bit-reproducible.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "sim", "core", "net", "proto", "fpga", "host", "algos", "coll", "acc",
];

/// Integer target types an `as` cast may narrow into (R3). Casts to
/// `u64`/`i64`/`u128`/floats widen from every type the codecs use and
/// are left to clippy's precision lints.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// One enforced rule. `A0` is the meta-rule for malformed allowlist
/// annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    A0,
}

impl Rule {
    /// Stable short code used in diagnostics and annotations.
    pub fn code(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R8 => "R8",
            Rule::R9 => "R9",
            Rule::R10 => "R10",
            Rule::A0 => "A0",
        }
    }

    /// Parse an annotation's rule code.
    pub fn from_code(code: &str) -> Option<Rule> {
        match code {
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "R3" => Some(Rule::R3),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
            "R6" => Some(Rule::R6),
            "R7" => Some(Rule::R7),
            "R8" => Some(Rule::R8),
            "R9" => Some(Rule::R9),
            "R10" => Some(Rule::R10),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub path: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}]: {}\n  --> {}:{}",
            self.rule, self.message, self.path, self.line
        )
    }
}

/// A suppressed violation and the justification its annotation carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allowance {
    pub path: String,
    pub line: usize,
    pub rule: Rule,
    pub reason: String,
}

/// Result of analyzing one file.
#[derive(Debug, Default, Clone)]
pub struct FileReport {
    pub violations: Vec<Diagnostic>,
    pub allows: Vec<Allowance>,
}

/// Result of analyzing a whole workspace.
#[derive(Debug, Default, Clone)]
pub struct Report {
    pub violations: Vec<Diagnostic>,
    pub allows: Vec<Allowance>,
    pub files_scanned: usize,
}

// ---------------------------------------------------------------------------
// Lexing: split source into per-line code and comment channels
// ---------------------------------------------------------------------------

/// One physical source line after lexing: `code` has string/char literal
/// contents blanked (delimiters kept) and comments removed; `comment`
/// holds the comment text, where allowlist annotations live.
#[derive(Debug, Default, Clone)]
pub(crate) struct ScanLine {
    pub(crate) code: String,
    pub(crate) comment: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lex {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u8),
    Char,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lex `src` into per-line code/comment channels. Handles nested block
/// comments, (byte/raw) string literals spanning lines, char literals
/// and lifetimes.
pub(crate) fn scan_lines(src: &str) -> Vec<ScanLine> {
    let chars: Vec<char> = src.chars().collect();
    let mut out: Vec<ScanLine> = Vec::new();
    let mut cur = ScanLine::default();
    let mut st = Lex::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            out.push(std::mem::take(&mut cur));
            if st == Lex::LineComment {
                st = Lex::Code;
            }
            i += 1;
            continue;
        }
        let next = chars.get(i + 1).copied().unwrap_or('\0');
        match st {
            Lex::Code => {
                let prev_ident = cur.code.chars().next_back().is_some_and(is_ident);
                if c == '/' && next == '/' {
                    st = Lex::LineComment;
                    i += 2;
                } else if c == '/' && next == '*' {
                    st = Lex::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = Lex::Str;
                    i += 1;
                } else if !prev_ident && c == 'b' && next == '"' {
                    cur.code.push_str("b\"");
                    st = Lex::Str;
                    i += 2;
                } else if !prev_ident && c == 'b' && next == '\'' {
                    cur.code.push_str("b'");
                    st = Lex::Char;
                    i += 2;
                } else if !prev_ident
                    && ((c == 'r' && (next == '"' || next == '#')) || (c == 'b' && next == 'r'))
                {
                    // Raw (byte) string: r"..", r#".."#, br#".."#, ...
                    let mut j = i + if c == 'b' { 2 } else { 1 };
                    let mut hashes = 0u8;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        cur.code.push_str("r\"");
                        st = Lex::RawStr(hashes);
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Lifetime ('a) vs char literal ('a', '\n').
                    let after = chars.get(i + 2).copied().unwrap_or('\0');
                    if next == '\\' || (after == '\'' && next != '\'') {
                        cur.code.push('\'');
                        st = Lex::Char;
                        i += 1;
                    } else {
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            Lex::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            Lex::BlockComment(depth) => {
                if c == '/' && next == '*' {
                    st = Lex::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == '/' {
                    st = if depth == 1 {
                        Lex::Code
                    } else {
                        Lex::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            Lex::Str => {
                if c == '\\' {
                    cur.code.push(' ');
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = Lex::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            Lex::RawStr(hashes) => {
                if c == '"'
                    && chars[i + 1..]
                        .iter()
                        .take(hashes as usize)
                        .all(|&h| h == '#')
                {
                    cur.code.push('"');
                    st = Lex::Code;
                    i += 1 + hashes as usize;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            Lex::Char => {
                if c == '\\' {
                    cur.code.push(' ');
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    st = Lex::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        out.push(cur);
    }
    out
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

/// Byte offsets of every whole-word occurrence of `word` in `code`.
pub(crate) fn word_occurrences(code: &str, word: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let bytes = code.as_bytes();
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1] as char);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end] as char);
        if before_ok && after_ok {
            found.push(at);
        }
        start = at + word.len().max(1);
    }
    found
}

fn has_word(code: &str, word: &str) -> bool {
    !word_occurrences(code, word).is_empty()
}

/// `true` if `code` invokes the macro `name!` (whole-word match on the
/// name followed by `!`).
fn has_macro(code: &str, name: &str) -> bool {
    word_occurrences(code, name)
        .iter()
        .any(|&at| code[at + name.len()..].starts_with('!'))
}

/// `true` if `code` contains a bare `.unwrap()` call (as opposed to
/// `unwrap_or`/`unwrap_or_else`/`unwrap_or_default`).
fn has_bare_unwrap(code: &str) -> bool {
    word_occurrences(code, "unwrap").iter().any(|&at| {
        let preceded = code[..at].trim_end().ends_with('.');
        let rest = code[at + "unwrap".len()..].trim_start();
        preceded && rest.starts_with('(') && rest[1..].trim_start().starts_with(')')
    })
}

/// Engine run-family methods a caller may not invoke raw (R6): the
/// unguarded entries and the guarded one, because even `run_guarded`
/// is only as good as the watchdog handed to it — the deadline-aware
/// wrapper is the single place that derives the right one.
const RUN_FAMILY: &[&str] = &["run", "run_until", "run_guarded"];

/// The run-family method name `code` invokes (`.run(`, `.run_until(`,
/// `.run_guarded(` — whole-word, dot-preceded, call-parenthesised), if
/// any. `ex.run_all(...)` and free functions like `run_cell(...)` do
/// not match.
fn run_family_call(code: &str) -> Option<&'static str> {
    for &name in RUN_FAMILY {
        let hit = word_occurrences(code, name).iter().any(|&at| {
            let preceded = code[..at].trim_end().ends_with('.');
            let rest = code[at + name.len()..].trim_start();
            preceded && rest.starts_with('(')
        });
        if hit {
            return Some(name);
        }
    }
    None
}

/// Crates whose events must travel typed (R10).
const R10_TYPED_EVENT_CRATES: &[&str] = &["sim", "net", "proto", "fpga", "host", "core"];

/// The type-erased dispatch construct on the line (R10), if any: a
/// `.downcast*` or `.is::<` method call, or a parameter typed
/// `Box<dyn Any>`.
fn type_erased_dispatch(code: &str) -> Option<&'static str> {
    for name in ["downcast", "downcast_ref", "downcast_mut", "is"] {
        let hit = word_occurrences(code, name).iter().any(|&at| {
            let preceded = code[..at].trim_end().ends_with('.');
            let rest = code[at + name.len()..].trim_start();
            preceded && (rest.starts_with("::<") || (name != "is" && rest.starts_with('(')))
        });
        if hit {
            return Some(name);
        }
    }
    let squeezed: String = code.chars().filter(|c| !c.is_whitespace()).collect();
    [":Box<dynAny>", ":Box<dynstd::any::Any>"]
        .iter()
        .any(|ty| squeezed.contains(ty))
        .then_some("Box<dyn Any>")
}

/// The target-type identifier of the first narrowing `as` cast on the
/// line, if any.
fn narrowing_cast_target(code: &str) -> Option<&'static str> {
    for at in word_occurrences(code, "as") {
        let rest = code[at + 2..].trim_start();
        let target: String = rest.chars().take_while(|&c| is_ident(c)).collect();
        if let Some(t) = NARROW_TARGETS.iter().find(|&&t| t == target) {
            return Some(t);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Test-code masking
// ---------------------------------------------------------------------------

/// Mark every line that belongs to a `#[cfg(test)]` item (module, fn or
/// impl): rules do not apply to test code. The mask covers the attribute
/// line through the close of the item's brace block.
fn test_mask(lines: &[ScanLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Brace-count from the first `{` at or after the attribute.
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut k = i;
        while k < lines.len() {
            for c in lines[k].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            mask[k] = true;
            if opened && depth <= 0 {
                break;
            }
            k += 1;
        }
        i = k + 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// Allowlist annotations
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RawAllow {
    /// 0-based line index of the annotation itself.
    at: usize,
    rule: Option<Rule>,
    reason: Option<String>,
    /// Malformation, if any (unknown rule code, missing reason, ...).
    problem: Option<String>,
}

/// Parse an allowlist annotation out of a comment channel.
fn parse_allow(comment: &str, at: usize) -> Option<RawAllow> {
    let marker = comment.find("acc-lint:")?;
    let rest = comment[marker + "acc-lint:".len()..].trim_start();
    let Some(body) = rest.strip_prefix("allow(") else {
        return Some(RawAllow {
            at,
            rule: None,
            reason: None,
            problem: Some("expected `allow(<rule>, reason = \"...\")`".to_string()),
        });
    };
    let code: String = body.chars().take_while(|&c| is_ident(c)).collect();
    let rule = Rule::from_code(&code);
    if rule.is_none() {
        return Some(RawAllow {
            at,
            rule: None,
            reason: None,
            problem: Some(format!("unknown rule `{code}` in allow annotation")),
        });
    }
    let reason = body.find("reason").and_then(|r| {
        let after = body[r + "reason".len()..].trim_start();
        let after = after.strip_prefix('=')?.trim_start();
        let after = after.strip_prefix('"')?;
        let end = after.find('"')?;
        Some(after[..end].to_string())
    });
    if reason.as_deref().is_none_or(str::is_empty) {
        return Some(RawAllow {
            at,
            rule,
            reason: None,
            problem: Some(format!(
                "allow({code}) annotation is missing a `reason = \"...\"` justification"
            )),
        });
    }
    Some(RawAllow {
        at,
        rule,
        reason,
        problem: None,
    })
}

/// One bound allow annotation: it suppresses `rule` violations on every
/// line in `start..=end` (0-based).
#[derive(Debug, Clone)]
struct BoundAllow {
    start: usize,
    end: usize,
    rule: Rule,
    reason: String,
}

/// Is this the header line of a `mod name { ... }` item (optionally
/// `pub`-prefixed)?
fn is_mod_header(code: &str) -> bool {
    let t = code.trim();
    let mut tokens = t.split_whitespace();
    let first = match tokens.next() {
        Some(tok) => tok,
        None => return false,
    };
    let item = if first == "pub" || first.starts_with("pub(") {
        tokens.next().unwrap_or("")
    } else {
        first
    };
    item == "mod" && t.contains('{')
}

/// Resolve each well-formed annotation to the line span it governs.
///
/// The annotation's own line if it has code, otherwise the next code
/// line (outer-attribute lines skipped). Two widening cases: a target
/// line that opens a `mod` block covers the whole module body, and a
/// target that is an inner attribute (`#![...]` — the annotation sits
/// at file top) covers the whole file.
fn bind_allows(lines: &[ScanLine], raw: &[RawAllow]) -> Vec<BoundAllow> {
    let mut bound = Vec::new();
    for a in raw {
        let (Some(rule), Some(reason), None) = (a.rule, a.reason.clone(), a.problem.as_ref())
        else {
            continue;
        };
        let own_code = lines[a.at].code.trim();
        let target = if !own_code.is_empty() {
            Some(a.at)
        } else {
            lines
                .iter()
                .enumerate()
                .skip(a.at + 1)
                .find(|(_, l)| {
                    let t = l.code.trim();
                    !t.is_empty() && !t.starts_with("#[")
                })
                .map(|(idx, _)| idx)
        };
        let Some(t) = target else { continue };
        let (start, end) = if lines[t].code.trim().starts_with("#![") {
            // File-scope: the annotation governs everything below it.
            (a.at, lines.len().saturating_sub(1))
        } else if is_mod_header(&lines[t].code) {
            let end = symbols::block_end(lines, t).unwrap_or(t);
            (t, end)
        } else {
            (t, t)
        };
        bound.push(BoundAllow {
            start,
            end,
            rule,
            reason,
        });
    }
    bound
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

/// The crate a workspace-relative path belongs to (`crates/net/...` →
/// `net`; the root `src/` is the umbrella crate `acc`).
pub fn crate_of(path: &str) -> Option<&str> {
    let norm = path.strip_prefix("./").unwrap_or(path);
    if let Some(rest) = norm.strip_prefix("crates/") {
        return rest.split('/').next();
    }
    if norm.starts_with("src/") {
        return Some("acc");
    }
    None
}

fn is_deterministic(krate: &str) -> bool {
    DETERMINISTIC_CRATES.contains(&krate)
}

/// `true` for paths whose code the rules skip entirely: integration
/// tests, benches, examples and the lint fixtures themselves.
fn is_test_path(path: &str) -> bool {
    path.split('/').any(|part| {
        part == "tests" || part == "benches" || part == "examples" || part == "fixtures"
    })
}

/// Per-crate symbol table the workspace walk aggregates for the
/// symbol-aware rules. In single-file mode ([`analyze_source`]) it is
/// built from that file alone.
#[derive(Debug, Default, Clone)]
pub struct CrateSymbols {
    /// Struct-field names typed `Vec<u8>` anywhere in the crate — the
    /// payload buffers R7 refuses to see `.clone()`d in hot modules.
    payload_fields: BTreeSet<String>,
}

impl CrateSymbols {
    fn absorb(&mut self, syms: &FileSymbols) {
        for f in &syms.fields {
            if f.ty == "Vec<u8>" {
                self.payload_fields.insert(f.name.clone());
            }
        }
    }
}

/// The hot-path modules R7 governs: the zero-copy forwarding plane
/// and the two wire codecs that frame every bulk byte (a frame carries
/// its header inline and its data as a view). `frame.rs` is included
/// deliberately — the `PayloadView` definition itself must justify
/// each of its materializing escape hatches with an allow, as must each
/// copy the codecs keep (the reassembly append, TCP delivery).
const R7_HOT_MODULES: &[&str] = &[
    "crates/proto/src/inic_wire.rs",
    "crates/proto/src/tcp.rs",
    "crates/net/src/switch.rs",
    "crates/net/src/port.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/impair.rs",
    "crates/net/src/fabric.rs",
    "crates/net/src/routing.rs",
    "crates/sim/src/engine.rs",
    "crates/sim/src/event.rs",
];

/// Crates whose structs model simulated components with queues (R9).
const R9_COMPONENT_CRATES: &[&str] = &["sim", "net", "proto", "fpga", "host"];

/// Analyze one file's source using only that file's own symbols.
/// `logical_path` is workspace-relative and determines rule scoping
/// (which crate, test or not). The workspace walk uses
/// [`analyze_source_with`] so R7 sees crate-wide payload fields.
pub fn analyze_source(logical_path: &str, source: &str) -> FileReport {
    analyze_source_with(logical_path, source, None)
}

/// [`analyze_source`] with an externally aggregated per-crate symbol
/// table (pass `None` to derive one from this file alone).
pub fn analyze_source_with(
    logical_path: &str,
    source: &str,
    crate_syms: Option<&CrateSymbols>,
) -> FileReport {
    let mut report = FileReport::default();
    if is_test_path(logical_path) {
        return report;
    }
    let Some(krate) = crate_of(logical_path).map(str::to_string) else {
        return report;
    };
    let lines = scan_lines(source);
    let mask = test_mask(&lines);
    let syms = symbols::collect(&lines);
    let local_table = crate_syms.is_none().then(|| {
        let mut t = CrateSymbols::default();
        t.absorb(&syms);
        t
    });
    let payload = crate_syms.unwrap_or_else(|| {
        local_table
            .as_ref()
            .expect("local symbol table built when no crate table given")
    });

    let raw_allows: Vec<RawAllow> = lines
        .iter()
        .enumerate()
        .filter_map(|(idx, l)| parse_allow(&l.comment, idx))
        .collect();
    for a in &raw_allows {
        if let Some(problem) = &a.problem {
            report.violations.push(Diagnostic {
                path: logical_path.to_string(),
                line: a.at + 1,
                rule: Rule::A0,
                message: problem.clone(),
            });
        }
    }
    let bound = bind_allows(&lines, &raw_allows);

    let push = |report: &mut FileReport, idx: usize, rule: Rule, message: String| {
        if let Some(b) = bound
            .iter()
            .find(|b| b.rule == rule && b.start <= idx && idx <= b.end)
        {
            report.allows.push(Allowance {
                path: logical_path.to_string(),
                line: idx + 1,
                rule,
                reason: b.reason.clone(),
            });
        } else {
            report.violations.push(Diagnostic {
                path: logical_path.to_string(),
                line: idx + 1,
                rule,
                message,
            });
        }
    };

    let det = is_deterministic(&krate);
    let hot_module = R7_HOT_MODULES.contains(&logical_path);
    for (idx, line) in lines.iter().enumerate() {
        if mask[idx] {
            continue;
        }
        let code = &line.code;

        if det {
            for ty in ["HashMap", "HashSet"] {
                if has_word(code, ty) {
                    push(
                        &mut report,
                        idx,
                        Rule::R1,
                        format!(
                            "`{ty}` in deterministic crate `{krate}`: iteration order is \
                             seeded per-process; use BTree{}, or annotate why ordering \
                             never feeds output",
                            &ty[4..]
                        ),
                    );
                }
            }
        }

        if krate != "bench" {
            for ty in ["Instant", "SystemTime", "RandomState", "ThreadId"] {
                if has_word(code, ty) {
                    push(
                        &mut report,
                        idx,
                        Rule::R2,
                        format!(
                            "`{ty}` outside `crates/bench`: wall-clock and hash-seed \
                             values are nondeterministic; simulated code runs on SimTime"
                        ),
                    );
                }
            }
            if code.contains("thread::current") {
                push(
                    &mut report,
                    idx,
                    Rule::R2,
                    "`thread::current` outside `crates/bench`: thread identity varies \
                     across runs and job counts"
                        .to_string(),
                );
            }
        }

        if krate == "proto" {
            if let Some(target) = narrowing_cast_target(code) {
                push(
                    &mut report,
                    idx,
                    Rule::R3,
                    format!(
                        "`as {target}` narrowing cast in wire codec: silent truncation \
                         corrupts the wire (PR 3 encode bug); use `try_from`/`From`"
                    ),
                );
            }
        }

        if has_bare_unwrap(code) {
            push(
                &mut report,
                idx,
                Rule::R4,
                "bare `unwrap()` in library code: use `expect` with a \
                 component-identifying message"
                    .to_string(),
            );
        }

        if krate != "sim" {
            if let Some(name) = run_family_call(code) {
                push(
                    &mut report,
                    idx,
                    Rule::R6,
                    format!(
                        "raw `.{name}()` outside the deadline-aware wrapper: a wedged \
                         run would spin forever; go through run_to_completion (or \
                         justify why this simulation provably terminates)"
                    ),
                );
            }
        }

        let sim_hot_path = krate == "sim";
        for mac in ["panic", "todo", "unimplemented"] {
            if has_macro(code, mac) {
                let applies = if mac == "panic" {
                    sim_hot_path
                } else {
                    det || sim_hot_path
                };
                if applies {
                    push(
                        &mut report,
                        idx,
                        Rule::R5,
                        format!(
                            "`{mac}!` reachable from the sim hot path: deliberate \
                             fail-loud invariants need an allow annotation with a reason"
                        ),
                    );
                }
            }
        }

        if hot_module {
            if let Some(msg) = r7_deep_copy(code, payload) {
                push(&mut report, idx, Rule::R7, msg);
            }
        }

        if R10_TYPED_EVENT_CRATES.contains(&krate.as_str()) {
            if let Some(what) = type_erased_dispatch(code) {
                push(
                    &mut report,
                    idx,
                    Rule::R10,
                    format!(
                        "type-erased event dispatch (`{what}`) in `{krate}`: decode the \
                         crate's message enum with a `match` on a typed carrier; a \
                         mis-wired event should not compile"
                    ),
                );
            }
        }
    }

    if krate == "proto" {
        for (idx, msg) in r8_codec_symmetry(&lines, &syms, &mask) {
            push(&mut report, idx, Rule::R8, msg);
        }
    }
    if R9_COMPONENT_CRATES.contains(&krate.as_str()) {
        for (idx, msg) in r9_unbounded_queues(&lines, &syms, &mask) {
            push(&mut report, idx, Rule::R9, msg);
        }
    }
    report
}

// ---------------------------------------------------------------------------
// R7 — deep payload copies in hot-path modules
// ---------------------------------------------------------------------------

/// The deep-copy pattern `code` contains, if any: `.to_vec()`,
/// `.extend_from_slice(...)`, `Vec::from(...)`, or `.clone()` whose
/// receiver's trailing identifier is a crate-known `Vec<u8>` payload
/// field.
fn r7_deep_copy(code: &str, payload: &CrateSymbols) -> Option<String> {
    for at in word_occurrences(code, "extend_from_slice") {
        let preceded = code[..at].trim_end().ends_with('.');
        let rest = code[at + "extend_from_slice".len()..].trim_start();
        if preceded && rest.starts_with('(') {
            return Some(
                "`.extend_from_slice()` appends a payload copy on the zero-copy hot path; \
                 forward the PayloadView (refcount bump) instead"
                    .to_string(),
            );
        }
    }
    for at in word_occurrences(code, "to_vec") {
        let preceded = code[..at].trim_end().ends_with('.');
        let rest = code[at + "to_vec".len()..].trim_start();
        if preceded && rest.starts_with('(') {
            return Some(
                "`.to_vec()` materializes a payload copy on the zero-copy hot path; \
                 forward the PayloadView (refcount bump) instead"
                    .to_string(),
            );
        }
    }
    for at in word_occurrences(code, "Vec") {
        if code[at + "Vec".len()..].starts_with("::from(") {
            return Some(
                "`Vec::from` deep-copies payload bytes on the zero-copy hot path; \
                 forward the PayloadView (refcount bump) instead"
                    .to_string(),
            );
        }
    }
    for at in word_occurrences(code, "clone") {
        let before = code[..at].trim_end();
        if !before.ends_with('.') {
            continue;
        }
        let rest = code[at + "clone".len()..].trim_start();
        if !rest.starts_with('(') || !rest[1..].trim_start().starts_with(')') {
            continue;
        }
        let recv = before[..before.len() - 1].trim_end();
        let tail: String = recv
            .chars()
            .rev()
            .take_while(|&c| is_ident(c))
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        if !tail.is_empty() && payload.payload_fields.contains(&tail) {
            return Some(format!(
                "`.clone()` on payload buffer `{tail}` (a `Vec<u8>` field) deep-copies \
                 bytes on the zero-copy hot path; only PayloadView refcount bumps are free"
            ));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// R8 — wire-codec encode/decode field symmetry
// ---------------------------------------------------------------------------

/// One resolved indexed access `base[lo..hi]` (or `base[i]`, as
/// `i..i+1`) on a line.
struct IndexedAccess {
    base: String,
    lo: u64,
    hi: u64,
    /// Followed by `.copy_from_slice(` or a plain `=` assignment.
    is_write: bool,
    /// `self.field` named on the same line, if any.
    field: Option<String>,
}

/// Resolve an offset expression: an integer literal or a named const.
fn resolve_offset(expr: &str, syms: &FileSymbols) -> Option<u64> {
    let t = expr.trim();
    if t.is_empty() {
        return None;
    }
    if t.chars().all(|c| c.is_ascii_digit() || c == '_') {
        return t.replace('_', "").parse().ok();
    }
    if t.chars().all(is_ident) {
        return syms.const_value(t);
    }
    None
}

/// All numerically resolvable indexed accesses on one code line.
fn indexed_accesses(code: &str, syms: &FileSymbols) -> Vec<IndexedAccess> {
    let bytes = code.as_bytes();
    let field = code.find("self.").and_then(|at| {
        let name: String = code[at + "self.".len()..]
            .chars()
            .take_while(|&c| is_ident(c))
            .collect();
        (!name.is_empty()).then_some(name)
    });
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'[' {
            i += 1;
            continue;
        }
        // The base identifier must end immediately before the bracket,
        // and must not be a macro (`vec![`) or attribute (`#[`).
        let base_end = i;
        let base_start = code[..base_end]
            .char_indices()
            .rev()
            .take_while(|&(_, c)| is_ident(c))
            .last()
            .map(|(p, _)| p);
        let Some(bs) = base_start else {
            i += 1;
            continue;
        };
        if code[..bs].ends_with('!') || code[..bs].ends_with('#') {
            i += 1;
            continue;
        }
        // Find the matching close bracket.
        let mut depth = 0usize;
        let mut close = None;
        for (j, &b) in bytes.iter().enumerate().skip(i) {
            match b {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(cl) = close else { break };
        let inner = &code[i + 1..cl];
        let resolved = if let Some((lo_s, hi_s)) = inner.split_once("..") {
            match (resolve_offset(lo_s, syms), resolve_offset(hi_s, syms)) {
                (Some(lo), Some(hi)) if lo < hi => Some((lo, hi)),
                _ => None, // open-ended or symbolic: the data region
            }
        } else {
            resolve_offset(inner, syms).map(|at| (at, at + 1))
        };
        if let Some((lo, hi)) = resolved {
            let after = code[cl + 1..].trim_start();
            let is_write = after.starts_with(".copy_from_slice(")
                || (after.starts_with('=') && !after.starts_with("=="));
            out.push(IndexedAccess {
                base: code[bs..base_end].to_string(),
                lo,
                hi,
                is_write,
                field: field.clone(),
            });
        }
        i = cl + 1;
    }
    out
}

/// The first identifier inside the fn header's parameter list (the
/// buffer name `decode` reads from).
fn first_param_name(header: &str) -> Option<String> {
    let open = header.find('(')?;
    let rest = header[open + 1..].trim_start();
    let rest = rest.strip_prefix("&self").unwrap_or(rest).trim_start();
    let rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    (!name.is_empty()).then_some(name)
}

/// Check encode/decode header-byte symmetry for every impl block (and
/// the file's free functions) that defines both sides. Returns
/// `(line_idx, message)` findings.
fn r8_codec_symmetry(
    lines: &[ScanLine],
    syms: &FileSymbols,
    mask: &[bool],
) -> Vec<(usize, String)> {
    let mut findings = Vec::new();
    // Group fn spans by enclosing impl; fns outside any impl form one
    // file-level group.
    let group_of = |start: usize| -> usize {
        syms.impls
            .iter()
            .position(|im| im.start <= start && start <= im.end)
            .map_or(usize::MAX, |i| i)
    };
    let mut group_keys: Vec<usize> = syms.fns.iter().map(|f| group_of(f.start)).collect();
    group_keys.sort_unstable();
    group_keys.dedup();
    for key in group_keys {
        let members: Vec<&symbols::ItemSpan> = syms
            .fns
            .iter()
            .filter(|f| group_of(f.start) == key)
            .collect();
        let encoders: Vec<&&symbols::ItemSpan> = members
            .iter()
            .filter(|f| f.name == "encode" || f.name == "try_encode")
            .collect();
        let decoder = members.iter().find(|f| f.name == "decode");
        let Some(decoder) = decoder else { continue };
        if encoders.is_empty() {
            continue;
        }
        let decode_param = first_param_name(&lines[decoder.start].code);

        // Writes across the encode-family bodies.
        let mut write_line_of: Vec<(u64, usize)> = Vec::new(); // (byte, line)
        let mut write_cover: BTreeSet<u64> = BTreeSet::new();
        let mut named_writes: Vec<(String, usize)> = Vec::new();
        for enc in &encoders {
            for idx in enc.start..=enc.end.min(lines.len() - 1) {
                if mask[idx] {
                    continue;
                }
                for acc in indexed_accesses(&lines[idx].code, syms) {
                    if !acc.is_write {
                        continue;
                    }
                    for b in acc.lo..acc.hi {
                        if write_cover.insert(b) {
                            write_line_of.push((b, idx));
                        }
                    }
                    if let Some(f) = acc.field {
                        named_writes.push((f, idx));
                    }
                }
            }
        }
        // Reads across the decode body, restricted to the input buffer.
        let mut read_line_of: Vec<(u64, usize)> = Vec::new();
        let mut read_cover: BTreeSet<u64> = BTreeSet::new();
        for idx in decoder.start..=decoder.end.min(lines.len() - 1) {
            if mask[idx] {
                continue;
            }
            for acc in indexed_accesses(&lines[idx].code, syms) {
                if acc.is_write {
                    continue;
                }
                if decode_param.as_deref().is_some_and(|p| p != acc.base) {
                    continue;
                }
                for b in acc.lo..acc.hi {
                    if read_cover.insert(b) {
                        read_line_of.push((b, idx));
                    }
                }
            }
        }
        if write_cover.is_empty() || read_cover.is_empty() {
            continue; // not an offset-addressed codec pair
        }

        // Report each maximal run of asymmetric bytes once, anchored at
        // the line that touched the run's first byte.
        let runs = |covered: &BTreeSet<u64>, other: &BTreeSet<u64>| -> Vec<(u64, u64)> {
            let mut out: Vec<(u64, u64)> = Vec::new();
            for &b in covered.difference(other) {
                match out.last_mut() {
                    Some((_, hi)) if *hi == b => *hi = b + 1,
                    _ => out.push((b, b + 1)),
                }
            }
            out
        };
        for (lo, hi) in runs(&write_cover, &read_cover) {
            let line = write_line_of
                .iter()
                .find(|(b, _)| *b == lo)
                .map_or(encoders[0].start, |(_, l)| *l);
            findings.push((
                line,
                format!(
                    "encode writes header bytes {lo}..{hi} that decode never reads \
                     (codec field symmetry)"
                ),
            ));
        }
        for (lo, hi) in runs(&read_cover, &write_cover) {
            let line = read_line_of
                .iter()
                .find(|(b, _)| *b == lo)
                .map_or(decoder.start, |(_, l)| *l);
            findings.push((
                line,
                format!(
                    "decode reads header bytes {lo}..{hi} that encode never writes \
                     (codec field symmetry)"
                ),
            ));
        }
        // Every `self.field` the encoder serializes must be mentioned
        // by the decoder.
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for (f, idx) in named_writes {
            if !seen.insert(f.clone()) {
                continue;
            }
            let mentioned = (decoder.start..=decoder.end.min(lines.len() - 1))
                .any(|d| has_word(&lines[d].code, &f));
            if !mentioned {
                findings.push((
                    idx,
                    format!(
                        "field `{f}` is serialized by encode but never referenced by \
                         decode (codec field symmetry)"
                    ),
                ));
            }
        }
    }
    findings.sort_by_key(|(idx, _)| *idx);
    findings
}

// ---------------------------------------------------------------------------
// R9 — growable queues must be bounded
// ---------------------------------------------------------------------------

/// Queue-shaped fields with no bound evidence in their file. Returns
/// `(line_idx, message)` findings anchored at the field declaration.
fn r9_unbounded_queues(
    lines: &[ScanLine],
    syms: &FileSymbols,
    mask: &[bool],
) -> Vec<(usize, String)> {
    let mut findings = Vec::new();
    for f in &syms.fields {
        if mask[f.line] {
            continue;
        }
        let is_queue = f.ty.contains("VecDeque<")
            || (f.ty.starts_with("Vec<") && (f.name == "queue" || f.name.ends_with("_queue")));
        if !is_queue {
            continue;
        }
        let len_probe = format!("{}.len()", f.name);
        let truncate_probe = format!("{}.truncate(", f.name);
        let bounded = lines.iter().enumerate().any(|(idx, l)| {
            if mask[idx] {
                return false;
            }
            let code = &l.code;
            if let Some(at) = code.find(&len_probe) {
                let boundary = at == 0 || !is_ident(code.as_bytes()[at - 1] as char);
                let rest = &code[at + len_probe.len()..];
                let compared = ["<", ">", "=="].iter().any(|op| rest.contains(op))
                    || ["<", ">", "=="].iter().any(|op| code[..at].contains(op));
                if boundary && compared {
                    return true;
                }
            }
            code.contains(&truncate_probe)
        });
        if !bounded {
            findings.push((
                f.line,
                format!(
                    "growable queue `{}.{}` ({}) has no enforced bound in this file: \
                     compare `{}` against a capacity (or `truncate`) where it grows, or \
                     justify the bounding invariant with an allow",
                    f.owner, f.name, f.ty, len_probe
                ),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            walk_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every workspace `.rs` file the rules govern: `crates/*/src/**` plus
/// the umbrella crate's `src/**`, in sorted order. Integration tests,
/// benches, examples and fixtures are excluded (see [`analyze_source`]).
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            walk_rs(&member.join("src"), &mut files)?;
        }
    }
    walk_rs(&root.join("src"), &mut files)?;
    Ok(files)
}

/// Analyze the whole workspace rooted at `root`.
///
/// Two passes: the first aggregates each crate's symbol table (R7's
/// payload-field inventory spans files), the second runs the rules.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in workspace_files(root)? {
        let source = fs::read_to_string(&path)?;
        let logical = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((logical, source));
    }

    let mut tables: std::collections::BTreeMap<String, CrateSymbols> =
        std::collections::BTreeMap::new();
    for (logical, source) in &sources {
        if is_test_path(logical) {
            continue;
        }
        let Some(krate) = crate_of(logical) else {
            continue;
        };
        let syms = symbols::collect(&scan_lines(source));
        tables.entry(krate.to_string()).or_default().absorb(&syms);
    }

    let mut report = Report::default();
    for (logical, source) in &sources {
        let table = crate_of(logical).and_then(|k| tables.get(k));
        let file = analyze_source_with(logical, source, table);
        report.violations.extend(file.violations);
        report.allows.extend(file.allows);
        report.files_scanned += 1;
    }
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
        .allows
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

// ---------------------------------------------------------------------------
// JSON rendering (dependency-free, for CI artifacts and annotations)
// ---------------------------------------------------------------------------

/// Escape a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an analysis result as a stable JSON document (the CI
/// artifact format shared by `acc-lint --json` and `acc-verify
/// --json`'s lint section).
pub fn render_json(
    files_scanned: usize,
    violations: &[Diagnostic],
    allows: &[Allowance],
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"acc-lint\",\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str("  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&v.path),
            v.line,
            v.rule,
            json_escape(&v.message)
        ));
    }
    out.push_str(if violations.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"allows\": [");
    for (i, a) in allows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"reason\": \"{}\"}}",
            json_escape(&a.path),
            a.line,
            a.rule,
            json_escape(&a.reason)
        ));
    }
    out.push_str(if allows.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_blanks_strings_and_comments() {
        let src = "let x = \"HashMap inside a string\"; // HashMap in comment\n";
        let lines = scan_lines(src);
        assert_eq!(lines.len(), 1);
        assert!(!has_word(&lines[0].code, "HashMap"));
        assert!(lines[0].comment.contains("HashMap"));
    }

    #[test]
    fn lexer_handles_lifetimes_and_chars() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\n";
        let lines = scan_lines(src);
        assert!(lines[0].code.contains("fn f<'a>"));
        assert!(!lines[0].code.contains('x') || lines[0].code.contains("x:"));
    }

    #[test]
    fn raw_strings_do_not_leak_tokens() {
        let src = "let s = r#\"panic! unwrap() HashMap\"#;\n";
        let lines = scan_lines(src);
        assert!(!has_macro(&lines[0].code, "panic"));
        assert!(!has_bare_unwrap(&lines[0].code));
        assert!(!has_word(&lines[0].code, "HashMap"));
    }

    #[test]
    fn unwrap_or_variants_are_not_bare() {
        assert!(has_bare_unwrap("x.unwrap();"));
        assert!(has_bare_unwrap("x.unwrap ( ) ;"));
        assert!(!has_bare_unwrap("x.unwrap_or(3);"));
        assert!(!has_bare_unwrap("x.unwrap_or_else(|| 3);"));
        assert!(!has_bare_unwrap("x.unwrap_or_default();"));
    }

    #[test]
    fn narrowing_detection() {
        assert_eq!(narrowing_cast_target("let x = y as u16;"), Some("u16"));
        assert_eq!(narrowing_cast_target("let x = y as u64;"), None);
        assert_eq!(narrowing_cast_target("let x = y as f64;"), None);
        assert_eq!(narrowing_cast_target("use a::b as c;"), None);
    }

    #[test]
    fn run_family_detection() {
        assert_eq!(run_family_call("sim.run();"), Some("run"));
        assert_eq!(
            run_family_call("self.sim.run_until(deadline);"),
            Some("run_until")
        );
        assert_eq!(
            run_family_call("let r = sim.run_guarded(&wd);"),
            Some("run_guarded")
        );
        assert_eq!(
            run_family_call("ex.run_all(requests)"),
            None,
            "not engine family"
        );
        assert_eq!(
            run_family_call("run_sort(spec, keys)"),
            None,
            "free function"
        );
        assert_eq!(
            run_family_call("let run = 3; run(x)"),
            None,
            "not a method call"
        );
    }

    #[test]
    fn crate_scoping() {
        assert_eq!(crate_of("crates/net/src/switch.rs"), Some("net"));
        assert_eq!(crate_of("src/lib.rs"), Some("acc"));
        assert_eq!(crate_of("README.md"), None);
    }
}
