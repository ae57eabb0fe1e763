//! The item/symbol pass: a lightweight structural layer on top of the
//! token lexer. It recovers just enough shape from the per-line code
//! channel for the symbol-aware rules (R7–R9):
//!
//! * **fn spans** — name plus the line range of the body, so R8 can
//!   attribute indexed buffer accesses to `try_encode` vs `decode`;
//! * **impl spans** — so encode/decode pairs are matched within one
//!   `impl` block, not across unrelated types in the same file;
//! * **mod spans** — so a justified allow above `mod foo {` governs the
//!   whole module body;
//! * **struct fields** — name and (textual) type, feeding R7's
//!   payload-buffer table and R9's growable-queue inventory;
//! * **integer consts** — so codec offsets written as named constants
//!   (`INIC_HEADER`, `IP_TCP_HEADER`) still resolve to bytes.
//!
//! This is deliberately not a parser: it brace-counts the lexed code
//! channel (strings and comments already blanked), which is exact for
//! the subset of shapes the rules consume and degrades to "symbol not
//! collected" on anything exotic — a missed symbol can only ever make
//! the rules *less* strict, never produce a false positive.

use crate::ScanLine;

/// A named item body: `start..=end` are 0-based line indices covering
/// the header line through the line holding the closing brace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ItemSpan {
    pub name: String,
    pub start: usize,
    pub end: usize,
}

/// One struct field: `owner.name: ty` declared at 0-based `line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FieldDef {
    pub owner: String,
    pub name: String,
    /// The field's type, textually, whitespace-normalized (e.g.
    /// `Vec<u8>`, `VecDeque<Frame>`).
    pub ty: String,
    pub line: usize,
}

/// An integer constant the file defines (`const NAME: <int> = 40;`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ConstDef {
    pub name: String,
    pub value: u64,
}

/// Everything the symbol pass collects from one file.
#[derive(Debug, Default, Clone)]
pub(crate) struct FileSymbols {
    pub fns: Vec<ItemSpan>,
    pub impls: Vec<ItemSpan>,
    pub mods: Vec<ItemSpan>,
    pub fields: Vec<FieldDef>,
    pub consts: Vec<ConstDef>,
}

impl FileSymbols {
    /// The integer value of a named const, if the file defines one.
    pub fn const_value(&self, name: &str) -> Option<u64> {
        self.consts.iter().find(|c| c.name == name).map(|c| c.value)
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier starting at byte `at` of `code`.
fn ident_at(code: &str, at: usize) -> String {
    code[at..].chars().take_while(|&c| is_ident(c)).collect()
}

/// Does `code` contain keyword `kw` as a whole word, and if so where
/// does the text after it begin?
fn after_keyword(code: &str, kw: &str) -> Option<usize> {
    crate::word_occurrences(code, kw)
        .first()
        .map(|at| at + kw.len())
}

/// Find the line index holding the brace that closes the block whose
/// `{` first opens at or after line `start`. Returns `None` when a `;`
/// ends the item before any `{` (a declaration, e.g. `mod x;` or a
/// trait method signature). A `;` inside brackets or parentheses of the
/// signature (an array type such as `-> [u8; 16]`) ends nothing.
pub(crate) fn block_end(lines: &[ScanLine], start: usize) -> Option<usize> {
    let mut depth: i64 = 0;
    let mut nest: i64 = 0;
    let mut opened = false;
    for (k, line) in lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                '[' | '(' if !opened => nest += 1,
                ']' | ')' if !opened => nest -= 1,
                ';' if !opened && nest <= 0 => return None,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return Some(k);
        }
    }
    None
}

/// Parse one struct-body line as a field declaration, yielding
/// `(name, type)`. Accepts `pub`/`pub(...)` prefixes; rejects lines
/// that are not `ident: Type,`-shaped.
fn parse_field(code: &str) -> Option<(String, String)> {
    let mut t = code.trim();
    if let Some(rest) = t.strip_prefix("pub") {
        let rest = rest.trim_start();
        t = if let Some(r) = rest.strip_prefix('(') {
            r.split_once(')')?.1.trim_start()
        } else {
            rest
        };
    }
    let name: String = t.chars().take_while(|&c| is_ident(c)).collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    let rest = t[name.len()..].trim_start();
    let rest = rest.strip_prefix(':')?;
    if rest.starts_with(':') {
        return None; // `::` path, not a field
    }
    let ty = rest.trim().trim_end_matches(',').trim();
    if ty.is_empty() {
        return None;
    }
    // Whitespace-normalize so `Vec < u8 >` and `Vec<u8>` compare equal.
    let ty: String = ty.split_whitespace().collect::<Vec<_>>().join(" ");
    let ty = ty.replace(" <", "<").replace("< ", "<").replace(" >", ">");
    Some((name, ty))
}

/// Parse `const NAME: <int-type> = <literal>;` (optionally `pub`).
fn parse_const(code: &str) -> Option<ConstDef> {
    let at = after_keyword(code, "const")?;
    let rest = code[at..].trim_start();
    let name = ident_at(rest, 0);
    if name.is_empty() {
        return None;
    }
    let rest = rest[name.len()..].trim_start().strip_prefix(':')?;
    let (_, value) = rest.split_once('=')?;
    let value = value.trim().trim_end_matches(';').trim();
    if value.starts_with("0x") || value.starts_with("0b") || value.starts_with("0o") {
        return None; // only decimal literals resolve to offsets
    }
    let digits: String = value
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .collect();
    let digits = digits.replace('_', "");
    if digits.is_empty() {
        return None;
    }
    // Reject suffixed non-integer or expression tails other than a
    // plain type suffix (`40usize` parses; `4 * K` does not).
    let tail = &value[digits.len() + value.matches('_').count()..];
    if !tail.is_empty() && !tail.chars().all(is_ident) {
        return None;
    }
    digits
        .parse::<u64>()
        .ok()
        .map(|v| ConstDef { name, value: v })
}

/// Run the symbol pass over a lexed file.
pub(crate) fn collect(lines: &[ScanLine]) -> FileSymbols {
    let mut out = FileSymbols::default();
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        if code.is_empty() {
            continue;
        }
        if let Some(c) = parse_const(code) {
            out.consts.push(c);
        }
        if let Some(at) = after_keyword(code, "fn") {
            let name = ident_at(code[at..].trim_start(), 0);
            if !name.is_empty() {
                if let Some(end) = block_end(lines, idx) {
                    out.fns.push(ItemSpan {
                        name,
                        start: idx,
                        end,
                    });
                }
            }
        }
        // `impl Type {` / `impl Trait for Type {` — name the Type.
        if code.starts_with("impl") && after_keyword(code, "impl").is_some() {
            let rest = code["impl".len()..].trim_start();
            let rest = rest.strip_prefix('<').map_or(rest, |r| {
                // Skip the generics group to the matching `>`.
                let mut depth = 1;
                let mut cut = r.len();
                for (i, c) in r.char_indices() {
                    match c {
                        '<' => depth += 1,
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                cut = i + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                r[cut..].trim_start()
            });
            let head = rest.split(" for ").last().unwrap_or(rest);
            let name = ident_at(head.trim_start(), 0);
            if !name.is_empty() {
                if let Some(end) = block_end(lines, idx) {
                    out.impls.push(ItemSpan {
                        name,
                        start: idx,
                        end,
                    });
                }
            }
        }
        if let Some(at) = after_keyword(code, "mod") {
            let name = ident_at(code[at..].trim_start(), 0);
            if !name.is_empty() && code.contains('{') {
                if let Some(end) = block_end(lines, idx) {
                    out.mods.push(ItemSpan {
                        name,
                        start: idx,
                        end,
                    });
                }
            }
        }
        if let Some(at) = after_keyword(code, "struct") {
            let name = ident_at(code[at..].trim_start(), 0);
            if name.is_empty() || !code.contains('{') {
                continue; // tuple/unit struct: no named fields
            }
            if let Some(end) = block_end(lines, idx) {
                for (fidx, fline) in lines.iter().enumerate().take(end).skip(idx + 1) {
                    if let Some((fname, ty)) = parse_field(&fline.code) {
                        out.fields.push(FieldDef {
                            owner: name.clone(),
                            name: fname,
                            ty,
                            line: fidx,
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_lines;

    const SRC: &str = r#"
pub const HEADER: usize = 16;
const WAYS: u32 = 4_096;
const NOT_INT: &str = "x";

pub struct Packet {
    pub src: u16,
    data: Vec<u8>,
    queue: VecDeque<Frame>,
}

impl Packet {
    pub fn try_encode(&self, out: &mut [u8]) -> bool {
        out[0..2].copy_from_slice(&self.src.to_le_bytes());
        true
    }

    pub fn decode(bytes: &[u8]) -> Packet {
        unreachable_stub()
    }
}

mod shadow {
    pub fn helper() {}
}
"#;

    #[test]
    fn collects_consts_fields_fns_impls_mods() {
        let syms = collect(&scan_lines(SRC));
        assert_eq!(syms.const_value("HEADER"), Some(16));
        assert_eq!(syms.const_value("WAYS"), Some(4096));
        assert_eq!(syms.const_value("NOT_INT"), None);
        let fields: Vec<(&str, &str)> = syms
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty.as_str()))
            .collect();
        assert_eq!(
            fields,
            vec![
                ("src", "u16"),
                ("data", "Vec<u8>"),
                ("queue", "VecDeque<Frame>")
            ]
        );
        let fns: Vec<&str> = syms.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fns, vec!["try_encode", "decode", "helper"]);
        assert_eq!(syms.impls.len(), 1);
        assert_eq!(syms.impls[0].name, "Packet");
        assert_eq!(syms.mods.len(), 1);
        assert_eq!(syms.mods[0].name, "shadow");
        // fn spans nest inside the impl span.
        let imp = &syms.impls[0];
        let enc = &syms.fns[0];
        assert!(imp.start < enc.start && enc.end < imp.end);
    }

    #[test]
    fn array_types_in_a_signature_do_not_end_the_item() {
        let src = "fn header(&self) -> [u8; 16] {\n    [0; 16]\n}\nfn sig(x: [u8; 2]);\n";
        let syms = collect(&scan_lines(src));
        let fns: Vec<(&str, usize, usize)> = syms
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.start, f.end))
            .collect();
        assert_eq!(
            fns,
            vec![("header", 0, 2)],
            "a body-less signature is still skipped"
        );
    }

    #[test]
    fn declarations_without_bodies_are_skipped() {
        let syms = collect(&scan_lines("mod external;\ntrait T { fn sig(&self); }\n"));
        assert!(syms.mods.is_empty());
        // The trait block itself is not an impl; `sig` has no body on
        // its line run before the `;` — the trait's `{` makes the
        // brace-counter see a block, so `sig` resolves to the trait's
        // closing line. That is safe: R8 only reads accesses inside the
        // span, and a signature line holds none.
        assert!(syms.impls.is_empty());
    }
}
