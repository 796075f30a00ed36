//! `xlint` — the repo-invariant lint engine.
//!
//! A small source-level linter that enforces the concurrency and
//! numeric invariants this codebase is built around (and that `rustc`
//! / clippy cannot express):
//!
//! * **`f64-eq-fingerprint`** — raw `==` / `!=` against an `f64`
//!   literal. Config fingerprints and cache keys must compare floats
//!   via `to_bits` (NaN-stable, `-0.0`/`0.0`-distinct); exact IEEE
//!   comparisons that are *intended* must say so in an allow.
//! * **`lock-unwrap`** — `.lock().unwrap()` (and `read`/`write`).
//!   A panicking thread must not cascade: locks are taken with
//!   `unwrap_or_else(PoisonError::into_inner)` so the poison is
//!   recovered and the protocol's own invariants decide what survives.
//! * **`rogue-spawn`** — `thread::spawn` / `thread::Builder` /
//!   `thread::scope` outside the sanctioned spawn layers (the worker
//!   pool, the scoped-parallel helpers, the admission dispatcher and
//!   the model-check scenarios). Every thread must be owned by a
//!   joinable, shutdown-aware structure.
//! * **`wall-clock-in-dispatcher`** — `Instant::now` / `SystemTime::
//!   now` in `admission.rs`. The coalescing linger window is
//!   ticket-count based by design; wall-clock reads are only
//!   legitimate for caller-side deadlines and expiry stamps, and each
//!   audited site carries an allow saying which it is.
//! * **`sync-facade`** — `std::sync::Mutex` / `Condvar` / `Atomic*` /
//!   `std::thread::{spawn,scope,…}` in the model-checked layer
//!   (`crates/graph/src`, `crates/core/src`). Those modules must go
//!   through the `xsum_graph::sync` facade so `--cfg xsum_loom` can
//!   swap the primitives for the loom shim's instrumented ones.
//! * **`raw-epoch-bump`** — `next_epoch(…)` calls or direct writes to
//!   an `epoch` / `structural_epoch` field outside
//!   `crates/graph/src/graph.rs`. Epochs are minted only by the graph's
//!   mutation entry points so every bump leaves a weight-delta ledger
//!   record (or a structural invalidation) behind; a bump anywhere else
//!   would advance cache keys without telling the delta machinery what
//!   changed. Caching an *observed* epoch (`… = Some(epoch)`) is fine.
//! * **`unsafe-without-safety`** — an `unsafe` token with no
//!   `// SAFETY:` comment (or `# Safety` doc section) directly above
//!   it. This rule is **not allowlistable**: an unsafe block either
//!   has its obligations written down or it does not ship.
//!
//! # Allowlisting
//!
//! A finding is suppressed by an allow comment for its rule on the
//! offending line or in the comment block directly above it:
//!
//! ```text
//! // xlint: allow(rule-name) — justification of at least a few words
//! ```
//!
//! One allow names one rule; a line that breaks two rules needs two
//! allows, stacked in the block above it. The justification is
//! mandatory; an allow without one is itself reported.
//! `unsafe-without-safety` rejects allows outright.
//!
//! # Scope and limits
//!
//! The scanner walks `src/` and `crates/*/src/` (the vendored shims
//! under `crates/shims/` follow upstream idiom and are excluded, as
//! are `tests/`, benches and examples). Within a file, everything
//! after a column-zero `#[cfg(test)]` is skipped — test modules sit
//! at the bottom of their files in this repo, and test code is free
//! to use bare std primitives. Matching is line-based on source with
//! string-literal contents and `//` comments stripped; multi-line
//! string literals are not tracked (none of the scanned sources embed
//! lint patterns in them).
//!
//! Drive it with `cargo run --bin xlint` or `repro lint`; both exit
//! non-zero when any finding survives. The fixture tests at the
//! bottom of this file pin each rule's positive / negative /
//! allowlisted behavior. See `CONCURRENCY.md` for the invariants the
//! concurrency rules protect.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Machine-readable identity plus prose for one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub name: &'static str,
    pub summary: &'static str,
    /// Whether `// xlint: allow(...)` may suppress this rule.
    pub allowable: bool,
}

/// Every rule the engine knows, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "f64-eq-fingerprint",
        summary: "raw f64 ==/!= against a float literal; compare via to_bits or justify the IEEE semantics",
        allowable: true,
    },
    Rule {
        name: "lock-unwrap",
        summary: ".lock().unwrap() cascades poison; use unwrap_or_else(PoisonError::into_inner)",
        allowable: true,
    },
    Rule {
        name: "rogue-spawn",
        summary: "thread spawn outside the sanctioned spawn layers (pool, parallel, dispatcher, modelcheck)",
        allowable: true,
    },
    Rule {
        name: "wall-clock-in-dispatcher",
        summary: "wall-clock read in admission.rs; the linger window is ticket-count based by design",
        allowable: true,
    },
    Rule {
        name: "sync-facade",
        summary: "bare std::sync/std::thread primitive in the model-checked layer; use xsum_graph::sync",
        allowable: true,
    },
    Rule {
        name: "raw-epoch-bump",
        summary: "epoch minted or epoch field written outside graph.rs; bumps must go through the delta ledger",
        allowable: true,
    },
    Rule {
        name: "unsafe-without-safety",
        summary: "unsafe without a // SAFETY: comment (or # Safety doc) directly above; not allowlistable",
        allowable: false,
    },
];

fn rule(name: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.name == name)
        .expect("rule names are static")
}

/// One lint hit: rule, location, the offending source line and a
/// remediation message.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub excerpt: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )?;
        write!(f, "    {}", self.excerpt.trim())
    }
}

/// The outcome of a whole-workspace scan.
#[derive(Debug, Default)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scan the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            // Vendored API-compatible shims follow their upstream's
            // idiom (bare std primitives, unsafe where upstream has
            // it) and are not product source.
            if entry.file_name() == "shims" {
                continue;
            }
            collect_rs(&entry.path().join("src"), &mut files)?;
        }
    }
    files.sort();

    let mut report = LintReport::default();
    for path in files {
        let text = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        report.findings.extend(lint_source(&rel, &text));
        report.files_scanned += 1;
    }
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one source file (pure; the unit the fixture tests drive).
/// `path` is the workspace-relative path, which several rules use for
/// scoping.
pub fn lint_source(path: &str, text: &str) -> Vec<Finding> {
    let raw: Vec<&str> = text.lines().collect();
    let mut findings = Vec::new();
    for (idx, line) in raw.iter().enumerate() {
        // Test modules sit at the bottom of their files; everything
        // after a column-zero `#[cfg(test)]` is test-only code.
        if line.trim_end() == "#[cfg(test)]" && !line.starts_with(char::is_whitespace) {
            break;
        }
        let code = strip_strings_and_comment(line);
        let compact: String = code.chars().filter(|c| !c.is_whitespace()).collect();
        for hit in check_line(path, &code, &compact) {
            filter_allow(path, &raw, idx, hit, &mut findings);
        }
    }
    findings
}

/// All rule hits for one (stripped) line; allow handling comes later.
fn check_line(path: &str, code: &str, compact: &str) -> Vec<(&'static str, String)> {
    let mut hits = Vec::new();

    if compact.contains(".lock().unwrap()")
        || compact.contains(".read().unwrap()")
        || compact.contains(".write().unwrap()")
    {
        hits.push((
            "lock-unwrap",
            "propagates poison across threads; take the lock with \
             `.unwrap_or_else(PoisonError::into_inner)` (see CONCURRENCY.md)"
                .to_string(),
        ));
    }

    if !SPAWN_EXEMPT.iter().any(|f| path.ends_with(f))
        && ["thread::spawn(", "thread::Builder::new(", "thread::scope("]
            .iter()
            .any(|p| compact.contains(p))
    {
        hits.push((
            "rogue-spawn",
            "threads are owned by the worker pool, the scoped-parallel \
             helpers or the admission dispatcher; spawning elsewhere \
             escapes shutdown and panic containment"
                .to_string(),
        ));
    }

    if path.ends_with("core/src/admission.rs")
        && (compact.contains("Instant::now(") || compact.contains("SystemTime::now("))
    {
        hits.push((
            "wall-clock-in-dispatcher",
            "the linger window is ticket-count based, never timed; a \
             wall-clock read here must be a caller-side deadline or an \
             expiry stamp, and must say which"
                .to_string(),
        ));
    }

    if (path.starts_with("crates/graph/src") || path.starts_with("crates/core/src"))
        && !path.ends_with("graph/src/sync.rs")
    {
        if let Some(detail) = facade_violation(compact) {
            hits.push((
                "sync-facade",
                format!(
                    "{detail} bypasses the `xsum_graph::sync` facade, so \
                     `--cfg xsum_loom` cannot model-check this code path"
                ),
            ));
        }
    }

    if let Some(op) = float_literal_cmp(compact) {
        hits.push((
            "f64-eq-fingerprint",
            format!(
                "raw `{op}` against a float literal; fingerprint via \
                 `to_bits` (NaN-stable, -0.0/0.0-distinct) or justify \
                 the exact IEEE comparison"
            ),
        ));
    }

    if !path.ends_with("graph/src/graph.rs") && raw_epoch_bump(compact) {
        hits.push((
            "raw-epoch-bump",
            "epochs are minted only by graph.rs mutation entry points \
             (set_weight/apply_delta/structural mutators), which record \
             the change in the weight-delta ledger; a raw bump here \
             advances cache keys behind the ledger's back"
                .to_string(),
        ));
    }

    if has_unsafe_token(code) {
        hits.push((
            "unsafe-without-safety",
            "every `unsafe` needs its obligations written down in a \
             `// SAFETY:` comment (or `# Safety` doc section) directly \
             above it"
                .to_string(),
        ));
    }

    hits
}

/// Files whose job is to spawn threads: the pool, the scoped-parallel
/// helpers, the facade, the admission dispatcher and the model-check
/// scenarios (whose logical threads run under the loom scheduler).
const SPAWN_EXEMPT: &[&str] = &[
    "graph/src/pool.rs",
    "graph/src/parallel.rs",
    "graph/src/sync.rs",
    "core/src/admission.rs",
    "core/src/modelcheck.rs",
];

/// A bare-std primitive use that the facade should mediate, if any.
fn facade_violation(compact: &str) -> Option<&'static str> {
    for pat in ["std::sync::Mutex", "std::sync::Condvar"] {
        if compact.contains(pat) {
            return Some("a std lock primitive");
        }
    }
    if compact.contains("std::sync::atomic::Atomic") {
        return Some("a std atomic");
    }
    // Brace imports: `use std::sync::{..., Mutex, ...}`.
    if let Some(pos) = compact.find("std::sync::{") {
        let inner = &compact[pos + "std::sync::{".len()..];
        let inner = inner.split('}').next().unwrap_or(inner);
        if inner.split(',').any(|t| t == "Mutex" || t == "Condvar") {
            return Some("a std lock primitive");
        }
    }
    if let Some(pos) = compact.find("std::sync::atomic::{") {
        let inner = &compact[pos + "std::sync::atomic::{".len()..];
        let inner = inner.split('}').next().unwrap_or(inner);
        if inner.split(',').any(|t| t.starts_with("Atomic")) {
            return Some("a std atomic");
        }
    }
    if let Some(pos) = compact.find("std::thread::") {
        let rest = &compact[pos + "std::thread::".len()..];
        for entry in ["spawn", "Builder", "scope", "sleep", "yield_now", "park"] {
            if rest.starts_with(entry) {
                return Some("a std thread operation");
            }
        }
    }
    None
}

/// Detect `== 1.5` / `1.5 !=` style comparisons (float literal on
/// either side of an equality operator). Lines that already
/// fingerprint via `to_bits` are exempt.
fn float_literal_cmp(compact: &str) -> Option<&'static str> {
    if compact.contains("to_bits") {
        return None;
    }
    let bytes = compact.as_bytes();
    for (pos, op) in [("==", "=="), ("!=", "!=")]
        .iter()
        .flat_map(|(pat, op)| compact.match_indices(pat).map(move |(i, _)| (i, *op)))
        .collect::<Vec<_>>()
    {
        // `!=` shares no prefix with other operators; for `==` skip
        // `<=`/`>=`/`==`-chains by requiring the char before not be
        // an operator char.
        if op == "==" && pos > 0 && matches!(bytes[pos - 1], b'<' | b'>' | b'!' | b'=') {
            continue;
        }
        if float_literal_at(&compact[pos + 2..]) || float_literal_before(&compact[..pos]) {
            return Some(op);
        }
    }
    None
}

/// Does `rest` begin with a float literal (`1.`, `1.5`, `1.5f64`,
/// `1e-3`, `f64::NAN`-style constants excluded on purpose)?
fn float_literal_at(rest: &str) -> bool {
    let rest = rest.trim_start_matches(['-', '(']);
    let mut it = rest.char_indices().peekable();
    let mut digits = 0;
    while let Some(&(_, c)) = it.peek() {
        if c.is_ascii_digit() || c == '_' {
            digits += 1;
            it.next();
        } else {
            break;
        }
    }
    if digits == 0 {
        return false;
    }
    match it.peek() {
        Some(&(_, '.')) => {
            it.next();
            // `1.` and `1.5` are both float literals; `1..` is a range.
            !matches!(it.peek(), Some(&(_, '.')))
        }
        Some(&(i, 'f')) => rest[i..].starts_with("f64") || rest[i..].starts_with("f32"),
        _ => false,
    }
}

/// Does `before` end with a float literal?
fn float_literal_before(before: &str) -> bool {
    let trimmed = before.trim_end();
    let tail: String = trimmed
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    let tail = tail.trim_end_matches("f64").trim_end_matches("f32");
    if tail.is_empty() || !tail.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return false;
    }
    let mut dots = 0;
    for c in tail.chars() {
        match c {
            '0'..='9' | '_' => {}
            '.' => dots += 1,
            _ => return false,
        }
    }
    dots == 1 && !tail.ends_with("..")
}

/// An epoch mint (`next_epoch(`) or a direct write to an
/// `epoch`/`structural_epoch` field. Storing an observed epoch into an
/// `Option` (`= Some(epoch)` / `= None`) is a cache of someone else's
/// bump, not a bump, and stays clean.
fn raw_epoch_bump(compact: &str) -> bool {
    if compact.contains("next_epoch(") {
        return true;
    }
    for pat in [".epoch=", ".structural_epoch="] {
        let mut start = 0;
        while let Some(i) = compact[start..].find(pat) {
            let after = start + i + pat.len();
            let rest = &compact[after..];
            // `==` is a comparison; `Some(`/`None` records an observed
            // epoch rather than minting one.
            if !rest.starts_with('=') && !rest.starts_with("Some(") && !rest.starts_with("None") {
                return true;
            }
            start = after;
        }
    }
    false
}

/// An `unsafe` keyword token (not `unsafe_code` etc.) in stripped code.
fn has_unsafe_token(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (i, _) in code.match_indices("unsafe") {
        let before_ok = i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        let after = i + "unsafe".len();
        let after_ok =
            after >= bytes.len() || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Decide whether `hit` on line `idx` is suppressed, mis-allowed or a
/// real finding, and push the outcome.
fn filter_allow(
    path: &str,
    raw: &[&str],
    idx: usize,
    hit: (&'static str, String),
    out: &mut Vec<Finding>,
) {
    let (rule_name, message) = hit;
    let info = rule(rule_name);

    // `unsafe-without-safety` is discharged by documentation, not by
    // allowlisting: accept a SAFETY comment (or a `# Safety` doc
    // section) in the contiguous comment/attribute block above.
    if rule_name == "unsafe-without-safety" && safety_documented(raw, idx) {
        return;
    }

    // An allow for this rule on the line itself or anywhere in the
    // contiguous comment block directly above, so an allow can carry a
    // multi-line justification and a line that breaks two rules can
    // carry one allow for each.
    let block = (0..idx)
        .rev()
        .take_while(|&i| raw[i].trim_start().starts_with("//"));
    let allow = std::iter::once(idx)
        .chain(block)
        .filter_map(|i| parse_allow(raw[i]))
        .find(|a| a.rule == rule_name);

    match allow {
        Some(a) => {
            if !info.allowable {
                out.push(finding(
                    rule_name,
                    path,
                    raw,
                    idx,
                    format!("`{rule_name}` cannot be allowlisted; {message}"),
                ));
            } else if !a.justified {
                out.push(finding(
                    rule_name,
                    path,
                    raw,
                    idx,
                    format!("allow without a justification; {message}"),
                ));
            }
            // Justified allow on an allowable rule: suppressed.
        }
        _ => out.push(finding(rule_name, path, raw, idx, message)),
    }
}

fn finding(rule: &'static str, path: &str, raw: &[&str], idx: usize, message: String) -> Finding {
    Finding {
        rule,
        path: path.to_string(),
        line: idx + 1,
        excerpt: raw[idx].to_string(),
        message,
    }
}

/// Walk the contiguous comment / attribute / blank block above `idx`
/// looking for a SAFETY marker. Covers `// SAFETY:` on the preceding
/// line as well as a `/// # Safety` section in the doc block of an
/// `unsafe fn`. Same-line trailing SAFETY comments count too.
fn safety_documented(raw: &[&str], idx: usize) -> bool {
    if raw[idx].contains("SAFETY") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = raw[i].trim();
        let contiguous =
            t.is_empty() || t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!");
        if !contiguous {
            return false;
        }
        if t.contains("SAFETY") || t.contains("# Safety") {
            return true;
        }
    }
    false
}

struct Allow {
    rule: String,
    justified: bool,
}

/// Parse `// xlint: allow(rule) — justification` out of a raw line's
/// comment portion.
fn parse_allow(line: &str) -> Option<Allow> {
    let comment_at = find_comment(line)?;
    let comment = &line[comment_at..];
    let start = comment.find("xlint: allow(")? + "xlint: allow(".len();
    let rest = &comment[start..];
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let just = rest[close + 1..]
        .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
        .trim();
    Some(Allow {
        rule,
        justified: just.chars().filter(|c| c.is_alphanumeric()).count() >= 8,
    })
}

/// Byte offset of the `//` that starts this line's comment, ignoring
/// `//` inside string literals.
fn find_comment(line: &str) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            if escaped {
                escaped = false;
            } else if c == b'\\' {
                escaped = true;
            } else if c == b'"' {
                in_str = false;
            }
        } else if c == b'"' {
            in_str = true;
        } else if c == b'\'' && i + 2 < bytes.len() {
            // Skip char literals like '"' or '\\' so their quote
            // cannot open a phantom string.
            if bytes[i + 1] == b'\\' && i + 3 < bytes.len() && bytes[i + 3] == b'\'' {
                i += 3;
            } else if bytes[i + 2] == b'\'' {
                i += 2;
            }
        } else if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// The line with string-literal contents and any `//` comment removed,
/// so patterns inside strings or prose never match.
fn strip_strings_and_comment(line: &str) -> String {
    let code_end = find_comment(line).unwrap_or(line.len());
    let mut out = String::with_capacity(code_end);
    let mut in_str = false;
    let mut escaped = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < code_end {
        let c = bytes[i] as char;
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
                out.push('"');
            }
        } else if c == '"' {
            in_str = true;
            out.push('"');
        } else if c == '\''
            && i + 2 < bytes.len()
            && (bytes[i + 2] == b'\'' || bytes[i + 1] == b'\\')
        {
            // Char literal: emit a placeholder and skip its body.
            out.push('\'');
            if bytes[i + 1] == b'\\' && i + 3 < bytes.len() && bytes[i + 3] == b'\'' {
                i += 3;
            } else {
                i += 2;
            }
            out.push('\'');
        } else {
            out.push(c);
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    const NEUTRAL: &str = "crates/bench/src/fixture.rs";
    const GRAPH: &str = "crates/graph/src/fixture.rs";
    const ADMISSION: &str = "crates/core/src/admission.rs";

    // ---- f64-eq-fingerprint -------------------------------------------

    #[test]
    fn f64_eq_positive_both_sides() {
        let f = lint_source(NEUTRAL, "fn f(x: f64) -> bool { x == 0.5 }\n");
        assert_eq!(rules_of(&f), ["f64-eq-fingerprint"]);
        let f = lint_source(NEUTRAL, "fn f(x: f64) -> bool { 0.5 != x }\n");
        assert_eq!(rules_of(&f), ["f64-eq-fingerprint"]);
        let f = lint_source(NEUTRAL, "fn f(x: f64) -> bool { x == 1f64 }\n");
        assert_eq!(rules_of(&f), ["f64-eq-fingerprint"]);
    }

    #[test]
    fn f64_eq_negative() {
        // Integer comparison, to_bits fingerprints, ranges and
        // comparison operators sharing `=` are all clean.
        for src in [
            "fn f(n: u32) -> bool { n == 5 }\n",
            "fn f(x: f64, y: f64) -> bool { x.to_bits() == y.to_bits() }\n",
            "fn f(x: f64) -> bool { x <= 0.5 }\n",
            "fn f(x: f64) -> bool { x >= 0.5 }\n",
            "let r = 0..2;\n",
        ] {
            assert!(
                lint_source(NEUTRAL, src).is_empty(),
                "false positive on {src:?}"
            );
        }
    }

    #[test]
    fn f64_eq_allowlisted() {
        let src = "fn f(x: f64) -> bool { x == 0.0 } \
                   // xlint: allow(f64-eq-fingerprint) — exact IEEE zero test is the documented contract\n";
        assert!(lint_source(NEUTRAL, src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_reported() {
        let src = "fn f(x: f64) -> bool { x == 0.0 } // xlint: allow(f64-eq-fingerprint)\n";
        let f = lint_source(NEUTRAL, src);
        assert_eq!(rules_of(&f), ["f64-eq-fingerprint"]);
        assert!(f[0].message.contains("without a justification"));
    }

    // ---- lock-unwrap --------------------------------------------------

    #[test]
    fn lock_unwrap_positive() {
        let f = lint_source(NEUTRAL, "let g = m.lock().unwrap();\n");
        assert_eq!(rules_of(&f), ["lock-unwrap"]);
        let f = lint_source(NEUTRAL, "let g = m.write() . unwrap();\n");
        assert_eq!(rules_of(&f), ["lock-unwrap"]);
    }

    #[test]
    fn lock_unwrap_negative() {
        let src = "let g = m.lock().unwrap_or_else(PoisonError::into_inner);\n";
        assert!(lint_source(NEUTRAL, src).is_empty());
        // The pattern inside a string literal is prose, not code.
        let src = "let msg = \"never call .lock().unwrap() here\";\n";
        assert!(lint_source(NEUTRAL, src).is_empty());
    }

    #[test]
    fn lock_unwrap_allow_on_previous_line() {
        let src = "// xlint: allow(lock-unwrap) — single-threaded setup code, poison impossible\n\
                   let g = m.lock().unwrap();\n";
        assert!(lint_source(NEUTRAL, src).is_empty());
    }

    #[test]
    fn stacked_allows_cover_one_rule_each() {
        let spawn = "std::thread::scope(|s| {});\n";
        let facade = "// xlint: allow(sync-facade) — scoped thread over borrowed state, model-checked elsewhere\n";
        let rogue =
            "// xlint: allow(rogue-spawn) — one thread per call, joined before it returns\n";
        let core = "crates/core/src/wire.rs";
        assert_eq!(
            rules_of(&lint_source(core, spawn)),
            ["rogue-spawn", "sync-facade"]
        );
        // Each allow suppresses its own rule only.
        let f = lint_source(core, &format!("{rogue}{spawn}"));
        assert_eq!(rules_of(&f), ["sync-facade"]);
        let f = lint_source(core, &format!("{facade}{spawn}"));
        assert_eq!(rules_of(&f), ["rogue-spawn"]);
        // Stacked in one comment block, in either order, they cover both.
        assert!(lint_source(core, &format!("{facade}{rogue}{spawn}")).is_empty());
        assert!(lint_source(core, &format!("{rogue}{facade}{spawn}")).is_empty());
        // A code line ends the block: an allow above it does not reach.
        let f = lint_source(core, &format!("{facade}let x = 1;\n{rogue}{spawn}"));
        assert_eq!(rules_of(&f), ["sync-facade"]);
    }

    // ---- rogue-spawn --------------------------------------------------

    #[test]
    fn rogue_spawn_positive() {
        let f = lint_source(NEUTRAL, "let h = std::thread::spawn(|| {});\n");
        assert_eq!(rules_of(&f), ["rogue-spawn"]);
        let f = lint_source(NEUTRAL, "std::thread::scope(|s| {});\n");
        assert_eq!(rules_of(&f), ["rogue-spawn"]);
    }

    #[test]
    fn rogue_spawn_exempt_in_spawn_layers() {
        for path in [
            "crates/graph/src/pool.rs",
            "crates/graph/src/parallel.rs",
            "crates/core/src/admission.rs",
            "crates/core/src/modelcheck.rs",
        ] {
            let f = lint_source(path, "let h = thread::spawn(|| {});\n");
            assert!(
                !rules_of(&f).contains(&"rogue-spawn"),
                "spawn layer {path} must be exempt"
            );
        }
    }

    // ---- wall-clock-in-dispatcher ------------------------------------

    #[test]
    fn wall_clock_scoped_to_admission() {
        let src = "let now = Instant::now();\n";
        let f = lint_source(ADMISSION, src);
        assert_eq!(rules_of(&f), ["wall-clock-in-dispatcher"]);
        assert!(lint_source(NEUTRAL, src).is_empty());
    }

    #[test]
    fn wall_clock_allowlisted() {
        let src = "// xlint: allow(wall-clock-in-dispatcher) — caller-side deadline, never drives the linger window\n\
                   let now = Instant::now();\n";
        assert!(lint_source(ADMISSION, src).is_empty());
    }

    // ---- sync-facade --------------------------------------------------

    #[test]
    fn sync_facade_positive() {
        for src in [
            "use std::sync::{Mutex, PoisonError};\n",
            "use std::sync::Condvar;\n",
            "use std::sync::atomic::{AtomicU64, Ordering};\n",
            "static G: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);\n",
            "std::thread::scope(|s| {});\n",
        ] {
            let f = lint_source(GRAPH, src);
            assert!(
                rules_of(&f).contains(&"sync-facade"),
                "missed facade bypass in {src:?}"
            );
        }
    }

    #[test]
    fn sync_facade_negative() {
        for src in [
            // Arc, poison plumbing and Ordering are std in both modes.
            "use std::sync::{Arc, PoisonError, Weak};\n",
            "use std::sync::atomic::Ordering;\n",
            "let t = std::thread::current();\n",
            "if std::thread::panicking() {}\n",
        ] {
            assert!(
                lint_source(GRAPH, src).is_empty(),
                "false positive on {src:?}"
            );
        }
        // Outside the model-checked layer the rule does not apply.
        assert!(lint_source(NEUTRAL, "use std::sync::Mutex;\n").is_empty());
        // The facade itself is the one sanctioned site.
        assert!(lint_source("crates/graph/src/sync.rs", "pub use std::sync::Mutex;\n").is_empty());
    }

    // ---- raw-epoch-bump -----------------------------------------------

    #[test]
    fn raw_epoch_bump_positive() {
        for src in [
            "self.epoch = next_epoch();\n",
            "let e = next_epoch();\n",
            "g.structural_epoch = e;\n",
            "self.epoch = self.epoch + 1;\n",
        ] {
            let f = lint_source(GRAPH, src);
            assert_eq!(rules_of(&f), ["raw-epoch-bump"], "missed bump in {src:?}");
        }
    }

    #[test]
    fn raw_epoch_bump_negative() {
        for src in [
            // Observing/caching an epoch is not minting one.
            "self.epoch = Some(epoch);\n",
            "self.epoch = None;\n",
            "if self.epoch == Some(epoch) { return; }\n",
            "let e = g.epoch();\n",
        ] {
            assert!(
                lint_source(GRAPH, src).is_empty(),
                "false positive on {src:?}"
            );
        }
        // graph.rs itself is the one sanctioned minting site.
        assert!(
            lint_source("crates/graph/src/graph.rs", "self.epoch = next_epoch();\n").is_empty()
        );
    }

    #[test]
    fn raw_epoch_bump_allowlisted() {
        let src = "// xlint: allow(raw-epoch-bump) — test-only epoch forgery to probe stale-key handling\n\
                   self.epoch = next_epoch();\n";
        assert!(lint_source(GRAPH, src).is_empty());
    }

    // ---- unsafe-without-safety ---------------------------------------

    #[test]
    fn unsafe_requires_safety_comment() {
        let f = lint_source(NEUTRAL, "let v = unsafe { p.read() };\n");
        assert_eq!(rules_of(&f), ["unsafe-without-safety"]);
    }

    #[test]
    fn unsafe_discharged_by_safety_comment() {
        let src = "// SAFETY: p is valid for reads, checked above.\n\
                   let v = unsafe { p.read() };\n";
        assert!(lint_source(NEUTRAL, src).is_empty());
        let src = "/// Does things.\n///\n/// # Safety\n///\n/// Caller must own `p`.\npub unsafe fn f(p: *const u8) {}\n";
        assert!(lint_source(NEUTRAL, src).is_empty());
    }

    #[test]
    fn unsafe_cannot_be_allowlisted() {
        let src = "// xlint: allow(unsafe-without-safety) — trust me, it is fine honestly\n\
                   let v = unsafe { p.read() };\n";
        let f = lint_source(NEUTRAL, src);
        assert_eq!(rules_of(&f), ["unsafe-without-safety"]);
        assert!(f[0].message.contains("cannot be allowlisted"));
    }

    #[test]
    fn forbid_attribute_is_not_an_unsafe_token() {
        assert!(lint_source(NEUTRAL, "#![forbid(unsafe_code)]\n").is_empty());
    }

    // ---- scanner mechanics -------------------------------------------

    #[test]
    fn test_modules_are_skipped() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n    \
                       fn t() { let g = m.lock().unwrap(); }\n\
                   }\n";
        assert!(lint_source(NEUTRAL, src).is_empty());
    }

    #[test]
    fn finding_reports_location() {
        let f = lint_source(NEUTRAL, "fn a() {}\nlet g = m.lock().unwrap();\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].path, NEUTRAL);
        assert_eq!(f[0].line, 2);
        assert!(f[0].excerpt.contains("lock()"));
    }

    /// The teeth behind `repro lint` exiting zero: the real workspace
    /// must be clean. Run from anywhere inside the workspace.
    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_workspace(&root).expect("workspace sources readable");
        assert!(report.files_scanned > 40, "scanner lost the source tree");
        assert!(
            report.clean(),
            "xlint findings in the tree:\n{}",
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
