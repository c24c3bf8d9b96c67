//! # noelle-ide
//!
//! LSP-style incremental analysis frontend over textual `.nir` documents.
//!
//! The paper's abstractions are demand-driven and (since the incremental
//! engine landed) cheap to *repair*; this crate closes the last gap to an
//! editor session pushing analysis on every keystroke: a versioned
//! **document session** that accepts textual edits, re-parses only the
//! damaged region, maps changed functions onto the manager's edit
//! transactions, and re-lints only the damaged partitions.
//!
//! The pipeline per change:
//!
//! 1. **Line diff.** The new text is diffed against the current text by
//!    common prefix/suffix, yielding one changed line window.
//! 2. **Diff-parse.** If the window falls inside exactly one function's
//!    [`FuncSpan`] (and the document currently parses), only that snippet is
//!    re-lexed with [`parse_function_text`]; otherwise the whole text is
//!    re-parsed, and if the module *shape* (name, metadata, globals,
//!    function list) is unchanged the result is applied as an in-place
//!    multi-function edit instead of a cold reload.
//! 3. **Fingerprint gate.** Functions whose
//!    [`content_fingerprint`](noelle_ir::module::Function::content_fingerprint)
//!    is unchanged are not edits at all (comment/whitespace changes); the
//!    session just shifts its spans.
//! 4. **Damage-scoped re-lint.** Real edits go through
//!    [`Noelle::edit_with_damage`]; exactly the damage set's function-local
//!    findings are re-derived ([`run_local_checks`]) and the whole-module
//!    passes re-run ([`run_global_checks`], O(functions) without task
//!    dispatch sites). Untouched functions keep their cached findings.
//! 5. **Graceful degradation.** A parse error (snippet or whole-text)
//!    *keeps* the last-good analysis and its diagnostics; the session
//!    reports the syntax error alongside them and recovers in place once a
//!    later change parses again.
//!
//! The merged findings are byte-identical (via `render_json`) to a cold
//! parse + lint of the current document text — the property the test suite
//! checks across the whole workload corpus.

use noelle_core::json::{envelope, Json};
use noelle_core::noelle::{AliasTier, Noelle};
use noelle_ir::module::{FuncId, Module};
use noelle_ir::parser::{parse_function_text, parse_module_spanned, FuncSpan, ParseError};
use noelle_lint::{
    audit_findings, render_json, run_audit_scoped, run_global_checks, run_local_checks,
    sort_findings, Finding,
};
use noelle_plan::{plan_from_audit, PlanOptions};
use std::collections::{BTreeMap, BTreeSet};

/// One edit to a document, as carried by `ide/change`.
#[derive(Debug, Clone)]
pub enum Change {
    /// Replace the whole text.
    Full(String),
    /// Replace lines `[start_line, end_line)` (1-based, end exclusive) with
    /// `lines`. `start_line == end_line` inserts before `start_line`.
    Splice {
        start_line: usize,
        end_line: usize,
        lines: Vec<String>,
    },
}

/// Counters a session keeps about its own behavior (surfaced in the
/// daemon's `stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DocCounters {
    /// Changes accepted (version bumps).
    pub changes: u64,
    /// Changes served by the single-function diff-parser.
    pub incremental_reparses: u64,
    /// Changes that re-parsed the whole text.
    pub full_reparses: u64,
    /// Changes whose text failed to parse (session degraded to last-good).
    pub parse_failures: u64,
    /// Function-local re-lints performed (damage set sizes, summed).
    pub relinted_functions: u64,
    /// Functions whose parallelism audit was re-derived (damage set sizes,
    /// summed — equals `relinted_functions` since audit rides the same
    /// damage path).
    pub reaudited_functions: u64,
}

/// What one accepted change did.
#[derive(Debug, Clone)]
pub struct ChangeOutcome {
    /// Document version after the change.
    pub version: u64,
    /// True when the single-function diff-parse path served the change.
    pub incremental: bool,
    /// Names of functions whose analysis results were re-derived.
    pub changed_functions: Vec<String>,
    /// Functions re-linted (the damage set size).
    pub relinted: usize,
    /// The syntax error the text now carries, if it failed to parse.
    pub syntax_error: Option<ParseError>,
}

/// The last successfully analyzed state of a document.
struct GoodState {
    noelle: Noelle,
    /// Source spans of every `define`, in definition order, valid for the
    /// text this state was parsed from.
    spans: Vec<FuncSpan>,
    /// Function-local findings, bucketed by function name. Only buckets in
    /// the damage set of an edit are recomputed.
    local: BTreeMap<String, Vec<Finding>>,
    /// Whole-module findings (races, env-slots), recomputed per edit.
    global: Vec<Finding>,
    /// Parallelism-audit findings (NL01xx), bucketed by the loop-owning
    /// function. Re-derived for exactly the damage set of an edit — the
    /// incremental engine's damage already includes the interprocedural
    /// dependents whose loop verdicts an edit can flip.
    audit_local: BTreeMap<String, Vec<Finding>>,
    /// Body fingerprints from the last audit. The audit reads nothing but
    /// function bodies (loop structure, dependences, points-to rows,
    /// callee summaries), so a damage set whose bodies all hash unchanged
    /// — a metadata-only edit — provably cannot move any audit verdict,
    /// and `relint` skips the re-audit outright.
    body_fps: BTreeMap<FuncId, u64>,
    /// The audit buckets the *last* relint re-derived (empty when the edit
    /// was metadata-only). `ide/change` replies push exactly this delta —
    /// serializing the whole module's hints on every keystroke would make
    /// the reply O(module); pulls (`ide/diagnostics`) still get everything.
    audit_fresh: BTreeMap<String, Vec<Finding>>,
    /// Planner hints, bucketed by loop-owning function: for every loop the
    /// audit marks clean for at least one technique, the per-candidate
    /// predicted-speedup table ([`noelle_plan::LoopPlan::to_json`]). Derived
    /// from the same scoped audit `audit_local` comes from, so the planner
    /// rides the damage path for free (no second audit).
    plan_hints: BTreeMap<String, Json>,
    /// The plan buckets the *last* relint re-derived (the push delta,
    /// mirroring `audit_fresh`).
    plan_fresh: BTreeMap<String, Json>,
}

impl GoodState {
    /// Cold-start a state from a freshly parsed module: full lint, all
    /// buckets.
    fn cold(module: Module, spans: Vec<FuncSpan>, tier: AliasTier) -> GoodState {
        let mut noelle = Noelle::new(module, tier);
        let all: BTreeSet<FuncId> = noelle.module().func_ids().collect();
        let local = bucket_local(&mut noelle, &all);
        let global = run_global_checks(&mut noelle);
        let (audit_local, plan_hints) = bucket_audit(&mut noelle, &all);
        let body_fps = all
            .iter()
            .map(|&fid| (fid, noelle.module().func(fid).body_fingerprint()))
            .collect();
        let audit_fresh = audit_local.clone();
        let plan_fresh = plan_hints.clone();
        GoodState {
            noelle,
            spans,
            local,
            global,
            audit_local,
            body_fps,
            audit_fresh,
            plan_hints,
            plan_fresh,
        }
    }

    /// Re-derive the buckets of `damage` and the whole-module findings.
    /// Returns how many functions were re-audited.
    fn relint(&mut self, damage: &BTreeSet<FuncId>) -> usize {
        let fresh = bucket_local(&mut self.noelle, damage);
        // A bucket keyed by a name no longer in the module (replaced
        // function sets keep their names here, but shape changes go through
        // `cold`) would leak; damage buckets overwrite by name.
        self.local.extend(fresh);
        self.global = run_global_checks(&mut self.noelle);
        // The audit reads only function bodies; if every damaged body
        // hashes unchanged (a metadata-only edit), no verdict can move and
        // the cached hints stand as-is.
        let mut body_changed = false;
        for &fid in damage {
            let fp = self.noelle.module().func(fid).body_fingerprint();
            if self.body_fps.insert(fid, fp) != Some(fp) {
                body_changed = true;
            }
        }
        if !body_changed {
            self.audit_fresh.clear();
            self.plan_fresh.clear();
            return 0;
        }
        // Audit attribution reaches one call-graph hop beyond a function's
        // body (call sites of its direct callers, store sites of its direct
        // callees), so the audit re-derives the damage set plus that one-hop
        // closure — still proportional to the edit, never the module.
        let audit_damage = audit_closure(self.noelle.module(), damage);
        let (fresh_audit, fresh_plan) = bucket_audit(&mut self.noelle, &audit_damage);
        self.audit_fresh = fresh_audit.clone();
        self.audit_local.extend(fresh_audit);
        self.plan_fresh = fresh_plan.clone();
        self.plan_hints.extend(fresh_plan);
        audit_damage.len()
    }
}

/// `damage` plus its direct callees and direct callers: every function whose
/// audit attribution an edit inside `damage` can move.
fn audit_closure(m: &Module, damage: &BTreeSet<FuncId>) -> BTreeSet<FuncId> {
    use noelle_ir::inst::{Callee, Inst};
    let mut out = damage.clone();
    for fid in m.func_ids() {
        let f = m.func(fid);
        for &b in f.block_order() {
            for &i in &f.block(b).insts {
                if let Inst::Call {
                    callee: Callee::Direct(cid),
                    ..
                } = f.inst(i)
                {
                    // Caller damaged: its callees' cross lists move.
                    if damage.contains(&fid) {
                        out.insert(*cid);
                    }
                    // Callee damaged: its callers' impure-call evidence
                    // moves.
                    if damage.contains(cid) {
                        out.insert(fid);
                    }
                }
            }
        }
    }
    out
}

/// Run the function-local passes over `funcs` and bucket the findings by
/// function name, with an explicit empty bucket for every quiet function
/// (so stale findings are cleared, not kept).
fn bucket_local(n: &mut Noelle, funcs: &BTreeSet<FuncId>) -> BTreeMap<String, Vec<Finding>> {
    let findings = run_local_checks(n, funcs);
    let mut buckets: BTreeMap<String, Vec<Finding>> = funcs
        .iter()
        .map(|&fid| (n.module().func(fid).name.clone(), Vec::new()))
        .collect();
    for f in findings {
        buckets
            .get_mut(&f.loc.function)
            .expect("scoped finding anchors in its scope")
            .push(f);
    }
    buckets
}

/// Run the parallelism auditor over `funcs` only and bucket the NL01xx
/// findings by loop-owning function, with explicit empty buckets so a loop
/// whose blockers were just resolved drops its stale hints. The same scoped
/// audit also feeds the planner: the second map holds, per function, the
/// per-candidate predicted-speedup rows of every loop with at least one
/// clean technique (again with explicit empty buckets, so a loop that just
/// lost its last clean verdict drops its stale plan hint).
fn bucket_audit(
    n: &mut Noelle,
    funcs: &BTreeSet<FuncId>,
) -> (BTreeMap<String, Vec<Finding>>, BTreeMap<String, Json>) {
    let audit = run_audit_scoped(n, Some(funcs));
    let findings = audit_findings(n.module(), &audit);
    let mut buckets: BTreeMap<String, Vec<Finding>> = funcs
        .iter()
        .map(|&fid| (n.module().func(fid).name.clone(), Vec::new()))
        .collect();
    for f in findings {
        buckets
            .get_mut(&f.loc.function)
            .expect("audit finding anchors in an audited function")
            .push(f);
    }
    let plan = plan_from_audit(n, &audit, &PlanOptions::default());
    let mut plan_rows: BTreeMap<String, Vec<Json>> = funcs
        .iter()
        .map(|&fid| (n.module().func(fid).name.clone(), Vec::new()))
        .collect();
    for l in plan.loops.iter().filter(|l| l.any_clean()) {
        // A weight is the loop's share among the loops planned *together*:
        // a scoped re-plan cannot know the module-wide number, and a row
        // carrying its own would disagree with a cold open of the same
        // text. Stored rows carry none.
        let mut row = l.to_json();
        if let Json::Object(fields) = &mut row {
            fields.remove("weight");
        }
        plan_rows
            .get_mut(&l.function)
            .expect("planned loop anchors in an audited function")
            .push(row);
    }
    let plan_buckets = plan_rows
        .into_iter()
        .map(|(name, rows)| (name, Json::Array(rows)))
        .collect();
    (buckets, plan_buckets)
}

/// True when `new` has the same *shape* as `old`: same module name and
/// metadata, same globals (by fingerprint), and the same function list
/// (names, order, declaration-ness). Shape-preserving re-parses can be
/// applied as in-place function swaps, keeping every undamaged cache slot.
fn same_shape(old: &Module, new: &Module) -> bool {
    old.name == new.name
        && old.metadata == new.metadata
        && old.globals_fingerprint() == new.globals_fingerprint()
        && old.functions().len() == new.functions().len()
        && old
            .functions()
            .iter()
            .zip(new.functions())
            .all(|(a, b)| a.name == b.name && a.is_declaration() == b.is_declaration())
}

fn split_lines(text: &str) -> Vec<String> {
    text.split('\n').map(str::to_string).collect()
}

/// One open document: current text (always, even when it does not parse),
/// version, and the last-good analysis state.
pub struct DocSession {
    name: String,
    lines: Vec<String>,
    version: u64,
    tier: AliasTier,
    good: Option<GoodState>,
    syntax_error: Option<ParseError>,
    counters: DocCounters,
}

impl DocSession {
    /// Open a document at version 1. A text that fails to parse still opens
    /// (there is just no analysis yet, only the syntax error).
    pub fn open(name: impl Into<String>, text: &str, tier: AliasTier) -> DocSession {
        let mut s = DocSession {
            name: name.into(),
            lines: split_lines(text),
            version: 1,
            tier,
            good: None,
            syntax_error: None,
            counters: DocCounters::default(),
        };
        match parse_module_spanned(text) {
            Ok((m, spans)) => s.good = Some(GoodState::cold(m, spans, tier)),
            Err(e) => {
                s.syntax_error = Some(e);
                s.counters.parse_failures += 1;
            }
        }
        s
    }

    /// Document name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current version (starts at 1, bumped by every accepted change).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current text (which may not parse; see [`DocSession::syntax_error`]).
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }

    /// The alias tier the session analyzes under.
    pub fn tier(&self) -> AliasTier {
        self.tier
    }

    /// The syntax error the current text carries, if any.
    pub fn syntax_error(&self) -> Option<&ParseError> {
        self.syntax_error.as_ref()
    }

    /// Session behavior counters.
    pub fn counters(&self) -> DocCounters {
        self.counters
    }

    /// The last-good analysis manager, if the document ever parsed.
    pub fn noelle(&self) -> Option<&Noelle> {
        self.good.as_ref().map(|g| &g.noelle)
    }

    /// Spans of the last-good parse (valid for the last-good text, which is
    /// the current text exactly when [`DocSession::syntax_error`] is none).
    pub fn spans(&self) -> &[FuncSpan] {
        self.good.as_ref().map_or(&[], |g| &g.spans)
    }

    /// The merged lint findings of the last-good analysis, in canonical
    /// order — byte-identical (rendered) to a cold parse + lint of the
    /// last-good text.
    pub fn findings(&self) -> Vec<Finding> {
        let Some(g) = &self.good else {
            return Vec::new();
        };
        let mut out = g.global.clone();
        for bucket in g.local.values() {
            out.extend(bucket.iter().cloned());
        }
        sort_findings(&mut out);
        out
    }

    /// The parallelism-audit findings (NL01xx hint-severity diagnostics) of
    /// the last-good analysis, in canonical order. Kept separate from
    /// [`DocSession::findings`] so the lint report stays byte-identical to a
    /// cold `run_checks`.
    pub fn audit_findings(&self) -> Vec<Finding> {
        let Some(g) = &self.good else {
            return Vec::new();
        };
        let mut out: Vec<Finding> = g
            .audit_local
            .values()
            .flat_map(|b| b.iter().cloned())
            .collect();
        sort_findings(&mut out);
        out
    }

    /// Planner hints of the last-good analysis: `{function: [loop rows]}`,
    /// one row per loop with at least one clean technique (the per-candidate
    /// predicted-speedup table and the chosen winner).
    pub fn plan_hints(&self) -> Json {
        let Some(g) = &self.good else {
            return Json::object([]);
        };
        Json::object(g.plan_hints.iter().map(|(k, v)| (k.clone(), v.clone())))
    }

    /// The `syntax` member of both diagnostics payloads: `null`, or where
    /// the current text stops parsing and why.
    fn syntax_json(&self) -> Json {
        self.syntax_error.as_ref().map_or(Json::Null, |e| {
            Json::object([
                ("line".to_string(), Json::Int(e.line as i64)),
                ("column".to_string(), Json::Int(e.column as i64)),
                ("message".to_string(), Json::Str(e.message.clone())),
            ])
        })
    }

    /// The `ide/diagnostics` payload: version, syntax status, the full lint
    /// report of the last-good analysis, the live parallelism-audit hints,
    /// and the planner hints — in the versioned reply envelope.
    pub fn diagnostics_json(&self) -> Json {
        envelope(
            "diagnostics",
            Json::object([
                ("version".to_string(), Json::Int(self.version as i64)),
                ("syntax".to_string(), self.syntax_json()),
                ("report".to_string(), render_json(&self.findings())),
                ("audit".to_string(), render_json(&self.audit_findings())),
                ("plan".to_string(), self.plan_hints()),
            ]),
        )
    }

    /// The push-style diagnostics carried by an `ide/change` reply: like
    /// [`DocSession::diagnostics_json`], but the audit section holds only
    /// the hints the *last* change re-derived (its audit closure; empty for
    /// a metadata-only edit). The editor already holds everything older, so
    /// pushing the whole module's hints per keystroke would make the reply
    /// O(module); [`DocSession::diagnostics_json`] remains the full pull.
    pub fn push_diagnostics_json(&self) -> Json {
        let mut fresh: Vec<Finding> = self.good.as_ref().map_or_else(Vec::new, |g| {
            g.audit_fresh
                .values()
                .flat_map(|b| b.iter().cloned())
                .collect()
        });
        sort_findings(&mut fresh);
        let fresh_plan = self.good.as_ref().map_or_else(
            || Json::object([]),
            |g| Json::object(g.plan_fresh.iter().map(|(k, v)| (k.clone(), v.clone()))),
        );
        envelope(
            "diagnostics",
            Json::object([
                ("version".to_string(), Json::Int(self.version as i64)),
                ("syntax".to_string(), self.syntax_json()),
                ("report".to_string(), render_json(&self.findings())),
                ("audit".to_string(), render_json(&fresh)),
                ("plan".to_string(), fresh_plan),
            ]),
        )
    }

    /// Apply one versioned change. `version` must be strictly greater than
    /// the current version (the LSP rule: the client owns the version
    /// counter, the server detects lost or reordered edits).
    ///
    /// # Errors
    /// Returns a message when the version does not advance or a splice is
    /// out of range. The document is unchanged on error. A change whose
    /// *text* fails to parse is NOT an error: it is accepted (the document
    /// tracks what the editor holds) and the session degrades to last-good
    /// analysis plus the syntax error.
    pub fn change(&mut self, version: u64, change: Change) -> Result<ChangeOutcome, String> {
        if version <= self.version {
            return Err(format!(
                "version must advance (document at {}, change carries {version})",
                self.version
            ));
        }
        match change {
            Change::Full(text) => {
                self.counters.changes += 1;
                let new_lines = split_lines(&text);
                // Whole-text changes are diffed down to one changed window,
                // so an editor that resends the document still repairs
                // minimally.
                let Some((a, b)) = changed_window(&self.lines, &new_lines) else {
                    self.version = version; // identical text: version only
                    return Ok(self.noop_outcome(version));
                };
                let delta = new_lines.len() as isize - self.lines.len() as isize;
                self.lines = new_lines;
                Ok(self.repair(version, a, b, delta))
            }
            Change::Splice {
                start_line,
                end_line,
                lines,
            } => {
                if start_line < 1 || start_line > end_line || end_line > self.lines.len() + 1 {
                    return Err(format!(
                        "splice [{start_line},{end_line}) out of range for {} lines",
                        self.lines.len()
                    ));
                }
                self.counters.changes += 1;
                // Trim the splice to the lines that actually differ (a
                // sloppy client window still repairs minimally), then apply
                // it in place: the tail of the document *moves*, it is
                // never copied — the document costs O(edit), not O(text).
                let (mut s, mut e, mut repl) = (start_line, end_line, lines);
                let mut p = 0;
                while s < e && p < repl.len() && self.lines[s - 1] == repl[p] {
                    s += 1;
                    p += 1;
                }
                repl.drain(..p);
                while e > s && !repl.is_empty() && self.lines[e - 2] == repl[repl.len() - 1] {
                    e -= 1;
                    repl.pop();
                }
                if s == e && repl.is_empty() {
                    self.version = version; // no-op edit: version only
                    return Ok(self.noop_outcome(version));
                }
                let delta = repl.len() as isize - (e - s) as isize;
                // Inclusive old-line window; `b < a` encodes pure insertion.
                let (a, b) = (s, e - 1);
                self.lines.splice(s - 1..e - 1, repl);
                Ok(self.repair(version, a, b, delta))
            }
        }
    }

    /// The outcome of a change that did not alter the text.
    fn noop_outcome(&self, version: u64) -> ChangeOutcome {
        ChangeOutcome {
            version,
            incremental: true,
            changed_functions: Vec::new(),
            relinted: 0,
            syntax_error: self.syntax_error.clone(),
        }
    }

    /// Repair the analysis after `self.lines` took an edit whose changed
    /// old-line window was `[a, b]` (inclusive; `b < a` is an insertion)
    /// with line-count `delta`.
    fn repair(&mut self, version: u64, a: usize, b: usize, delta: isize) -> ChangeOutcome {
        // The single-function path needs a good state whose spans describe
        // the pre-edit lines — i.e. the document parsed before this edit.
        if self.good.is_some() && self.syntax_error.is_none() {
            if let Some(outcome) = self.try_incremental(version, a, b, delta) {
                self.version = version;
                return outcome;
            }
        }
        let outcome = self.full_reparse(version);
        self.version = version;
        outcome
    }

    /// The diff-parse fast path: if the changed line window is confined to
    /// one function's span, re-parse just that snippet. `None` means "take
    /// the full-reparse path" (window not confined, snippet failed, or the
    /// function was renamed). `self.lines` already holds the new text.
    fn try_incremental(
        &mut self,
        version: u64,
        a: usize,
        b: usize,
        delta: isize,
    ) -> Option<ChangeOutcome> {
        // An empty window (pure insertion between old lines a-1 and a) must
        // sit strictly inside a span; a non-empty window must be covered.
        let (lo, hi) = if b < a { (a - 1, a) } else { (a, b) };
        let g = self.good.as_mut().expect("checked by caller");
        let idx = g
            .spans
            .iter()
            .position(|s| s.start_line <= lo && hi <= s.end_line)?;
        let span = &g.spans[idx];
        let new_end = (span.end_line as isize + delta) as usize;
        let snippet = self.lines[span.start_line - 1..new_end].join("\n");
        let f = parse_function_text(g.noelle.module(), &snippet).ok()?;
        if f.name != span.name {
            return None; // rename changes the symbol table: full reparse
        }
        let fid = g
            .noelle
            .module()
            .func_id_by_name(&span.name)
            .expect("span names a module function");
        self.counters.incremental_reparses += 1;
        // Shift every span at or after the edit by the line delta.
        for s in g.spans.iter_mut().skip(idx) {
            if s.start_line > hi {
                s.start_line = (s.start_line as isize + delta) as usize;
            }
            if s.end_line >= hi {
                s.end_line = (s.end_line as isize + delta) as usize;
            }
        }
        if f.content_fingerprint() == g.noelle.module().func(fid).content_fingerprint() {
            // Comment/whitespace-only: no semantic change, nothing to
            // re-lint.
            return Some(ChangeOutcome {
                version,
                incremental: true,
                changed_functions: Vec::new(),
                relinted: 0,
                syntax_error: None,
            });
        }
        let ((), damage) = g.noelle.edit_with_damage(|tx| {
            *tx.func_mut(fid) = f;
        });
        let reaudited = g.relint(&damage);
        self.counters.relinted_functions += damage.len() as u64;
        self.counters.reaudited_functions += reaudited as u64;
        let changed_functions = damage
            .iter()
            .map(|&d| g.noelle.module().func(d).name.clone())
            .collect();
        Some(ChangeOutcome {
            version,
            incremental: true,
            changed_functions,
            relinted: damage.len(),
            syntax_error: None,
        })
    }

    /// The whole-text path: re-parse everything; apply shape-preserving
    /// results as in-place function swaps, rebuild from cold otherwise, and
    /// degrade to last-good on a parse error.
    fn full_reparse(&mut self, version: u64) -> ChangeOutcome {
        let text = self.lines.join("\n");
        match parse_module_spanned(&text) {
            Err(e) => {
                self.counters.parse_failures += 1;
                self.syntax_error = Some(e.clone());
                ChangeOutcome {
                    version,
                    incremental: false,
                    changed_functions: Vec::new(),
                    relinted: 0,
                    syntax_error: Some(e),
                }
            }
            Ok((mut m, spans)) => {
                self.counters.full_reparses += 1;
                self.syntax_error = None;
                let reusable = self
                    .good
                    .as_ref()
                    .is_some_and(|g| same_shape(g.noelle.module(), &m));
                if reusable {
                    let g = self.good.as_mut().expect("checked");
                    let swap: Vec<FuncId> = g
                        .noelle
                        .module()
                        .func_ids()
                        .filter(|&fid| {
                            g.noelle.module().func(fid).content_fingerprint()
                                != m.func(fid).content_fingerprint()
                        })
                        .collect();
                    g.spans = spans;
                    if swap.is_empty() {
                        return ChangeOutcome {
                            version,
                            incremental: false,
                            changed_functions: Vec::new(),
                            relinted: 0,
                            syntax_error: None,
                        };
                    }
                    let ((), damage) = g.noelle.edit_with_damage(|tx| {
                        for &fid in &swap {
                            std::mem::swap(tx.func_mut(fid), m.func_mut(fid));
                        }
                    });
                    let reaudited = g.relint(&damage);
                    self.counters.relinted_functions += damage.len() as u64;
                    self.counters.reaudited_functions += reaudited as u64;
                    let changed_functions = damage
                        .iter()
                        .map(|&d| g.noelle.module().func(d).name.clone())
                        .collect();
                    ChangeOutcome {
                        version,
                        incremental: false,
                        changed_functions,
                        relinted: damage.len(),
                        syntax_error: None,
                    }
                } else {
                    let changed_functions = m.functions().iter().map(|f| f.name.clone()).collect();
                    let relinted = m.functions().len();
                    self.good = Some(GoodState::cold(m, spans, self.tier));
                    self.counters.relinted_functions += relinted as u64;
                    self.counters.reaudited_functions += relinted as u64;
                    ChangeOutcome {
                        version,
                        incremental: false,
                        changed_functions,
                        relinted,
                        syntax_error: None,
                    }
                }
            }
        }
    }
}

/// The changed line window between two texts, as 1-based inclusive old-line
/// bounds `(a, b)`; `b == a - 1` encodes a pure insertion between old lines
/// `a-1` and `a`. `None` when the texts are identical.
fn changed_window(old: &[String], new: &[String]) -> Option<(usize, usize)> {
    let mut p = 0;
    while p < old.len() && p < new.len() && old[p] == new[p] {
        p += 1;
    }
    if p == old.len() && p == new.len() {
        return None;
    }
    let mut s = 0;
    while s < old.len() - p && s < new.len() - p && old[old.len() - 1 - s] == new[new.len() - 1 - s]
    {
        s += 1;
    }
    Some((p + 1, old.len() - s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::parser::parse_module;
    use noelle_lint::run_checks;

    const SRC: &str = "module \"demo\" {\n\
global @g : i64 = i64 0\n\
define i64 @id(i64 %x) {\n\
entry:\n\
  ret %x\n\
}\n\
define i64 @twice(i64 %x) {\n\
entry:\n\
  %a = call i64 @id(%x)\n\
  %b = add i64 %a, %a\n\
  %dead = add i64 %x, i64 1\n\
  ret %b\n\
}\n\
}";

    fn cold_findings(text: &str) -> Vec<Finding> {
        let m = parse_module(text).expect("final text parses");
        let mut n = Noelle::new(m, AliasTier::Basic);
        run_checks(&mut n, "all").expect("all is a known check")
    }

    fn assert_matches_cold(s: &DocSession) {
        let session = render_json(&s.findings()).to_string_compact();
        let cold = render_json(&cold_findings(&s.text())).to_string_compact();
        assert_eq!(session, cold, "session diagnostics == cold parse+lint");
    }

    #[test]
    fn open_lints_and_matches_cold_run() {
        let s = DocSession::open("d", SRC, AliasTier::Basic);
        assert_eq!(s.version(), 1);
        assert!(s.syntax_error().is_none());
        // @twice has a dead pure instruction (NL0006).
        assert!(s.findings().iter().any(|f| f.code == "NL0006"));
        assert_matches_cold(&s);
    }

    #[test]
    fn single_function_edit_is_incremental() {
        let mut s = DocSession::open("d", SRC, AliasTier::Basic);
        // Fix the dead instruction in @twice (line 11, 1-based).
        let out = s
            .change(
                2,
                Change::Splice {
                    start_line: 11,
                    end_line: 12,
                    lines: vec!["  %dead = add i64 %b, i64 1".into(), "  ret %dead".into()],
                },
            )
            .expect("valid change");
        assert!(out.incremental, "confined edit takes the snippet path");
        assert!(out.changed_functions.contains(&"twice".to_string()));
        assert_eq!(s.version(), 2);
        assert_eq!(s.counters().incremental_reparses, 1);
        assert_matches_cold(&s);
        // There are now two rets; make the text valid by removing the old
        // one (still incremental).
        let out = s
            .change(
                3,
                Change::Splice {
                    start_line: 12,
                    end_line: 13,
                    lines: vec![],
                },
            )
            .expect("valid change");
        assert!(out.incremental);
        assert_matches_cold(&s);
    }

    #[test]
    fn comment_only_edit_relints_nothing() {
        let mut s = DocSession::open("d", SRC, AliasTier::Basic);
        let out = s
            .change(
                2,
                Change::Splice {
                    start_line: 4,
                    end_line: 4,
                    lines: vec!["; a comment".into()],
                },
            )
            .expect("valid change");
        assert!(out.incremental);
        assert_eq!(out.relinted, 0, "same fingerprint, no re-lint");
        assert_eq!(s.counters().relinted_functions, 0);
        assert_matches_cold(&s);
    }

    #[test]
    fn parse_error_degrades_to_last_good_and_recovers() {
        let mut s = DocSession::open("d", SRC, AliasTier::Basic);
        let before = render_json(&s.findings()).to_string_compact();
        let out = s
            .change(
                2,
                Change::Splice {
                    start_line: 5,
                    end_line: 6,
                    lines: vec!["  ret %nope".into()],
                },
            )
            .expect("broken text is still accepted");
        assert!(out.syntax_error.is_some());
        assert!(s.syntax_error().is_some());
        // Last-good diagnostics survive the broken edit.
        assert_eq!(render_json(&s.findings()).to_string_compact(), before);
        assert_eq!(s.counters().parse_failures, 1);
        // A later change fixing the text recovers in place.
        let out = s
            .change(
                3,
                Change::Splice {
                    start_line: 5,
                    end_line: 6,
                    lines: vec!["  ret %x".into()],
                },
            )
            .expect("fixed text accepted");
        assert!(out.syntax_error.is_none());
        assert!(s.syntax_error().is_none());
        assert_matches_cold(&s);
    }

    #[test]
    fn module_level_edit_falls_back_to_full_reparse() {
        let mut s = DocSession::open("d", SRC, AliasTier::Basic);
        // Change the global initializer: outside every span, and a new
        // globals fingerprint, so the cold path runs.
        let out = s
            .change(
                2,
                Change::Splice {
                    start_line: 2,
                    end_line: 3,
                    lines: vec!["global @g : i64 = i64 7".into()],
                },
            )
            .expect("valid change");
        assert!(!out.incremental);
        assert_eq!(s.counters().full_reparses, 1);
        assert_matches_cold(&s);
    }

    #[test]
    fn full_text_change_with_same_shape_swaps_in_place() {
        let mut s = DocSession::open("d", SRC, AliasTier::Basic);
        let new_text = s.text().replace("%a, %a", "%a, %x");
        let out = s.change(2, Change::Full(new_text)).expect("valid change");
        // Whole-text changes skip the window diff only when asked to; this
        // one is still confined to @twice, so the window diff catches it.
        assert!(out.incremental);
        assert_matches_cold(&s);
    }

    #[test]
    fn version_must_advance() {
        let mut s = DocSession::open("d", SRC, AliasTier::Basic);
        assert!(s.change(1, Change::Full(SRC.into())).is_err());
        assert!(s.change(0, Change::Full(SRC.into())).is_err());
        assert_eq!(s.version(), 1);
    }

    #[test]
    fn open_with_broken_text_then_fix() {
        let mut s = DocSession::open("d", "module \"x\" {", AliasTier::Basic);
        assert!(s.syntax_error().is_some());
        assert!(s.findings().is_empty());
        let out = s.change(2, Change::Full(SRC.into())).expect("accepted");
        assert!(out.syntax_error.is_none());
        assert_matches_cold(&s);
    }

    const LOOP_SRC: &str = "module \"aud\" {\n\
define i64 @kernel(i64* %a, i64 %n) {\n\
entry:\n\
  br header\n\
header:\n\
  %i = phi i64 [entry: i64 0] [body: %i2]\n\
  %s = phi i64 [entry: i64 0] [body: %s2]\n\
  %c = icmp slt i64 %i, %n\n\
  condbr %c, body, exit\n\
body:\n\
  %p = gep i64, %a, %i\n\
  %v = load i64, %p\n\
  %s2 = add i64 %s, %v\n\
  %i2 = add i64 %i, i64 1\n\
  br header\n\
exit:\n\
  ret %s\n\
}\n\
define i64 @main() {\n\
entry:\n\
  %buf = alloca i64, i64 8\n\
  %r = call i64 @kernel(%buf, i64 8)\n\
  ret %r\n\
}\n\
}";

    fn assert_audit_matches_cold(s: &DocSession) {
        let m = parse_module(&s.text()).expect("final text parses");
        let mut n = Noelle::new(m, s.tier());
        let audit = noelle_lint::run_audit(&mut n);
        let cold =
            render_json(&noelle_lint::audit_findings(n.module(), &audit)).to_string_compact();
        let live = render_json(&s.audit_findings()).to_string_compact();
        assert_eq!(live, cold, "live audit == cold audit of current text");
    }

    #[test]
    fn audit_hints_flow_incrementally() {
        let mut s = DocSession::open("d", LOOP_SRC, AliasTier::Full);
        assert!(s.syntax_error().is_none());
        assert_audit_matches_cold(&s);
        // Introduce a loop-carried memory recurrence through %a: the edit
        // is confined to @kernel, and the audit hints must move with it.
        let out = s
            .change(
                2,
                Change::Splice {
                    start_line: 13,
                    end_line: 13,
                    lines: vec!["  store i64 %s2, %p".into()],
                },
            )
            .expect("valid change");
        assert!(out.incremental, "confined edit takes the snippet path");
        assert!(s.counters().reaudited_functions > 0);
        assert_audit_matches_cold(&s);
        let hints = s.audit_findings();
        assert!(
            hints.iter().any(|f| f.code.starts_with("NL01")),
            "the recurrence surfaces as a live NL01xx hint: {hints:?}"
        );
        assert!(
            hints
                .iter()
                .all(|f| f.severity == noelle_lint::Severity::Hint),
            "audit diagnostics are hint-severity"
        );
        // Revert: the hint disappears again, still incrementally.
        let out = s
            .change(
                3,
                Change::Splice {
                    start_line: 13,
                    end_line: 14,
                    lines: vec![],
                },
            )
            .expect("valid change");
        assert!(out.incremental);
        assert_audit_matches_cold(&s);
    }

    #[test]
    fn diagnostics_payload_carries_audit_section() {
        let s = DocSession::open("d", LOOP_SRC, AliasTier::Full);
        let doc = s.diagnostics_json().to_string_compact();
        assert!(doc.contains("\"audit\""), "{doc}");
        assert!(doc.contains("\"kind\":\"diagnostics\""), "{doc}");
    }

    #[test]
    fn plan_hints_track_edits() {
        let mut s = DocSession::open("d", LOOP_SRC, AliasTier::Full);
        // The reduction loop in @kernel is clean for DOALL, so the cold
        // open already carries a plan hint with a predicted speedup.
        let doc = s.diagnostics_json().to_string_compact();
        assert!(doc.contains("\"plan\""), "{doc}");
        let hints = s.plan_hints();
        let kernel = hints.get("kernel").expect("kernel bucket");
        assert!(
            kernel.to_string_compact().contains("predicted_speedup"),
            "{hints:?}"
        );
        // Introduce a loop-carried memory recurrence: the loop loses its
        // clean verdicts and the hint disappears from the same bucket.
        s.change(
            2,
            Change::Splice {
                start_line: 13,
                end_line: 13,
                lines: vec!["  store i64 %s2, %p".into()],
            },
        )
        .expect("valid change");
        let kernel = s.plan_hints().get("kernel").cloned().expect("bucket kept");
        assert_eq!(
            kernel.to_string_compact(),
            "[]",
            "blocked loop drops its plan hint"
        );
    }

    #[test]
    fn rename_falls_back_and_stays_correct() {
        let mut s = DocSession::open("d", SRC, AliasTier::Basic);
        let renamed = s.text().replace("@id", "@ident");
        let out = s.change(2, Change::Full(renamed)).expect("accepted");
        assert!(!out.incremental, "rename rewrites the symbol table");
        assert_matches_cold(&s);
    }
}
