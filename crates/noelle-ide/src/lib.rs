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
//! 3. **No-op gate.** A function equal to the one it replaces is not an
//!    edit at all (comment/whitespace changes); the session just shifts its
//!    spans.
//! 4. **Damage-scoped re-lint.** Real edits go through
//!    [`Noelle::edit_with_damage`], whose commit asks whether each edited
//!    body moved; exactly the damage set's function-local findings are
//!    re-derived ([`run_local_checks`]) and the whole-module passes re-run
//!    ([`run_global_checks`], O(functions) without task dispatch sites). An
//!    edit that moved no body (a metadata keystroke) damages nothing and
//!    runs no check. Undamaged functions keep their cached findings.
//! 5. **Graceful degradation.** A parse error (snippet or whole-text)
//!    *keeps* the last-good analysis and its diagnostics; the session
//!    reports the syntax error alongside them and recovers in place once a
//!    later change parses again.
//!
//! The merged findings are byte-identical (via `render_json`) to a cold
//! parse + lint of the current document text — the property the test suite
//! checks across the whole workload corpus.

use noelle_core::json::{self, envelope, Json};
use noelle_core::noelle::{AliasTier, EditTx, Noelle};
use noelle_ir::module::{FuncId, Module};
use noelle_ir::parser::{parse_function_text, parse_module_spanned, FuncSpan, ParseError};
use noelle_lint::{
    audit_findings, canonical_order, render_compact, render_json, run_audit_scoped,
    run_global_checks, run_local_checks, Finding, Tally,
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

impl std::ops::AddAssign for DocCounters {
    fn add_assign(&mut self, c: DocCounters) {
        self.changes += c.changes;
        self.incremental_reparses += c.incremental_reparses;
        self.full_reparses += c.full_reparses;
        self.parse_failures += c.parse_failures;
        self.relinted_functions += c.relinted_functions;
        self.reaudited_functions += c.reaudited_functions;
    }
}

/// What one accepted change did.
#[derive(Debug, Clone)]
pub struct ChangeOutcome {
    /// Document version after the change.
    pub version: u64,
    /// True when the single-function diff-parse path served the change.
    pub incremental: bool,
    /// Names of the functions whose text changed and of those whose
    /// analysis results were re-derived.
    pub changed_functions: Vec<String>,
    /// Functions re-linted (the damage set size).
    pub relinted: usize,
    /// The syntax error the text now carries, if it failed to parse.
    pub syntax_error: Option<ParseError>,
}

impl ChangeOutcome {
    /// A change that re-derived nothing.
    fn unchanged(version: u64, incremental: bool, syntax_error: Option<ParseError>) -> Self {
        ChangeOutcome {
            version,
            incremental,
            changed_functions: Vec::new(),
            relinted: 0,
            syntax_error,
        }
    }
}

/// Everything the session keeps about one function, under its name. A name
/// is the first field findings sort by, so records in map order are already
/// in canonical order among themselves.
#[derive(Default)]
struct FuncDiag {
    /// Function-local findings, re-derived when an edit damages the
    /// function.
    local: Vec<Finding>,
    /// Parallelism-audit findings (NL01xx) of the function's loops.
    audit: Vec<Finding>,
    /// `audit` as a payload carries it, rendered once when it was derived:
    /// each finding's compact JSON, comma-joined — this function's stretch
    /// of the `audit.findings` array — and the count by severity. A pull
    /// concatenates these; it renders nothing an edit did not re-derive.
    audit_text: String,
    audit_tally: Tally,
    /// Planner hints: for every loop of the function the audit marks clean
    /// for at least one technique, the per-candidate predicted-speedup table
    /// ([`noelle_plan::LoopPlan::write_json`]). Priced from the same scoped
    /// audit `audit` comes from, so the planner rides the damage path for
    /// free (no second audit). Rows are only ever rendered, so what is kept
    /// is their text: this function's member of a payload's `plan` object,
    /// `"name":[rows]`.
    plan: String,
}

impl FuncDiag {
    fn set_audit(&mut self, findings: Vec<Finding>) {
        self.audit_tally = Tally::default();
        let rendered = findings.iter().map(|f| {
            self.audit_tally.count(f);
            f.to_json()
        });
        self.audit_text = inside(Json::Array(rendered.collect()).to_string_compact());
        self.audit = findings;
    }
}

/// The elements of a rendered array, or the members of a rendered object:
/// the text between its brackets, which is what [`joined`] concatenates.
fn inside(mut rendered: String) -> String {
    rendered.pop();
    rendered.remove(0);
    rendered
}

/// `open`, the non-empty `parts` comma-joined, `close`: the compact text of
/// the array or object whose [`inside`] the parts are stretches of.
fn joined<'a>(open: char, parts: impl Iterator<Item = &'a str> + Clone, close: char) -> String {
    let len: usize = parts.clone().map(|p| p.len() + 1).sum();
    let mut out = String::with_capacity(len + 2);
    out.push(open);
    for p in parts.filter(|p| !p.is_empty()) {
        if out.len() > 1 {
            out.push(',');
        }
        out.push_str(p);
    }
    out.push(close);
    out
}

/// The last successfully analyzed state of a document.
struct GoodState {
    noelle: Noelle,
    /// Source spans of every `define`, in definition order, valid for the
    /// text this state was parsed from.
    spans: Vec<FuncSpan>,
    /// Whole-module findings (races, env-slots), recomputed per edit.
    global: Vec<Finding>,
    /// One record per function, by name.
    funcs: BTreeMap<String, FuncDiag>,
    /// The records whose `audit` and `plan` the *last* relint re-derived, in
    /// name order: every name after a cold start, none after a
    /// metadata-only edit. `ide/change` replies push exactly these —
    /// serializing the whole module's hints on every keystroke would make
    /// the reply O(module); pulls (`ide/diagnostics`) still get everything.
    fresh: Vec<String>,
}

impl GoodState {
    /// A state over a freshly parsed module, nothing linted yet: the first
    /// `relint` takes every function.
    fn new(module: Module, spans: Vec<FuncSpan>, tier: AliasTier) -> GoodState {
        GoodState {
            noelle: Noelle::new(module, tier),
            spans,
            global: Vec::new(),
            funcs: BTreeMap::new(),
            fresh: Vec::new(),
        }
    }

    /// Re-derive the records of `damage` and the whole-module findings.
    /// Returns how many functions were re-audited. The manager damages a
    /// function only when a body moved or the state is new, and no check
    /// reads metadata, so an empty damage set — a metadata keystroke —
    /// leaves every finding as it stands.
    fn relint(&mut self, damage: &BTreeSet<FuncId>) -> usize {
        self.fresh.clear();
        if damage.is_empty() {
            return 0;
        }
        let GoodState {
            noelle: n, funcs, ..
        } = self;
        // A function without a record is new (a state's first relint; shape
        // changes start a new state, so a record never outlives its
        // function).
        for &fid in damage {
            let name = &n.module().func(fid).name;
            if !funcs.contains_key(name) {
                funcs.insert(name.clone(), FuncDiag::default());
            }
        }
        let local = run_local_checks(n, damage);
        rebucket(
            funcs,
            n.module(),
            damage,
            local,
            finding_owner,
            |d, _, l| d.local = l,
        );
        self.global = run_global_checks(n);
        // The manager damages a caller only when a callee's summary or
        // interface moved, but the audit reads one call-graph hop beyond
        // that: attribution names call sites of a function's direct callers
        // and store sites of its direct callees, and the gates price a call
        // by the callee's body. So the audit re-derives the damage set plus
        // that one-hop closure, read from the manager's call index — for a
        // body edit of one kernel, the kernel and its group function, not
        // the group's other kernels — proportional to the edit, never the
        // module.
        let calls = n.direct_calls();
        let mut scope = damage.clone();
        for &fid in damage {
            scope.extend(calls.callees_of(fid).chain(calls.callers_of(fid)));
        }
        let audit = run_audit_scoped(n, Some(&scope));
        let hints = audit_findings(n.module(), &audit);
        rebucket(
            funcs,
            n.module(),
            &scope,
            hints,
            finding_owner,
            |d, _, hints| d.set_audit(hints),
        );
        let plan = plan_from_audit(n, &audit, &PlanOptions::default());
        let rows = plan.loops.iter().filter(|l| l.any_clean()).collect();
        rebucket(
            funcs,
            n.module(),
            &scope,
            rows,
            |l| l.function.as_str(),
            |d, name, rows| {
                // A weight is the loop's share among the loops planned
                // *together*: a scoped re-plan cannot know the module-wide
                // number, and a row carrying its own would disagree with a
                // cold open of the same text. Stored rows carry none.
                let mut member = String::new();
                json::write_escaped(&mut member, name);
                member.push_str(":[");
                for (k, l) in rows.iter().enumerate() {
                    if k > 0 {
                        member.push(',');
                    }
                    l.write_json(&mut member, false);
                }
                member.push(']');
                d.plan = member;
            },
        );
        self.fresh = scope
            .iter()
            .map(|&fid| n.module().func(fid).name.clone())
            .collect();
        self.fresh.sort();
        scope.len()
    }

    /// The records a payload covers: all of them, or the ones the last
    /// relint re-derived. Name order either way.
    fn records(&self, fresh_only: bool) -> Vec<(&String, &FuncDiag)> {
        if fresh_only {
            self.fresh.iter().map(|n| (n, &self.funcs[n])).collect()
        } else {
            self.funcs.iter().collect()
        }
    }

    /// The merged lint findings in canonical order, by reference: the
    /// records are in order among themselves, `global` is merged in.
    fn report(&self) -> Vec<&Finding> {
        let locals = self.funcs.values().flat_map(|d| &d.local);
        let mut out: Vec<&Finding> = self.global.iter().chain(locals).collect();
        out.sort_by(|a, b| canonical_order(a, b));
        out.dedup();
        out
    }
}

/// The `plan` member of a payload, `{function: [loop rows]}`, as text.
fn plan_text(records: &[(&String, &FuncDiag)]) -> String {
    joined('{', records.iter().map(|(_, d)| d.plan.as_str()), '}')
}

fn finding_owner(f: &Finding) -> &str {
    &f.loc.function
}

/// Hand every record in `scope` its share of `items` — a flat list in
/// canonical order, each item owned by a function of `scope` — through
/// `set`. A function that owns nothing is handed an empty list, so what it
/// held before is cleared, not kept.
fn rebucket<T>(
    funcs: &mut BTreeMap<String, FuncDiag>,
    m: &Module,
    scope: &BTreeSet<FuncId>,
    items: Vec<T>,
    owner: impl Fn(&T) -> &str,
    mut set: impl FnMut(&mut FuncDiag, &str, Vec<T>),
) {
    let mut buckets: BTreeMap<&str, Vec<T>> = scope
        .iter()
        .map(|&fid| (m.func(fid).name.as_str(), Vec::new()))
        .collect();
    for item in items {
        buckets
            .get_mut(owner(&item))
            .expect("an item is owned by a function in scope")
            .push(item);
    }
    for (name, bucket) in buckets {
        let d = funcs.get_mut(name).expect("every function has a record");
        set(d, name, bucket);
    }
}

/// True when `new` has the same *shape* as `old`: same module name and
/// metadata, same globals, and the same function list (names, order,
/// declaration-ness). Shape-preserving re-parses can be applied as in-place
/// function swaps, keeping every undamaged cache slot.
fn same_shape(old: &Module, new: &Module) -> bool {
    old.name == new.name
        && old.metadata == new.metadata
        && old.globals() == new.globals()
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
            Ok((m, spans)) => {
                let mut g = GoodState::new(m, spans, tier);
                g.relint(&g.noelle.module().func_ids().collect());
                s.good = Some(g);
            }
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
        let report = self.good.as_ref().map(GoodState::report);
        report.into_iter().flatten().cloned().collect()
    }

    /// The parallelism-audit findings (NL01xx hint-severity diagnostics) of
    /// the last-good analysis, in canonical order. Kept separate from
    /// [`DocSession::findings`] so the lint report stays byte-identical to a
    /// cold `run_checks`.
    pub fn audit_findings(&self) -> Vec<Finding> {
        let records = self.good.iter().flat_map(|g| g.funcs.values());
        records.flat_map(|d| d.audit.iter().cloned()).collect()
    }

    /// Planner hints of the last-good analysis: `{function: [loop rows]}`,
    /// one row per loop with at least one clean technique (the per-candidate
    /// predicted-speedup table and the chosen winner).
    pub fn plan_hints(&self) -> Json {
        Json::parse(&plan_text(&self.records(false))).expect("rendered here")
    }

    /// The `ide/diagnostics` payload: version, syntax status, the full lint
    /// report of the last-good analysis, the live parallelism-audit hints,
    /// and the planner hints — in the versioned reply envelope.
    pub fn diagnostics_json(&self) -> Json {
        self.payload(false)
    }

    /// The push-style diagnostics carried by an `ide/change` reply: like
    /// [`DocSession::diagnostics_json`], but the audit and plan sections
    /// hold only what the *last* change re-derived (its audit closure;
    /// nothing for a metadata-only edit). The editor already holds
    /// everything older, so pushing the whole module's hints per keystroke
    /// would make the reply O(module); [`DocSession::diagnostics_json`]
    /// remains the full pull.
    pub fn push_diagnostics_json(&self) -> Json {
        self.payload(true)
    }

    /// [`DocSession::diagnostics_json`] as the compact text a reply carries,
    /// byte for byte, without the tree: the audit and plan sections are
    /// concatenated from what each record rendered when it was derived.
    pub fn diagnostics_text(&self) -> String {
        self.payload_text(false)
    }

    /// [`DocSession::push_diagnostics_json`] as compact text, likewise.
    pub fn push_diagnostics_text(&self) -> String {
        self.payload_text(true)
    }

    /// The records a payload covers (see [`GoodState::records`]); none
    /// while the document has never parsed.
    fn records(&self, fresh_only: bool) -> Vec<(&String, &FuncDiag)> {
        let g = self.good.as_ref();
        g.map_or_else(Vec::new, |g| g.records(fresh_only))
    }

    /// The members of both payloads that are small or change with every
    /// edit, rendered per payload from the stored findings by reference:
    /// everything but `audit` and `plan`.
    fn payload_head(&self) -> [(String, Json); 3] {
        let syntax = self.syntax_error.as_ref().map_or(Json::Null, |e| {
            Json::object([
                ("line".to_string(), Json::Int(e.line as i64)),
                ("column".to_string(), Json::Int(e.column as i64)),
                ("message".to_string(), Json::Str(e.message.clone())),
            ])
        });
        let report = self.good.as_ref().map_or_else(Vec::new, GoodState::report);
        [
            ("version".to_string(), Json::Int(self.version as i64)),
            ("syntax".to_string(), syntax),
            ("report".to_string(), render_json(report)),
        ]
    }

    /// Either diagnostics payload as a tree, for in-process callers: the
    /// audit section rendered from the stored findings, the plan section
    /// read back from its text.
    fn payload(&self, fresh_only: bool) -> Json {
        let records = self.records(fresh_only);
        let audit = records.iter().flat_map(|(_, d)| &d.audit);
        let plan = Json::parse(&plan_text(&records)).expect("rendered here");
        let sections = [
            ("audit".to_string(), render_json(audit)),
            ("plan".to_string(), plan),
        ];
        envelope(
            "diagnostics",
            Json::object(self.payload_head().into_iter().chain(sections)),
        )
    }

    /// Either diagnostics payload as text: what [`DocSession::payload`]
    /// renders to, assembled without building its audit and plan sections.
    fn payload_text(&self, fresh_only: bool) -> String {
        let records = self.records(fresh_only);
        let mut tally = Tally::default();
        for (_, d) in &records {
            tally += d.audit_tally;
        }
        let findings = joined('[', records.iter().map(|(_, d)| d.audit_text.as_str()), ']');
        let audit = render_compact(tally, &findings);
        let plan = plan_text(&records);
        envelope("diagnostics", Json::object(self.payload_head()))
            .to_string_compact_with(&[("audit", &audit), ("plan", &plan)])
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
        // The changed old-line window `[a, b]` (inclusive; `b < a` is a
        // pure insertion) and the line-count delta, or `None` when the text
        // stays as it is.
        let window = match change {
            Change::Full(text) => {
                let new_lines = split_lines(&text);
                // Whole-text changes are diffed down to one changed window,
                // so an editor that resends the document still repairs
                // minimally.
                let delta = new_lines.len() as isize - self.lines.len() as isize;
                let window = changed_window(&self.lines, &new_lines);
                self.lines = new_lines;
                window.map(|(a, b)| (a, b, delta))
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
                // One buffer element per real line, whatever the client
                // sent: the parser counts lines by `'\n'`, and its spans
                // index this buffer.
                let real = lines.iter().flat_map(|l| l.split('\n'));
                let mut repl: Vec<String> = real.map(str::to_string).collect();
                let old = &self.lines[start_line - 1..end_line - 1];
                let (old_len, delta) = (old.len(), repl.len() as isize - old.len() as isize);
                // Apply only the lines that actually differ (a sloppy client
                // window still repairs minimally), in place: the tail of the
                // document *moves*, it is never copied — the document costs
                // O(edit), not O(text).
                changed_window(old, &repl).map(|(a, b)| {
                    let differing = repl.drain(a - 1..repl.len() - (old_len - b));
                    let at = start_line - 1;
                    self.lines.splice(at + a - 1..at + b, differing);
                    (at + a, at + b, delta)
                })
            }
        };
        self.counters.changes += 1;
        self.version = version;
        Ok(match window {
            None => ChangeOutcome::unchanged(version, true, self.syntax_error.clone()),
            Some((a, b, delta)) => self.repair(a, b, delta),
        })
    }

    /// Repair the analysis after `self.lines` took an edit whose changed
    /// old-line window was `[a, b]` with line-count `delta`.
    fn repair(&mut self, a: usize, b: usize, delta: isize) -> ChangeOutcome {
        // The single-function path needs a good state whose spans describe
        // the pre-edit lines — i.e. the document parsed before this edit.
        if self.good.is_some() && self.syntax_error.is_none() {
            if let Some(outcome) = self.try_incremental(a, b, delta) {
                return outcome;
            }
        }
        self.full_reparse()
    }

    /// Relint what `damage` reports of the good state's manager — the
    /// commit of an edit of the `edited` functions, or every function of a
    /// new state — count it, and name it with the edited functions, which
    /// changed text even where they moved no body.
    fn apply(
        &mut self,
        incremental: bool,
        edited: &[FuncId],
        damage: impl FnOnce(&mut Noelle) -> BTreeSet<FuncId>,
    ) -> ChangeOutcome {
        let g = self.good.as_mut().expect("there is a state to relint");
        let mut damage = damage(&mut g.noelle);
        let relinted = damage.len();
        let reaudited = g.relint(&damage);
        self.counters.relinted_functions += relinted as u64;
        self.counters.reaudited_functions += reaudited as u64;
        damage.extend(edited);
        let module = g.noelle.module();
        let names = damage.iter().map(|&d| module.func(d).name.clone());
        ChangeOutcome {
            version: self.version,
            incremental,
            changed_functions: names.collect(),
            relinted,
            syntax_error: None,
        }
    }

    /// The diff-parse fast path: if the changed line window is confined to
    /// one function's span, re-parse just that snippet. `None` means "take
    /// the full-reparse path" (window not confined, snippet failed, or the
    /// function was renamed). `self.lines` already holds the new text.
    fn try_incremental(&mut self, a: usize, b: usize, delta: isize) -> Option<ChangeOutcome> {
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
        if f == *g.noelle.module().func(fid) {
            // Comment/whitespace-only: no semantic change, nothing to
            // re-lint.
            return Some(ChangeOutcome::unchanged(self.version, true, None));
        }
        Some(self.apply(true, &[fid], |n| {
            n.edit_with_damage(|tx| *tx.func_mut(fid) = f).1
        }))
    }

    /// The whole-text path: re-parse everything; apply shape-preserving
    /// results as in-place function swaps, rebuild from cold otherwise, and
    /// degrade to last-good on a parse error.
    fn full_reparse(&mut self) -> ChangeOutcome {
        let text = self.lines.join("\n");
        let (mut m, spans) = match parse_module_spanned(&text) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.counters.parse_failures += 1;
                self.syntax_error = Some(e.clone());
                return ChangeOutcome::unchanged(self.version, false, Some(e));
            }
        };
        self.counters.full_reparses += 1;
        self.syntax_error = None;
        match &mut self.good {
            Some(g) if same_shape(g.noelle.module(), &m) => {
                let old = g.noelle.module();
                let swap: Vec<FuncId> = old
                    .func_ids()
                    .filter(|&fid| old.func(fid) != m.func(fid))
                    .collect();
                g.spans = spans;
                if swap.is_empty() {
                    return ChangeOutcome::unchanged(self.version, false, None);
                }
                let commit = |tx: &mut EditTx<'_>| {
                    for &fid in &swap {
                        std::mem::swap(tx.func_mut(fid), m.func_mut(fid));
                    }
                };
                self.apply(false, &swap, |n| n.edit_with_damage(commit).1)
            }
            _ => {
                self.good = Some(GoodState::new(m, spans, self.tier));
                self.apply(false, &[], |n| n.module().func_ids().collect())
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
        assert_eq!(out.relinted, 0, "the same function, no re-lint");
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
        // Change the global initializer: outside every span, and new
        // globals, so the cold path runs.
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

    #[test]
    fn a_spliced_line_holding_newlines_is_as_many_lines() {
        let splice = |start_line, lines: &[&str]| Change::Splice {
            start_line,
            end_line: start_line + 1,
            lines: lines.iter().map(|l| l.to_string()).collect(),
        };
        let mut glued = DocSession::open("d", SRC, AliasTier::Basic);
        let mut apart = DocSession::open("d", SRC, AliasTier::Basic);
        glued
            .change(2, splice(2, &["global @g : i64 = i64 1\n\n"]))
            .expect("valid change");
        apart
            .change(2, splice(2, &["global @g : i64 = i64 1", "", ""]))
            .expect("valid change");
        let cold = DocSession::open("d", &glued.text(), AliasTier::Basic);
        for other in [&apart, &cold] {
            assert_eq!(glued.text(), other.text());
            assert_eq!(glued.spans(), other.spans());
            assert_eq!(glued.findings(), other.findings());
        }
        // With one buffer element holding three lines, the buffer's line 13
        // was `@twice`'s closing brace and this was a whitespace edit of it;
        // the snippet path then sliced the 14-element buffer with the
        // parser's (real) line 15. Now line 13 is `%dead` and the text stops
        // parsing: either way the session must answer.
        let out = glued.change(3, splice(13, &["}  "])).expect("a reply");
        assert!(out.syntax_error.is_some());
        let out = glued
            .change(4, splice(13, &["  %dead = add i64 %x, i64 1"]))
            .expect("a reply");
        assert!(out.syntax_error.is_none());
        let out = glued
            .change(5, splice(13, &["  %dead = add i64 %x, i64 2"]))
            .expect("a reply");
        assert!(out.incremental, "a body edit inside @twice is a snippet");
        assert_eq!(out.changed_functions, ["twice"]);
        assert_matches_cold(&glued);
        // A window resent with unchanged lines behind it — here through the
        // end of the module — is trimmed to the line that differs, which
        // lies inside @twice.
        let window = ["  %dead = add i64 %x, i64 3", "ret %b", "}", "}"];
        let resent = Change::Splice {
            start_line: 13,
            end_line: 17,
            lines: window.iter().map(|l| l.to_string()).collect(),
        };
        let before = glued.text();
        let out = glued.change(6, resent).expect("a reply");
        assert!(out.incremental, "trimmed to one span");
        assert_eq!(glued.text(), before.replace("i64 2", "i64 3"));
        assert_matches_cold(&glued);
    }
}
