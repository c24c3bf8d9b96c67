//! Property tests for the `noelle-ide` diff-parser over the workload
//! registry: random single-function text edits must (a) change exactly the
//! functions whose content fingerprint changed, and (b) leave diagnostics
//! byte-identical to a cold parse+lint of the final text. Parse errors must
//! degrade to last-good diagnostics instead of dropping the session, and the
//! re-audit an edit triggers must follow the edit, not the module.

use noelle::core::json::Json;
use noelle::core::noelle::{AliasTier, Noelle};
use noelle::ir::parser::parse_module;
use noelle::ir::printer::print_module;
use noelle::ir::Module;
use noelle::workloads;
use noelle_ide::{Change, DocSession};
use noelle_lint::{render_json, run_checks};
use std::collections::{BTreeMap, BTreeSet};

/// Deterministic xorshift64* generator (same family as the workload
/// registry's own).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The registry the property quantifies over: the 41-benchmark corpus plus
/// the PDG stress workload — 42 programs.
fn registry() -> Vec<workloads::Workload> {
    let mut ws = workloads::all();
    ws.push(workloads::pdg_stress());
    ws
}

fn fingerprints(m: &Module) -> BTreeMap<String, u64> {
    m.functions()
        .iter()
        .filter(|f| !f.is_declaration())
        .map(|f| (f.name.clone(), f.fingerprints().1))
        .collect()
}

/// Names whose fingerprint in `after` differs from (or is missing in)
/// `before`.
fn diff(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> BTreeSet<String> {
    after
        .iter()
        .filter(|(name, fp)| before.get(*name) != Some(fp))
        .map(|(name, _)| name.clone())
        .collect()
}

/// Cold reference: parse the final text from scratch and run every lint
/// check, rendered to the same wire format the session serves.
fn cold_report(text: &str) -> String {
    let m = parse_module(text).expect("final text parses");
    let mut n = Noelle::new(m, AliasTier::Basic);
    render_json(&run_checks(&mut n, "all").expect("'all' is a known check")).to_string_compact()
}

fn session_report(s: &DocSession) -> String {
    render_json(&s.findings()).to_string_compact()
}

/// What an editor holds that keeps `ide/open`'s payload and patches it with
/// the push of every `ide/change`: the lint report whole (every push
/// carries it), audit findings and plan rows by function. A push's plan
/// section names the functions the change re-derived — `{name: [rows]}`,
/// an empty list included — so a function it names has its findings
/// replaced and one it does not keeps what it had. If a push named too few
/// functions, or findings of one it did not name, the editor would drift
/// from what `ide/diagnostics` answers.
struct EditorModel {
    report: Json,
    audit: BTreeMap<String, Vec<Json>>,
    plan: BTreeMap<String, Json>,
}

fn audit_findings_of(payload: &Json) -> &[Json] {
    let findings = payload.get("audit").and_then(|a| a.get("findings"));
    findings.and_then(Json::as_array).expect("audit findings")
}

impl EditorModel {
    fn seeded(open: &Json) -> EditorModel {
        let mut model = EditorModel {
            report: Json::Null,
            audit: BTreeMap::new(),
            plan: BTreeMap::new(),
        };
        model.patch(open);
        model
    }

    fn patch(&mut self, push: &Json) {
        self.report = push.get("report").expect("report").clone();
        let fresh = push.get("plan").and_then(Json::as_object).expect("plan");
        for (name, rows) in fresh {
            self.plan.insert(name.clone(), rows.clone());
            self.audit.insert(name.clone(), Vec::new());
        }
        for f in audit_findings_of(push) {
            let owner = f.get("location").and_then(|l| l.get("function"));
            let owner = owner.and_then(Json::as_str).expect("finding location");
            assert!(fresh.contains_key(owner), "finding of unnamed @{owner}");
            self.audit.get_mut(owner).expect("named").push(f.clone());
        }
    }

    fn assert_holds(&self, pull: &Json, context: &str) {
        assert_eq!(Some(&self.report), pull.get("report"), "{context}: report");
        let plan = Json::object(self.plan.iter().map(|(k, v)| (k.clone(), v.clone())));
        assert_eq!(Some(&plan), pull.get("plan"), "{context}: plan rows");
        let held: Vec<&Json> = self.audit.values().flatten().collect();
        let pulled: Vec<&Json> = audit_findings_of(pull).iter().collect();
        assert_eq!(held, pulled, "{context}: audit findings");
    }
}

/// What the daemon sends is what an in-process caller gets, rendered: the
/// text payload — concatenated from what each record rendered when it was
/// derived — against the tree built from the stored findings, byte for
/// byte, for the pull and for the push.
fn assert_text_is_the_tree(s: &DocSession, context: &str) {
    assert!(
        s.diagnostics_text() == s.diagnostics_json().to_string_compact(),
        "{context}: the pull's text is not its tree rendered"
    );
    assert!(
        s.push_diagnostics_text() == s.push_diagnostics_json().to_string_compact(),
        "{context}: the push's text is not its tree rendered"
    );
}

#[test]
fn random_single_function_edits_match_cold_lint() {
    let ws = registry();
    assert_eq!(ws.len(), 42, "the property quantifies over 42 workloads");
    for (wi, w) in ws.iter().enumerate() {
        let text = print_module(&w.build());
        let mut s = DocSession::open(w.name, &text, AliasTier::Basic);
        assert!(
            s.syntax_error().is_none(),
            "{}: printed module parses",
            w.name
        );
        assert_eq!(
            session_report(&s),
            cold_report(&s.text()),
            "{}: open",
            w.name
        );
        let mut editor = EditorModel::seeded(&s.diagnostics_json());
        assert_text_is_the_tree(&s, w.name);

        let mut rng = Rng::new(0x1DE0 + wi as u64);
        for step in 0..3u64 {
            let before = fingerprints(s.noelle().expect("good state").module());
            let spans: Vec<(String, usize)> = s
                .spans()
                .iter()
                .map(|sp| (sp.name.clone(), sp.start_line))
                .collect();
            let (target, define_line) = spans[rng.below(spans.len())].clone();
            // Three of four edits attach fresh function metadata (a
            // semantic change to exactly one function); the fourth inserts
            // a comment (a text change with no semantic effect).
            let semantic = rng.below(4) != 0;
            let inserted = if semantic {
                format!("  fmeta \"prop.edit{step}\" = \"{}\"", rng.next())
            } else {
                format!("  ; sweep {step}")
            };
            let out = s
                .change(
                    s.version() + 1,
                    Change::Splice {
                        start_line: define_line + 1,
                        end_line: define_line + 1,
                        lines: vec![inserted],
                    },
                )
                .expect("in-range splice");
            assert!(
                out.incremental,
                "{}: single-function edit reparses a snippet",
                w.name
            );
            assert!(out.syntax_error.is_none());

            // (a) The functions the diff-parser actually updated in the
            // live module == the functions whose fingerprint changed in a
            // cold parse of the final text == the edited function (or
            // nothing, for the comment edit).
            let after = fingerprints(s.noelle().expect("still good").module());
            let cold = parse_module(&s.text()).expect("final text parses");
            let truth = diff(&before, &fingerprints(&cold));
            assert_eq!(
                diff(&before, &after),
                truth,
                "{}: diffed function set == fingerprint-diff set",
                w.name
            );
            let expected: BTreeSet<String> = if semantic {
                std::iter::once(target.clone()).collect()
            } else {
                BTreeSet::new()
            };
            assert_eq!(truth, expected, "{}: edit touched @{target} only", w.name);
            let named: BTreeSet<String> = out.changed_functions.iter().cloned().collect();
            assert!(
                truth.is_subset(&named),
                "{}: the reply names every changed function",
                w.name
            );

            // (b) Diagnostics are byte-identical to a cold parse+lint.
            assert_eq!(
                session_report(&s),
                cold_report(&s.text()),
                "{}: edit-then-diagnose == cold parse+lint",
                w.name
            );

            // (c) An editor that applied every push holds what a pull
            // answers.
            editor.patch(&s.push_diagnostics_json());
            editor.assert_holds(&s.diagnostics_json(), w.name);
            assert_text_is_the_tree(&s, w.name);
        }
    }
}

#[test]
fn parse_errors_degrade_to_last_good_diagnostics() {
    for w in registry().iter().step_by(5) {
        let text = print_module(&w.build());
        let mut s = DocSession::open(w.name, &text, AliasTier::Basic);
        let good = session_report(&s);

        let define_line = s.spans()[0].start_line;
        let out = s
            .change(
                2,
                Change::Splice {
                    start_line: define_line + 1,
                    end_line: define_line + 1,
                    lines: vec!["  utterly not nir".to_string()],
                },
            )
            .expect("broken text is accepted, not rejected");
        assert!(out.syntax_error.is_some(), "{}: syntax diagnostic", w.name);
        assert!(s.syntax_error().is_some());
        assert_text_is_the_tree(&s, w.name);
        assert_eq!(
            session_report(&s),
            good,
            "{}: last-good diagnostics survive a parse error",
            w.name
        );

        // A full-text restore recovers the session in place.
        let out = s.change(3, Change::Full(text)).expect("restore");
        assert!(out.syntax_error.is_none(), "{}: recovered", w.name);
        assert!(s.syntax_error().is_none());
        assert_eq!(session_report(&s), good, "{}: diagnostics restored", w.name);
        assert_text_is_the_tree(&s, w.name);
    }
}

#[test]
fn reaudit_follows_the_edit_not_the_module() {
    const FUNCTIONS: usize = 256;
    const EDITS: u64 = 4;
    let text = print_module(&workloads::scale_module(FUNCTIONS, 42));
    let mut s = DocSession::open("scale", &text, AliasTier::Basic);
    assert!(s.syntax_error().is_none());
    let mut editor = EditorModel::seeded(&s.diagnostics_json());
    let define_line = s
        .spans()
        .iter()
        .find(|sp| sp.name == format!("k{}", FUNCTIONS / 2))
        .expect("target kernel")
        .start_line;
    let mut splice = |s: &mut DocSession, start_line, end_line, line: String| {
        let out = s
            .change(
                s.version() + 1,
                Change::Splice {
                    start_line,
                    end_line,
                    lines: vec![line.clone()],
                },
            )
            .expect("in-range splice");
        assert!(
            out.incremental,
            "one-function edit takes the diff-parse path"
        );
        // Body edits push the hints of their audit closure and nothing
        // else; an editor patched with just those stays whole.
        editor.patch(&s.push_diagnostics_json());
        editor.assert_holds(&s.diagnostics_json(), &line);
        assert_text_is_the_tree(s, &line);
        out
    };
    let target = format!("k{}", FUNCTIONS / 2);

    // Metadata-only edits: no analysis reads metadata, so the commit finds
    // no body moved and damages nothing — nothing is relinted or
    // re-audited, though the reply still names the function whose text
    // changed. The first splice inserts the line, the rest replace it with
    // a different value.
    for i in 0..EDITS {
        let end = define_line + 1 + usize::from(i > 0);
        let line = format!("  fmeta \"ide.tick\" = \"{i}\"");
        let out = splice(&mut s, define_line + 1, end, line);
        assert_eq!(out.relinted, 0, "a metadata keystroke relints nothing");
        assert_eq!(out.changed_functions, std::slice::from_ref(&target));
    }
    assert_eq!(
        s.counters().reaudited_functions,
        0,
        "metadata-only edits skip the re-audit entirely"
    );

    // Body edits: a dead instruction after `entry:` moves the fingerprint
    // the auditor reads and nothing a caller does, so the kernel alone is
    // damaged. Each re-audits it plus its one-hop call closure — its group
    // function, which prices the kernel's body — never the 31 siblings.
    let body_line = define_line + 3; // define, fmeta, entry:, <here>
    for i in 0..EDITS {
        let end = body_line + usize::from(i > 0);
        let line = format!("  %bt = add i64 i64 {i}, i64 {i}");
        let out = splice(&mut s, body_line, end, line);
        assert!(out.relinted >= 1, "a body edit re-lints its damage");
    }
    let reaudited = s.counters().reaudited_functions;
    assert_eq!(
        reaudited,
        EDITS * 2,
        "{EDITS} body edits re-audited {reaudited} of {FUNCTIONS} functions"
    );

    // One more, in a kernel whose hints name instructions: the inserted line
    // renumbers them, so an editor the change did not push the kernel's
    // fresh hints to would now hold stale ones.
    let hinted = s.audit_findings().into_iter().map(|f| f.loc.function);
    let hinted = hinted.filter(|name| name.starts_with('k')).nth(40);
    let hinted = hinted.expect("a kernel with hints");
    let span = s.spans().iter().find(|sp| sp.name == hinted);
    let body_line = span.expect("its span").start_line + 2; // define, entry:, <here>
    let line = "  %bt = add i64 i64 1, i64 1".to_string();
    let out = splice(&mut s, body_line, body_line, line);
    assert!(out.relinted >= 1, "a body edit re-lints its damage");

    // What the incremental path left behind is what a cold open of the same
    // text derives, to the byte — hints and plan rows alike.
    let cold = DocSession::open("scale", &s.text(), AliasTier::Basic);
    assert_eq!(
        render_json(&s.audit_findings()).to_string_compact(),
        render_json(&cold.audit_findings()).to_string_compact(),
        "incremental audit hints diverge from a cold open"
    );
    assert_eq!(
        s.plan_hints().to_string_compact(),
        cold.plan_hints().to_string_compact(),
        "incremental plan hints diverge from a cold open"
    );
}

/// Metadata keystrokes move no body, so they damage nothing: each reply
/// relints 0 functions and names the one whose text changed, the function's
/// analyses keep their epoch, the session's counters do not move, and what
/// it serves is byte for byte what a cold open of the same text serves.
#[test]
fn metadata_keystrokes_relint_nothing_and_serve_a_cold_open() {
    const KEYSTROKES: usize = 12;
    let text = print_module(&workloads::scale_module(64, 3));
    let mut s = DocSession::open("scale", &text, AliasTier::Basic);
    let before = s.counters();
    let epoch = |s: &DocSession, name: &str| {
        let n = s.noelle().expect("the document parses");
        n.epoch(
            n.module()
                .func_id_by_name(name)
                .expect("a defined function"),
        )
    };
    for i in 0..KEYSTROKES {
        let span = s.spans()[i * 7 % s.spans().len()].clone();
        let was = epoch(&s, &span.name);
        let keystroke = Change::Splice {
            start_line: span.start_line + 1,
            end_line: span.start_line + 1,
            lines: vec![format!("  fmeta \"ide.k{i}\" = \"{i}\"")],
        };
        let out = s.change(s.version() + 1, keystroke).expect("in range");
        assert!(out.incremental && out.syntax_error.is_none());
        assert_eq!(out.relinted, 0, "keystroke {i} relinted its damage");
        assert_eq!(out.changed_functions, std::slice::from_ref(&span.name));
        assert_eq!(epoch(&s, &span.name), was, "keystroke {i} moved an epoch");
        assert_text_is_the_tree(&s, &format!("keystroke {i}"));
    }
    let after = s.counters();
    assert_eq!(after.relinted_functions, before.relinted_functions);
    assert_eq!(after.reaudited_functions, before.reaudited_functions);
    assert_eq!(
        after.incremental_reparses,
        before.incremental_reparses + KEYSTROKES as u64
    );
    let cold = DocSession::open("scale", &s.text(), AliasTier::Basic);
    assert!(s.text().contains("ide.k11") && cold.syntax_error().is_none());
    let unversioned = |d: &DocSession| {
        let version = format!("\"version\":{}", d.version());
        d.diagnostics_text().replacen(&version, "\"version\":0", 1)
    };
    assert_eq!(unversioned(&s), unversioned(&cold));
}

/// One document through every kind of state a session has — never parsed,
/// cold start, body edit, metadata keystroke, syntax-broken, repaired,
/// same-shape full reparse, shape change — holding the text payloads
/// against the trees at each.
#[test]
fn the_text_payload_is_the_tree_rendered_in_every_state() {
    let mut documents: Vec<(String, String)> = registry()
        .iter()
        .step_by(6)
        .map(|w| (w.name.to_string(), print_module(&w.build())))
        .collect();
    let scale = workloads::scale_module(64, 3);
    documents.push(("scale".to_string(), print_module(&scale)));
    for (name, text) in documents {
        let splice = |start_line: usize, replaced: usize, line: &str| Change::Splice {
            start_line,
            end_line: start_line + replaced,
            lines: vec![line.to_string()],
        };
        let mut s = DocSession::open(name.as_str(), "module \"x\" {", AliasTier::Basic);
        let step = |s: &mut DocSession, what: &str, change: Change| {
            let out = s.change(s.version() + 1, change).expect("in range");
            assert_text_is_the_tree(s, &format!("{name}: {what}"));
            out
        };
        assert!(s.syntax_error().is_some());
        assert_text_is_the_tree(&s, &format!("{name}: never parsed"));
        step(&mut s, "cold start", Change::Full(text));
        assert!(s.syntax_error().is_none());

        // The last function's first label is its entry block's; a dead
        // instruction under it is a body edit.
        let (first, last) = (s.spans()[0].clone(), s.spans().last().expect("one").clone());
        let body = s.text();
        let mut body = body.lines().enumerate().skip(last.start_line);
        let (label, _) = body
            .find(|(_, l)| l.ends_with(':'))
            .expect("an entry label");
        let out = step(
            &mut s,
            "body edit",
            splice(label + 2, 0, "  %bt = add i64 i64 1, i64 2"),
        );
        assert!(out.incremental && out.relinted >= 1);
        let reaudited = s.counters().reaudited_functions;
        assert!(reaudited > 0, "{name}: a body edit re-audits");

        let meta = first.start_line + 1;
        let out = step(
            &mut s,
            "keystroke",
            splice(meta, 0, "  fmeta \"k\" = \"1\""),
        );
        assert!(out.incremental && out.relinted == 0);
        assert_eq!(out.changed_functions, std::slice::from_ref(&first.name));
        assert_eq!(s.counters().reaudited_functions, reaudited);
        let out = step(&mut s, "broken", splice(meta, 1, "  utterly not nir"));
        assert!(out.syntax_error.is_some());
        let out = step(&mut s, "repaired", splice(meta, 1, "  fmeta \"k\" = \"2\""));
        assert!(out.syntax_error.is_none());

        // Two functions changed in one text: no single span holds the
        // window, the shape is the same, so both are swapped in place.
        if first.name != last.name {
            let last_define = s.spans().last().expect("one").start_line;
            let mut lines: Vec<String> = s.text().lines().map(str::to_string).collect();
            lines.insert(last_define, "  fmeta \"k\" = \"3\"".to_string());
            lines[meta - 1] = "  fmeta \"k\" = \"3\"".to_string();
            let full = s.counters().full_reparses;
            let out = step(&mut s, "full reparse", Change::Full(lines.join("\n")));
            assert!(!out.incremental && out.relinted == 0);
            assert_eq!(
                out.changed_functions,
                [first.name.clone(), last.name.clone()]
            );
            assert_eq!(s.counters().full_reparses, full + 1);
        }

        // One more function: a new shape, so a new state from cold.
        let mut grown = s.text();
        let close = grown.rfind('}').expect("the module's closing brace");
        grown.insert_str(
            close,
            "define i64 @ide.added(i64 %x) {\nentry:\n  ret %x\n}\n",
        );
        let out = step(&mut s, "shape change", Change::Full(grown));
        assert!(out.syntax_error.is_none() && !out.incremental);
        assert!(s.plan_hints().get("ide.added").is_some());
    }
}
