//! `ide_session`: an editing session against an in-process daemon over a
//! real localhost socket. One op is a fixed script of edits to a
//! 991-function document and one full diagnostics pull.

use crate::compile::CommitCounters;
use crate::inputs;
use crate::measure::{fnv1a, SplitMix64, FNV_SEED};
use crate::trace::Tracer;
use crate::Workload;
use noelle_core::json::Json;
use noelle_core::noelle::AliasTier;
use noelle_ide::{Change, DocSession};
use noelle_ir::printer::print_module;
use noelle_server::{Client, RunningServer, Server, ServerConfig};
use std::time::Instant;

/// Groups in the edited document: 991 functions.
pub const DOC_GROUPS: usize = 30;
/// Kernels edited per op; one body edit each.
pub const TARGETS: usize = 4;
/// Metadata keystrokes per target per op. Even, so the two-valued `fmeta`
/// line is back where it started after every op.
pub const KEYSTROKES: usize = 8;

const DOC: &str = "bench";

/// The shapes body edits go to, one target each: the four whose kernels
/// carry a constant operand that no loop bound or address depends on, so
/// rewriting it never changes a verdict. Picking targets by shape keeps
/// every seed's script the same amount of work.
const TARGET_SHAPES: [usize; TARGETS] = [2, 4, 5, 7];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// Rewrites a constant operand: the function's body fingerprint moves,
    /// so alias rows, lint, audit and plan hints are re-derived.
    Body,
    /// Rewrites an `fmeta` value: content changes, body does not, so the
    /// audit is skipped — what a keystroke in a comment or annotation costs.
    Neutral,
}

/// Replace 1-based line `line` with `text`.
#[derive(Clone, Debug)]
pub struct Edit {
    pub kind: EditKind,
    pub line: usize,
    pub text: String,
}

#[derive(Clone, Debug)]
struct Target {
    /// 1-based line of the `fmeta` line (right under the `define`).
    meta_line: usize,
    /// 1-based line of the instruction whose last operand is rewritten.
    body_line: usize,
}

/// The document as the editor holds it, and the edit script over it.
#[derive(Clone, Debug)]
pub struct Script {
    lines: Vec<String>,
    targets: Vec<Target>,
}

const TICK: &str = "  fmeta \"bench.tick\" = \"tick\"";
const TOCK: &str = "  fmeta \"bench.tick\" = \"tock\"";

/// `  %v25 = mul i64 %v24, i64 3` → the same line with the constant's
/// lowest bit flipped (3 ↔ 2, 45 ↔ 44, 15 ↔ 14): always the same number of
/// digits, so the document never changes length.
fn toggle_constant(line: &str) -> Option<String> {
    let (head, c) = line.rsplit_once(", i64 ")?;
    let c: u64 = c.parse().ok()?;
    Some(format!("{head}, i64 {}", c ^ 1))
}

/// True for an instruction a body edit may rewrite: integer mixing whose
/// constant operand feeds data only.
fn rewritable(line: &str) -> bool {
    [" = mul i64 %", " = xor i64 %", " = and i64 %"]
        .iter()
        .any(|op| line.contains(op))
        && toggle_constant(line).is_some()
}

impl Script {
    /// The `DOC_GROUPS`-group document for `seed`, with a `fmeta` line
    /// added under the `define` of each of the `TARGETS` seeded kernels.
    pub fn new(seed: u64) -> Script {
        let (m, shapes) = inputs::bench_module(DOC_GROUPS, seed);
        let mut lines: Vec<String> = print_module(&m).lines().map(str::to_string).collect();
        let mut rng = SplitMix64(seed ^ 0x1de5_e551_0000_0000);
        let mut picks: Vec<usize> = TARGET_SHAPES
            .iter()
            .map(|&shape| {
                let of_shape: Vec<usize> =
                    (0..shapes.len()).filter(|&i| shapes[i] == shape).collect();
                of_shape[rng.below(of_shape.len())]
            })
            .collect();
        // Top to bottom, so inserting one target's line never moves an
        // earlier target's.
        picks.sort_unstable();
        let mut targets = Vec::with_capacity(TARGETS);
        for k in picks {
            let head = format!("@k{k}(");
            let define = lines
                .iter()
                .position(|l| l.starts_with("define") && l.contains(&head))
                .expect("every kernel is printed");
            lines.insert(define + 1, TICK.to_string());
            let body = (define + 2..lines.len())
                .take_while(|&i| lines[i] != "}")
                .find(|&i| rewritable(&lines[i]))
                .expect("target shapes carry a rewritable constant");
            targets.push(Target {
                meta_line: define + 2,
                body_line: body + 1,
            });
        }
        Script { lines, targets }
    }

    pub fn text(&self) -> String {
        self.lines.join("\n")
    }

    /// The edits of the next op, applied to this copy of the document as
    /// they are produced: per target, one body edit then `KEYSTROKES`
    /// metadata keystrokes.
    pub fn next_op(&mut self) -> Vec<Edit> {
        let mut edits = Vec::with_capacity(TARGETS * (1 + KEYSTROKES));
        for t in &self.targets {
            let text = toggle_constant(&self.lines[t.body_line - 1]).expect("checked in new");
            self.lines[t.body_line - 1] = text.clone();
            edits.push(Edit {
                kind: EditKind::Body,
                line: t.body_line,
                text,
            });
            for _ in 0..KEYSTROKES {
                let text = if self.lines[t.meta_line - 1] == TICK {
                    TOCK
                } else {
                    TICK
                };
                self.lines[t.meta_line - 1] = text.to_string();
                edits.push(Edit {
                    kind: EditKind::Neutral,
                    line: t.meta_line,
                    text: text.to_string(),
                });
            }
        }
        edits
    }
}

fn splice_params(version: u64, e: &Edit) -> Json {
    Json::object([
        ("doc".to_string(), Json::Str(DOC.to_string())),
        ("version".to_string(), Json::Int(version as i64)),
        ("start_line".to_string(), Json::Int(e.line as i64)),
        ("end_line".to_string(), Json::Int(e.line as i64 + 1)),
        (
            "lines".to_string(),
            Json::Array(vec![Json::Str(e.text.clone())]),
        ),
    ])
}

/// The parts of a diagnostics payload that describe the document (the
/// version counter is the only other part), serialized for comparison.
fn findings_of(diag: &Json) -> Result<String, String> {
    let mut s = String::new();
    for key in ["report", "audit", "plan"] {
        let part = diag
            .get(key)
            .ok_or_else(|| format!("diagnostics carry no '{key}'"))?;
        s.push_str(&part.to_string_compact());
        s.push('\n');
    }
    Ok(s)
}

/// [`findings_of`] without the plan hints' `weight` fields. A loop's weight
/// is its share of the loops planned *together*: the incremental path
/// re-plans an edit's closure, a cold open plans the module, so the two
/// disagree on it by construction (0.0523 against 0.0017 for the same
/// loop). Everything else must match to the byte.
fn findings_sans_weight(diag: &Json) -> Result<String, String> {
    fn strip(v: &Json) -> Json {
        match v {
            Json::Object(o) => Json::object(
                o.iter()
                    .filter(|(k, _)| k.as_str() != "weight")
                    .map(|(k, v)| (k.clone(), strip(v))),
            ),
            Json::Array(xs) => Json::Array(xs.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    findings_of(&strip(diag))
}

pub struct IdeSession {
    server: Option<RunningServer>,
    client: Client,
    script: Script,
    version: u64,
    /// The latest diagnostics pull.
    last_pull: Json,
    reply_bytes: u64,
    ops_run: u64,
}

impl IdeSession {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<IdeSession, String> {
        let script = Script::new(seed);
        let server = Server::new(ServerConfig::default())
            .start()
            .map_err(|e| format!("daemon does not start: {e}"))?;
        let mut client = Client::connect(&server.addr.to_string())
            .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
        let opened = tr
            .span("ide.cold_open", |_| {
                client.call(
                    "ide/open",
                    Json::object([
                        ("doc".to_string(), Json::Str(DOC.to_string())),
                        ("text".to_string(), Json::Str(script.text())),
                    ]),
                )
            })
            .map_err(|e| format!("ide/open failed: {e}"))?;
        let functions = opened.get("functions").and_then(Json::as_i64).unwrap_or(0);
        // The daemon's count includes declarations.
        if functions < inputs::funcs_in(DOC_GROUPS) as i64 {
            return Err(format!("document opened with {functions} functions"));
        }
        Ok(IdeSession {
            server: Some(server),
            client,
            script,
            version: 1,
            last_pull: Json::Null,
            reply_bytes: 0,
            ops_run: 0,
        })
    }

    fn request(&mut self, method: &str, params: Json) -> Result<Json, String> {
        self.client
            .send(method, params)
            .map_err(|e| format!("{method}: send failed: {e}"))?;
        let text = self
            .client
            .recv_text()
            .map_err(|e| format!("{method}: no reply: {e}"))?;
        self.reply_bytes += text.len() as u64;
        let reply = Json::parse(&text).ok_or_else(|| format!("{method}: reply is not JSON"))?;
        match reply.get("ok") {
            Some(ok) => Ok(ok.clone()),
            None => Err(format!("{method}: error reply: {text}")),
        }
    }
}

impl Workload for IdeSession {
    fn op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        for e in self.script.next_op() {
            self.version += 1;
            let params = splice_params(self.version, &e);
            let name = match e.kind {
                EditKind::Body => "ide.body_edit",
                EditKind::Neutral => "ide.neutral_edit",
            };
            let ok = tr.span(name, |_| self.request("ide/change", params))?;
            if ok.get("incremental") != Some(&Json::Bool(true)) {
                return Err(format!("edit of line {} left the incremental path", e.line));
            }
        }
        let diag = tr.span("ide.pull", |_| {
            self.request(
                "ide/diagnostics",
                Json::object([("doc".to_string(), Json::Str(DOC.to_string()))]),
            )
        })?;
        let hash = fnv1a(FNV_SEED, findings_of(&diag)?.as_bytes());
        self.last_pull = diag;
        self.ops_run += 1;
        Ok(hash)
    }

    /// No code is emitted. What is checked instead, once per run: after all
    /// the incremental repairs so far, the daemon's diagnostics are
    /// byte-identical to a cold analysis of the text the editor now holds.
    fn check_emitted(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        let cold = tr.span("ide.cold_reference", |_| {
            DocSession::open("reference", &self.script.text(), AliasTier::Basic)
        });
        if findings_sans_weight(&cold.diagnostics_json())? != findings_sans_weight(&self.last_pull)?
        {
            return Err("incremental diagnostics differ from a cold open of the same text".into());
        }
        Ok(1.0)
    }

    fn finish(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let reply_bytes_per_op = self.reply_bytes as f64 / self.ops_run as f64;
        let stats = self.request("stats", Json::object([]))?;
        let ide = |key: &str| -> f64 {
            stats
                .get("ide")
                .and_then(|i| i.get(key))
                .and_then(Json::as_i64)
                .unwrap_or(-1) as f64
        };
        if ide("full_reparses") != 0.0 || ide("parse_failures") != 0.0 {
            return Err(format!(
                "{} full reparses and {} parse failures in a script of one-line edits",
                ide("full_reparses"),
                ide("parse_failures")
            ));
        }
        if !tr.on {
            return Ok(());
        }
        let body_edits = (self.ops_run as usize * TARGETS) as f64;
        tr.total("ide.full_reparses", ide("full_reparses"));
        tr.total(
            "ide.relinted_funcs_per_edit",
            ide("relinted_functions") / ide("changes"),
        );
        tr.total(
            "ide.reaudited_funcs_per_body_edit",
            ide("reaudited_functions") / body_edits,
        );
        tr.total("server.reply_bytes_per_op", reply_bytes_per_op);
        let state = &self.server.as_ref().expect("running until close").state;
        let sheds: u64 = state.shards().iter().map(|s| s.shed_count()).sum();
        tr.total("server.sheds", sheds as f64);
        let timeouts: i64 = state.metrics.to_json().as_object().map_or(0, |methods| {
            methods
                .values()
                .filter_map(|m| m.get("timeouts").and_then(Json::as_i64))
                .sum()
        });
        tr.total("server.timeouts", timeouts as f64);

        // Round trip of a request that does no work.
        const PINGS: usize = 200;
        let t = Instant::now();
        for _ in 0..PINGS {
            self.request("ping", Json::object([]))?;
        }
        tr.total(
            "server.ping_rtt_ns",
            t.elapsed().as_nanos() as f64 / PINGS as f64,
        );

        // The same script on a `DocSession` in this thread, from the text
        // the editor holds now: what the edits cost without the server, its
        // framing and its JSON. The session's manager is reachable here, so
        // this is also where the commit path's own counters are read.
        const REPLAYS: u64 = 10;
        let mut script = self.script.clone();
        let mut doc = DocSession::open(DOC, &script.text(), AliasTier::Basic);
        let commit_counters =
            |doc: &DocSession| CommitCounters::read(doc.noelle().expect("document parses"));
        let before = commit_counters(&doc);
        let mut version = 1;
        let t = Instant::now();
        for _ in 0..REPLAYS {
            for e in script.next_op() {
                version += 1;
                let out = doc.change(
                    version,
                    Change::Splice {
                        start_line: e.line,
                        end_line: e.line + 1,
                        lines: vec![e.text],
                    },
                )?;
                std::hint::black_box(doc.push_diagnostics_json());
                if !out.incremental {
                    return Err("direct replay left the incremental path".into());
                }
            }
            std::hint::black_box(doc.diagnostics_json());
        }
        tr.total(
            "ide.direct_ns_per_op",
            t.elapsed().as_nanos() as f64 / REPLAYS as f64,
        );
        for (name, moved) in commit_counters(&doc).since(&before) {
            tr.total(name, moved / REPLAYS as f64);
        }

        // One break + repair pair: a line that does not parse degrades the
        // session to last-good; restoring it must recover.
        let line = script.targets[0].body_line;
        let good = script.lines[line - 1].clone();
        let t = Instant::now();
        for text in ["  %%% not an instruction".to_string(), good] {
            version += 1;
            doc.change(
                version,
                Change::Splice {
                    start_line: line,
                    end_line: line + 1,
                    lines: vec![text],
                },
            )?;
        }
        tr.total("ide.syntax_repair_ns", t.elapsed().as_nanos() as f64);
        if doc.syntax_error().is_some() {
            return Err("document did not recover from the syntax break".into());
        }
        Ok(())
    }

    fn close(mut self: Box<Self>) {
        if let Some(server) = self.server.take() {
            server.shutdown_and_join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_leaves_document_length_unchanged() {
        let mut s = Script::new(9);
        let (lines, bytes) = (s.lines.len(), s.text().len());
        let start = s.text();
        for op in 1..=3 {
            let edits = s.next_op();
            assert_eq!(edits.len(), TARGETS * (1 + KEYSTROKES));
            assert_eq!(
                edits.iter().filter(|e| e.kind == EditKind::Body).count(),
                TARGETS
            );
            assert_eq!(s.lines.len(), lines, "op {op}: one-line replacements only");
            assert_eq!(s.text().len(), bytes, "op {op}: same digits, same length");
        }
        assert_ne!(
            s.text(),
            start,
            "an odd number of ops leaves the constants flipped"
        );
        s.next_op();
        assert_eq!(s.text(), start, "two ops are the identity");
    }

    #[test]
    fn every_edit_changes_its_line() {
        let mut s = Script::new(3);
        let mut doc = s.lines.clone();
        for e in s.next_op() {
            assert_ne!(doc[e.line - 1], e.text, "a no-op edit would cost nothing");
            doc[e.line - 1] = e.text;
        }
        assert_eq!(doc, s.lines, "the script's copy is what the edits produce");
    }

    #[test]
    fn seeds_pick_different_targets_of_the_same_shapes() {
        let (a, b) = (Script::new(1), Script::new(2));
        assert_ne!(
            a.targets.iter().map(|t| t.body_line).collect::<Vec<_>>(),
            b.targets.iter().map(|t| t.body_line).collect::<Vec<_>>()
        );
        assert_eq!(a.text().len(), b.text().len());
    }

    #[test]
    fn toggle_keeps_the_digit_count() {
        for (from, to) in [
            ("3", "2"),
            ("45", "44"),
            ("15", "14"),
            ("8", "9"),
            ("100", "101"),
        ] {
            let line = format!("  %v1 = mul i64 %v0, i64 {from}");
            assert_eq!(
                toggle_constant(&line).as_deref(),
                Some(format!("  %v1 = mul i64 %v0, i64 {to}").as_str())
            );
        }
        assert_eq!(toggle_constant("  br header"), None);
    }
}
