//! Diagnostics model: findings carry a stable code (`NL0001`..), a severity,
//! and resolved IR locations, and sort deterministically so that two runs over
//! the same module render byte-identical output in both text and JSON form.

use noelle_core::json::Json;
use noelle_ir::inst::InstId;
use noelle_ir::module::{FuncId, Module};
use std::cmp::Ordering;
use std::fmt;

/// How serious a finding is. Only `Error` findings make `noelle-lint` exit
/// nonzero; warnings and hints are advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Hint,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Hint => "hint",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A position in the IR, resolved to stable coordinates: function name, block
/// name plus its layout index, and the instruction's numeric id.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct IrLoc {
    pub function: String,
    pub block_index: usize,
    pub block: String,
    pub inst: u32,
}

impl IrLoc {
    pub fn of(m: &Module, fid: FuncId, id: InstId) -> IrLoc {
        let f = m.func(fid);
        let b = f.parent_block(id);
        let block_index = f
            .block_order()
            .iter()
            .position(|&x| x == b)
            .unwrap_or(usize::MAX);
        IrLoc {
            function: f.name.clone(),
            block_index,
            block: f.block(b).name.clone(),
            inst: id.0,
        }
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("function".to_string(), Json::Str(self.function.clone())),
            ("block".to_string(), Json::Str(self.block.clone())),
            ("inst".to_string(), Json::Int(i64::from(self.inst))),
        ])
    }
}

impl fmt::Display for IrLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}:{}:%v{}", self.function, self.block, self.inst)
    }
}

/// One diagnostic produced by a lint pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub code: &'static str,
    pub severity: Severity,
    pub loc: IrLoc,
    pub message: String,
    /// Secondary locations (e.g. the other half of a racing access pair).
    pub related: Vec<IrLoc>,
}

impl Finding {
    /// The deterministic ordering key required by the renderers:
    /// (function, block, instruction, code).
    fn key(&self) -> (&str, usize, u32, &'static str) {
        (
            &self.loc.function,
            self.loc.block_index,
            self.loc.inst,
            self.code,
        )
    }

    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("code".to_string(), Json::Str(self.code.to_string())),
            (
                "severity".to_string(),
                Json::Str(self.severity.as_str().to_string()),
            ),
            ("location".to_string(), self.loc.to_json()),
            ("message".to_string(), Json::Str(self.message.clone())),
            (
                "related".to_string(),
                Json::Array(self.related.iter().map(|l| l.to_json()).collect()),
            ),
        ])
    }
}

/// The canonical order of findings, for callers that order *references*
/// (the IDE merges per-function buckets without copying them).
///
/// A *total* order over every field: two findings equal in (key, message)
/// but differing in severity or related locations must still land in a
/// fixed relative order, or the final byte stream would depend on the
/// arrival order. Totality also makes `dedup` reliable: equal findings are
/// always adjacent.
pub fn canonical_order(a: &Finding, b: &Finding) -> Ordering {
    a.key()
        .cmp(&b.key())
        .then_with(|| a.message.cmp(&b.message))
        .then_with(|| a.severity.cmp(&b.severity))
        .then_with(|| a.related.cmp(&b.related))
        .then_with(|| a.loc.cmp(&b.loc))
}

/// Sort findings into [`canonical_order`] and drop exact duplicates.
pub fn sort_findings(findings: &mut Vec<Finding>) {
    findings.sort_by(canonical_order);
    findings.dedup();
}

/// Render findings for a terminal, one line per finding plus related notes.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}[{}] {}: {}\n",
            f.severity.as_str(),
            f.code,
            f.loc,
            f.message
        ));
        for r in &f.related {
            out.push_str(&format!("  note: see also {r}\n"));
        }
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warnings = findings
        .iter()
        .filter(|f| f.severity == Severity::Warning)
        .count();
    let hints = findings
        .iter()
        .filter(|f| f.severity == Severity::Hint)
        .count();
    out.push_str(&format!(
        "{} finding(s): {errors} error(s), {warnings} warning(s), {hints} hint(s)\n",
        findings.len()
    ));
    out
}

/// Findings counted by severity: the `summary` member of a rendered report.
/// Kept apart from the rendering so that a holder of findings it has already
/// rendered (the IDE's per-function records) can add counts up instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Indexed by `Severity as usize`.
    by_severity: [i64; 3],
}

impl Tally {
    /// Count one finding.
    pub fn count(&mut self, f: &Finding) {
        self.by_severity[f.severity as usize] += 1;
    }

    pub fn to_json(&self) -> Json {
        let count = |s: Severity| Json::Int(self.by_severity[s as usize]);
        Json::object(vec![
            (
                "total".to_string(),
                Json::Int(self.by_severity.iter().sum()),
            ),
            ("errors".to_string(), count(Severity::Error)),
            ("warnings".to_string(), count(Severity::Warning)),
            ("hints".to_string(), count(Severity::Hint)),
        ])
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        for (mine, theirs) in self.by_severity.iter_mut().zip(other.by_severity) {
            *mine += theirs;
        }
    }
}

/// Render findings as a JSON document. Findings must already be sorted; the
/// output is then byte-identical across runs (object keys are BTreeMap-ordered
/// and the findings array preserves the canonical order).
pub fn render_json<'a>(findings: impl IntoIterator<Item = &'a Finding>) -> Json {
    let mut tally = Tally::default();
    let rendered: Vec<Json> = findings
        .into_iter()
        .map(|f| {
            tally.count(f);
            f.to_json()
        })
        .collect();
    Json::object(vec![
        ("summary".to_string(), tally.to_json()),
        ("findings".to_string(), Json::Array(rendered)),
    ])
}

/// What [`render_json`] renders to (compact), for findings somebody has
/// already rendered: `findings` is the compact text of the array of their
/// [`Finding::to_json`]s, `tally` their count.
pub fn render_compact(tally: Tally, findings: &str) -> String {
    Json::object(vec![("summary".to_string(), tally.to_json())])
        .to_string_compact_with(&[("findings", findings)])
}

/// True if any finding should make a checking tool exit nonzero.
pub fn has_errors(findings: &[Finding]) -> bool {
    findings.iter().any(|f| f.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(inst: u32) -> IrLoc {
        IrLoc {
            function: "f".to_string(),
            block_index: 1,
            block: "body".to_string(),
            inst,
        }
    }

    /// Parallel PDG partition repair delivers findings in thread-completion
    /// order; two findings that tie on (key, message) but differ in related
    /// locations or severity must still render byte-identically regardless
    /// of arrival order.
    #[test]
    fn sort_is_total_under_arrival_order() {
        let a = Finding {
            code: "NL0001",
            severity: Severity::Warning,
            loc: loc(4),
            message: "unmediated access".to_string(),
            related: vec![loc(9)],
        };
        let b = Finding {
            code: "NL0001",
            severity: Severity::Warning,
            loc: loc(4),
            message: "unmediated access".to_string(),
            related: vec![loc(7)],
        };
        let c = Finding {
            code: "NL0001",
            severity: Severity::Error,
            loc: loc(4),
            message: "unmediated access".to_string(),
            related: vec![],
        };
        let mut fwd = vec![a.clone(), b.clone(), c.clone()];
        let mut rev = vec![c, b, a];
        sort_findings(&mut fwd);
        sort_findings(&mut rev);
        assert_eq!(fwd, rev);
        assert_eq!(
            render_json(&fwd).to_string_pretty(),
            render_json(&rev).to_string_pretty()
        );
        assert_eq!(render_text(&fwd), render_text(&rev));
    }

    #[test]
    fn exact_duplicates_are_dropped() {
        let a = Finding {
            code: "NL0002",
            severity: Severity::Hint,
            loc: loc(2),
            message: "dup".to_string(),
            related: vec![],
        };
        let mut v = vec![a.clone(), a.clone(), a];
        sort_findings(&mut v);
        assert_eq!(v.len(), 1);
    }
}
