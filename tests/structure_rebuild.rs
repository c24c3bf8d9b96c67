//! A function's structures rebuilt in place answer what fresh ones do.
//!
//! The manager and the verifier keep one set of buffers — and the verifier
//! one CFG and one dominator tree — for every body they build, so a build
//! must leave nothing of the body before it behind. One reused CFG,
//! dominator tree, loop forest and buffer set walk every function of the
//! suite, of `scale_module(256, 3)` and of 200 generated modules in turn,
//! bodies larger and smaller than the one before, and each rebuild is
//! compared with a fresh build of the same function: successors,
//! predecessors, reverse postorder and reachability; immediate dominators,
//! children and dominance on every pair of blocks; every field of the loop
//! forest. Blocks past the function's own are asked too: a stale entry of a
//! larger body shows there.

use noelle::ir::cfg::{Cfg, StructureBuffers};
use noelle::ir::dom::DomTree;
use noelle::ir::loops::LoopForest;
use noelle::ir::module::{BlockId, Function, Module};
use noelle::workloads::{all, scale_module};
use noelle_fuzz::generator::{generate, GenConfig};

/// The reused structures, rebuilt for one function after another.
#[derive(Default)]
struct Reused {
    cfg: Cfg,
    dom: DomTree,
    forest: LoopForest,
    buf: StructureBuffers,
}

impl Reused {
    fn rebuild(&mut self, f: &Function) {
        self.cfg.rebuild(f, &mut self.buf);
        self.dom.rebuild(f, &self.cfg, &mut self.buf);
        self.forest.rebuild(f, &self.cfg, &self.dom, &mut self.buf);
    }
}

/// Everything a CFG answers about blocks `0..n`, as text.
fn cfg_answers(cfg: &Cfg, n: usize) -> String {
    let mut out = format!("rpo {:?} exits {:?}\n", cfg.rpo, cfg.exit_blocks());
    for b in (0..n as u32).map(BlockId) {
        out += &format!(
            "{b:?}: succs {:?} preds {:?} reachable {}\n",
            cfg.succs(b),
            cfg.preds(b),
            cfg.is_reachable(b)
        );
    }
    out
}

/// Everything a dominator tree answers about blocks `0..n`, as text.
fn dom_answers(dom: &DomTree, n: usize) -> String {
    let blocks = || (0..n as u32).map(BlockId);
    let mut out = format!("root {:?}\n", dom.root());
    for a in blocks() {
        out += &format!(
            "{a:?}: idom {:?} children {:?} dominates",
            dom.idom(a),
            dom.children(a)
        );
        for b in blocks() {
            out.push(if dom.dominates(a, b) { '1' } else { '0' });
        }
        out.push('\n');
    }
    out
}

/// Every field of a loop forest, and its innermost loop of blocks `0..n`.
fn forest_answers(forest: &LoopForest, n: usize) -> String {
    let mut out = format!(
        "{:?}\ntop {:?} innermost-first {:?}\n",
        forest.loops(),
        forest.top_level(),
        forest.innermost_first()
    );
    for b in (0..n as u32).map(BlockId) {
        out += &format!("{b:?} in {:?}\n", forest.innermost_containing(b));
    }
    out
}

fn modules() -> Vec<(String, Module)> {
    let suite = all().into_iter().map(|w| (w.name.to_string(), w.build()));
    let scale = std::iter::once(("scale_module(256, 3)".to_string(), scale_module(256, 3)));
    let cfg = GenConfig::default();
    let fuzz = (0..200).map(|seed| (format!("fuzz seed {seed}"), generate(seed, &cfg)));
    suite.chain(scale).chain(fuzz).collect()
}

#[test]
fn a_rebuilt_structure_answers_as_a_fresh_one() {
    let mut reused = Reused::default();
    let (mut functions, mut loops, mut shrinks) = (0, 0, 0);
    let mut last = 0;
    for (name, m) in modules() {
        for f in m.functions().iter().filter(|f| !f.is_declaration()) {
            let what = format!("{name} @{}", f.name);
            reused.rebuild(f);
            let cfg = Cfg::new(f);
            let dom = DomTree::new(f, &cfg);
            let forest = LoopForest::new(f, &cfg, &dom);
            // Past the body's own blocks, as far as the body before.
            let n = f.num_blocks().max(last) + 2;
            assert_eq!(cfg_answers(&reused.cfg, n), cfg_answers(&cfg, n), "{what}");
            assert_eq!(dom_answers(&reused.dom, n), dom_answers(&dom, n), "{what}");
            assert_eq!(
                forest_answers(&reused.forest, n),
                forest_answers(&forest, n),
                "{what}"
            );
            functions += 1;
            loops += forest.len();
            shrinks += usize::from(f.num_blocks() < last);
            last = f.num_blocks();
        }
    }
    eprintln!("{functions} functions, {loops} loops, {shrinks} smaller than the one before");
    assert!(functions >= 1100, "{functions} functions");
    assert!(loops >= 1000, "{loops} loops");
    assert!(
        shrinks > 300,
        "{shrinks} bodies smaller than the one before"
    );
}
