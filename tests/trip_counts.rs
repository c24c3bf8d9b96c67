//! Trip counts checked against concrete semantics at narrow widths: the
//! count `scev::const_trip_count` answers must be none or exact. A table of
//! wrap-around loops runs on the interpreter, an exhaustive i8 sweep
//! compares every answer with a direct model of the loop (and prints, per
//! shape class, the finite loops that get no count), and a fixed slice of
//! that sweep runs on the interpreter against the same model.

use noelle::analysis::scev::{affine_recurrences, const_trip_count};
use noelle::ir::builder::FunctionBuilder;
use noelle::ir::cfg::Cfg;
use noelle::ir::dom::DomTree;
use noelle::ir::inst::{BinOp, IcmpPred, Inst, InstId};
use noelle::ir::loops::{LoopForest, LoopInfo};
use noelle::ir::module::{Function, Module};
use noelle::ir::types::{IntWidth, Type};
use noelle::ir::value::{Constant, Value};
use noelle::runtime::{run_module, RtError, RunConfig};

/// `main` runs one counter loop and returns how many times its body ran:
///
/// ```text
/// header: %i = phi [entry: start] [body: %i.next]
///         %n = phi i64 [entry: 0] [body: %n.next]
///         (%i.next = add %i, step, when the updated value is tested)
///         %c = icmp pred %tested, bound
///         condbr %c, body, exit   (or exit, body)
/// ```
struct CounterLoop {
    f: Function,
    l: LoopInfo,
    phi: InstId,
    cmp: InstId,
}

fn int(v: i64, w: IntWidth) -> Value {
    Value::Const(Constant::Int(v, w))
}

fn counter_loop(
    w: IntWidth,
    (start, step, bound): (i64, i64, i64),
    pred: IcmpPred,
    continue_on_true: bool,
    test_update: bool,
) -> CounterLoop {
    let ty = Type::Int(w);
    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let entry = b.entry_block();
    let header = b.block("header");
    let body = b.block("body");
    let exit = b.block("exit");
    b.switch_to(entry);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(ty.clone(), vec![(entry, int(start, w))]);
    let n = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let next_in_header = test_update.then(|| b.binop(BinOp::Add, ty.clone(), i, int(step, w)));
    let tested = next_in_header.unwrap_or(i);
    let c = b.icmp(pred, ty.clone(), tested, int(bound, w));
    if continue_on_true {
        b.cond_br(c, body, exit);
    } else {
        b.cond_br(c, exit, body);
    }
    b.switch_to(body);
    let next = next_in_header.unwrap_or_else(|| b.binop(BinOp::Add, ty.clone(), i, int(step, w)));
    let n_next = b.binop(BinOp::Add, Type::I64, n, Value::const_i64(1));
    b.br(header);
    b.add_incoming(i, body, next);
    b.add_incoming(n, body, n_next);
    b.switch_to(exit);
    b.ret(Some(n));
    let f = b.finish();
    let l = {
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        LoopForest::new(&f, &cfg, &dt).loops()[0].clone()
    };
    let (phi, cmp) = (i.as_inst().expect("phi"), c.as_inst().expect("icmp"));
    CounterLoop { f, l, phi, cmp }
}

impl CounterLoop {
    fn scev(&self) -> Option<i64> {
        const_trip_count(&self.f, &self.l, &affine_recurrences(&self.f, &self.l))
    }

    /// The body runs on the interpreter; `None` when the loop outlives
    /// `max_steps`, a budget no finite loop here comes near.
    fn interpreted(&self, max_steps: u64) -> Option<i64> {
        let mut m = Module::new("trip");
        m.add_function(self.f.clone());
        let cfg = RunConfig {
            max_steps,
            ..RunConfig::default()
        };
        match run_module(&m, "main", &[], &cfg) {
            Ok(r) => r.ret_i64(),
            Err(RtError::StepLimit) => None,
            Err(e) => panic!("the loop traps: {e}"),
        }
    }
}

#[test]
fn wrapping_counters_get_no_count_and_the_rest_are_exact() {
    use IcmpPred::{Ne, Slt};
    use IntWidth::{I32, I8};
    // (width, start, step, pred, bound, scev, interpreter)
    let rows = [
        (I8, 100, 10, Slt, 127, None, None), // 130 wraps to -126
        (I32, 2_147_483_600, 100, Slt, 2_147_483_647, None, None),
        (I8, 120, 4, Ne, -128, None, Some(2)), // exits on the wrap: headroom
        (I8, 0, 1, Slt, 100, Some(100), Some(100)),
        (I8, 120, 3, Ne, 126, Some(2), Some(2)),
    ];
    for (w, start, step, pred, bound, scev, ran) in rows {
        let lp = counter_loop(w, (start, step, bound), pred, true, false);
        let row = format!("{w} {start}, {step:+}, {pred:?} {bound}");
        assert_eq!(lp.interpreted(100_000), ran, "interpreter on {row}");
        assert_eq!(lp.scev(), scev, "scev on {row}");
    }
}

const PREDS: [IcmpPred; 10] = [
    IcmpPred::Eq,
    IcmpPred::Ne,
    IcmpPred::Slt,
    IcmpPred::Sle,
    IcmpPred::Sgt,
    IcmpPred::Sge,
    IcmpPred::Ult,
    IcmpPred::Ule,
    IcmpPred::Ugt,
    IcmpPred::Uge,
];

/// The loop run directly on `i8`: how many times the body runs, `None` if
/// it never exits (256 runs revisit a counter value), and whether the
/// counter had stepped past its range by the time the exit test failed.
fn model(
    (start, step, bound): (i8, i8, i8),
    pred: IcmpPred,
    continue_on_true: bool,
    test_update: bool,
) -> (Option<i64>, bool) {
    let holds = |t: i8| match pred {
        IcmpPred::Eq => t == bound,
        IcmpPred::Ne => t != bound,
        IcmpPred::Slt => t < bound,
        IcmpPred::Sle => t <= bound,
        IcmpPred::Sgt => t > bound,
        IcmpPred::Sge => t >= bound,
        IcmpPred::Ult => (t as u8) < bound as u8,
        IcmpPred::Ule => (t as u8) <= bound as u8,
        IcmpPred::Ugt => (t as u8) > bound as u8,
        IcmpPred::Uge => (t as u8) >= bound as u8,
    };
    let (mut i, mut wrapped) = (start, false);
    for runs in 0..=256 {
        let (next, over) = i.overflowing_add(step);
        let tested = if test_update { next } else { i };
        if holds(tested) != continue_on_true {
            return (Some(runs), wrapped || (test_update && over));
        }
        wrapped |= over;
        i = next;
    }
    (None, wrapped)
}

/// Overwrite the loop's start and bound constants in place: the shape, and
/// so its loop forest, stays the same.
fn set_constants(lp: &mut CounterLoop, start: Option<i8>, bound: i8) {
    let f = &mut lp.f;
    if let Some(start) = start {
        if let Inst::Phi { incomings, .. } = f.inst_mut(lp.phi) {
            incomings[0].1 = int(i64::from(start), IntWidth::I8);
        }
    }
    if let Inst::Icmp { rhs, .. } = f.inst_mut(lp.cmp) {
        *rhs = int(i64::from(bound), IntWidth::I8);
    }
}

#[test]
fn every_i8_trip_count_is_none_or_exact() {
    let (mut exact, mut headroom) = (0u64, 0u64);
    // Per shape class: exact counts, finite loops without one, and how many
    // of those exit after the counter wrapped.
    let mut classes = std::collections::BTreeMap::<_, [u64; 3]>::new();
    for (p, pred) in PREDS.into_iter().enumerate() {
        for continue_on_true in [true, false] {
            for step in [1i8, -1, 3, -3, 10, -10] {
                for test_update in [false, true] {
                    let class = classes
                        .entry((p, continue_on_true, test_update))
                        .or_default();
                    let shape = (0, i64::from(step), 0);
                    let mut lp =
                        counter_loop(IntWidth::I8, shape, pred, continue_on_true, test_update);
                    for start in i8::MIN..=i8::MAX {
                        set_constants(&mut lp, Some(start), 0);
                        let recs = affine_recurrences(&lp.f, &lp.l);
                        for bound in i8::MIN..=i8::MAX {
                            set_constants(&mut lp, None, bound);
                            let scev = const_trip_count(&lp.f, &lp.l, &recs);
                            let (real, wrapped) =
                                model((start, step, bound), pred, continue_on_true, test_update);
                            match (scev, real) {
                                (Some(s), r) => {
                                    assert_eq!(
                                        Some(s),
                                        r,
                                        "i8 {start}, {step:+}, {pred:?} {bound}, continue on \
                                         {continue_on_true}, tests the update: {test_update}"
                                    );
                                    exact += 1;
                                    class[0] += 1;
                                }
                                (None, Some(_)) => {
                                    headroom += 1;
                                    class[1] += 1;
                                    class[2] += u64::from(wrapped);
                                }
                                (None, None) => {}
                            }
                        }
                    }
                }
            }
        }
    }
    // Precision headroom, ungated: finite loops that get no count, by shape.
    eprintln!("i8 sweep: {exact} exact counts, {headroom} finite loops without one");
    eprintln!("pred continues-on tests-update     exact  no-count  of-which-wrapped");
    for ((p, continue_on_true, test_update), [e, h, w]) in &classes {
        let pred = format!("{:?}", PREDS[*p]);
        eprintln!("{pred:<4} {continue_on_true:<12} {test_update:<11} {e:>9} {h:>9} {w:>17}");
    }
    assert!(
        exact > 1_000_000,
        "the sweep reached few counted loops: {exact}"
    );
}

/// Every shape of the sweep, and for each a fixed slice of its 65 536
/// (start, bound) pairs, runs on the interpreter: the count it returns must
/// be the model's, and a loop the model never sees exit must end in
/// `StepLimit`. The slice takes every 1021st pair in the sweep's order, about
/// one in 1024; the stride is prime, so both the start and the bound vary.
#[test]
fn the_interpreter_counts_what_the_model_counts_on_a_slice_of_the_i8_sweep() {
    // A finite loop runs its body at most 256 times, five steps a trip.
    const MAX_STEPS: u64 = 2_000;
    let (mut finite, mut endless) = (0u64, 0u64);
    for pred in PREDS {
        for continue_on_true in [true, false] {
            for step in [1i8, -1, 3, -3, 10, -10] {
                for test_update in [false, true] {
                    let shape = (0, i64::from(step), 0);
                    let mut lp =
                        counter_loop(IntWidth::I8, shape, pred, continue_on_true, test_update);
                    for pair in (0..1u32 << 16).step_by(1021) {
                        let start = (pair >> 8) as u8 as i8;
                        let bound = pair as u8 as i8;
                        set_constants(&mut lp, Some(start), bound);
                        let (real, _) =
                            model((start, step, bound), pred, continue_on_true, test_update);
                        assert_eq!(
                            lp.interpreted(MAX_STEPS),
                            real,
                            "i8 {start}, {step:+}, {pred:?} {bound}, continue on \
                             {continue_on_true}, tests the update: {test_update}"
                        );
                        match real {
                            Some(_) => finite += 1,
                            None => endless += 1,
                        }
                    }
                }
            }
        }
    }
    assert_eq!(finite + endless, 240 * 65, "every shape, 65 pairs each");
    assert!(
        finite > 10_000 && endless > 100,
        "{finite} finite, {endless} endless"
    );
}
