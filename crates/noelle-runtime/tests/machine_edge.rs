//! Edge cases of the simulated machine: deadlocks, unknown externals,
//! runtime function pointers, allocation intrinsics, and queue capacity
//! back-pressure.

use noelle_ir::parser::parse_module;
use noelle_runtime::{run_module, RtError, RunConfig};

fn run(src: &str) -> Result<noelle_runtime::RunResult, RtError> {
    let m = parse_module(src).expect("parses");
    run_module(&m, "main", &[], &RunConfig::default())
}

#[test]
fn pop_with_no_producer_deadlocks() {
    let err = run(r#"
module "t" {
declare i64 @noelle.queue.create(i64 %cap)
declare i64 @noelle.queue.pop(i64 %q)
define i64 @main() {
entry:
  %q = call i64 @noelle.queue.create(i64 4)
  %v = call i64 @noelle.queue.pop(%q)
  ret %v
}
}
"#)
    .unwrap_err();
    assert_eq!(err, RtError::Deadlock);
}

#[test]
fn unknown_external_is_reported() {
    let err = run(r#"
module "t" {
declare i64 @no.such.function(i64 %x)
define i64 @main() {
entry:
  %v = call i64 @no.such.function(i64 1)
  ret %v
}
}
"#)
    .unwrap_err();
    assert!(matches!(err, RtError::UnknownExternal(name) if name == "no.such.function"));
}

#[test]
fn runtime_function_pointers_dispatch() {
    let r = run(r#"
module "t" {
define i64 @double(i64 %x) {
entry:
  %r = mul i64 %x, i64 2
  ret %r
}
define i64 @triple(i64 %x) {
entry:
  %r = mul i64 %x, i64 3
  ret %r
}
define i64 @main() {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, i64 6
  condbr %c, body, exit
body:
  %bit = and i64 %i, i64 1
  %odd = icmp eq i64 %bit, i64 1
  %fp = select fn i64(i64)* %odd, @triple, @double
  %v = call i64 %fp(%i)
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
}
"#)
    .unwrap();
    // even i doubled, odd i tripled: 0+3+4+9+8+15 = 39
    assert_eq!(r.ret_i64(), Some(39));
}

#[test]
fn calloc_zeroes_and_sizes_correctly() {
    let r = run(r#"
module "t" {
declare i64* @calloc(i64 %n, i64 %sz)
define i64 @main() {
entry:
  %p = call i64* @calloc(i64 4, i64 8)
  %p3 = gep i64, %p, i64 3
  store i64 i64 5, %p3
  %v0 = load i64, %p
  %v3 = load i64, %p3
  %r = add i64 %v0, %v3
  ret %r
}
}
"#)
    .unwrap();
    assert_eq!(r.ret_i64(), Some(5));
}

#[test]
fn queue_capacity_applies_back_pressure_without_loss() {
    // Producer pushes 50 items through a capacity-2 queue; consumer sums.
    let r = run(r#"
module "t" {
declare i64 @noelle.queue.create(i64 %cap)
declare void @noelle.queue.push(i64 %q, i64 %v)
declare i64 @noelle.queue.pop(i64 %q)
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %f, i64* %env, i64 %n)
define void @stage(i64* %env, i64 %id, i64 %n) {
entry:
  %qp = gep i64, %env, i64 0
  %q = load i64, %qp
  %isprod = icmp eq i64 %id, i64 0
  condbr %isprod, ploop_h, cloop_h
ploop_h:
  br ploop
ploop:
  %i = phi i64 [ploop_h: i64 0] [ploop: %i2]
  call void @noelle.queue.push(%q, %i)
  %i2 = add i64 %i, i64 1
  %pc = icmp slt i64 %i2, i64 50
  condbr %pc, ploop, pdone
pdone:
  ret void
cloop_h:
  br cloop
cloop:
  %j = phi i64 [cloop_h: i64 0] [cloop: %j2]
  %s = phi i64 [cloop_h: i64 0] [cloop: %s2]
  %v = call i64 @noelle.queue.pop(%q)
  %s2 = add i64 %s, %v
  %j2 = add i64 %j, i64 1
  %cc = icmp slt i64 %j2, i64 50
  condbr %cc, cloop, cdone
cdone:
  %outp = gep i64, %env, i64 1
  store i64 %s2, %outp
  ret void
}
define i64 @main() {
entry:
  %env = alloca i64, i64 2
  %q = call i64 @noelle.queue.create(i64 2)
  %qp = gep i64, %env, i64 0
  store i64 %q, %qp
  call void @noelle.task.dispatch(@stage, %env, i64 2)
  %outp = gep i64, %env, i64 1
  %out = load i64, %outp
  ret %out
}
}
"#)
    .unwrap();
    assert_eq!(r.ret_i64(), Some((0..50).sum::<i64>()));
}

#[test]
fn nested_dispatch_joins_inner_fleet_first() {
    // A dispatched task itself dispatches: both layers must join correctly.
    let r = run(r#"
module "t" {
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %f, i64* %env, i64 %n)
define void @inner(i64* %env, i64 %id, i64 %n) {
entry:
  %base = load i64, %env
  %slotidx = add i64 %id, i64 4
  %p = gep i64, %env, %slotidx
  %v = add i64 %base, %id
  store i64 %v, %p
  ret void
}
define void @outer(i64* %env, i64 %id, i64 %n) {
entry:
  store i64 i64 100, %env
  call void @noelle.task.dispatch(@inner, %env, i64 2)
  ret void
}
define i64 @main() {
entry:
  %env = alloca i64, i64 8
  call void @noelle.task.dispatch(@outer, %env, i64 1)
  %p4 = gep i64, %env, i64 4
  %v4 = load i64, %p4
  %p5 = gep i64, %env, i64 5
  %v5 = load i64, %p5
  %r = add i64 %v4, %v5
  ret %r
}
}
"#)
    .unwrap();
    assert_eq!(r.ret_i64(), Some(100 + 101));
}

#[test]
fn output_interleaves_in_virtual_time_order() {
    let r = run(r#"
module "t" {
declare void @print_i64(i64 %v)
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %f, i64* %env, i64 %n)
define void @task(i64* %env, i64 %id, i64 %n) {
entry:
  call void @print_i64(%id)
  ret void
}
define i64 @main() {
entry:
  %env = alloca i64, i64 1
  call void @noelle.task.dispatch(@task, %env, i64 3)
  ret i64 0
}
}
"#)
    .unwrap();
    // Dispatch staggers task start times, so prints appear in task order.
    assert_eq!(r.output, vec!["0", "1", "2"]);
}

#[test]
fn branch_profile_collection() {
    let m = parse_module(
        r#"
module "t" {
define i64 @main() {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [header: %i2]
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 10
  condbr %c, header, exit
exit:
  ret %i2
}
}
"#,
    )
    .unwrap();
    let cfg = RunConfig {
        collect_profiles: true,
        ..RunConfig::default()
    };
    let r = run_module(&m, "main", &[], &cfg).unwrap();
    // The header branch runs 10 times and is taken (back edge) 9 of them.
    let bias = r
        .profiles
        .branch_bias("main", noelle_ir::module::BlockId(1))
        .expect("branch recorded");
    assert!((bias - 0.9).abs() < 1e-9, "bias = {bias}");
}

/// Two dispatched tasks; task 0 runs `burn` extra cycles before both print
/// their id. Task 1 starts one `dispatch_overhead` later.
fn print_race(burn: u64) -> Vec<String> {
    use noelle_core::architecture::{Architecture, BR_CYCLES};
    let mut arch = Architecture::default_machine();
    arch.dispatch_overhead = 4;
    // Task 0's detour costs its adds plus the branch back.
    let adds: String = (0..burn - BR_CYCLES)
        .map(|k| format!("  %x{k} = add i64 %id, i64 {k}\n"))
        .collect();
    let m = parse_module(&format!(
        r#"
module "t" {{
declare void @print_i64(i64 %v)
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %f, i64* %env, i64 %n)
define void @task(i64* %env, i64 %id, i64 %n) {{
entry:
  %first = icmp eq i64 %id, i64 0
  condbr %first, burn, join
burn:
{adds}  br join
join:
  call void @print_i64(%id)
  ret void
}}
define i64 @main() {{
entry:
  %env = alloca i64, i64 1
  call void @noelle.task.dispatch(@task, %env, i64 2)
  ret i64 0
}}
}}
"#
    ))
    .expect("parses");
    let cfg = RunConfig {
        arch: arch.clone(),
        ..RunConfig::default()
    };
    assert_eq!(arch.spawn_clock(1) - arch.spawn_clock(0), 4);
    run_module(&m, "main", &[], &cfg).expect("runs").output
}

#[test]
fn two_tasks_at_the_same_clock_print_in_task_id_order() {
    // Task 0 reaches its print exactly when task 1 does: the lower id goes first.
    assert_eq!(print_race(4), vec!["0", "1"]);
    // One cycle later, task 1 is first; one cycle earlier, task 0 is.
    assert_eq!(print_race(5), vec!["1", "0"]);
    assert_eq!(print_race(3), vec!["0", "1"]);
}

#[test]
fn a_run_stops_after_exactly_max_steps_plus_one_steps() {
    let m = parse_module(
        r#"
module "t" {
declare void @print_i64(i64 %v)
define i64 @main() {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [header: %i2]
  call void @print_i64(%i)
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 7
  condbr %c, header, exit
exit:
  ret %i2
}
}
"#,
    )
    .expect("parses");
    let with = |max_steps| {
        let cfg = RunConfig {
            max_steps,
            ..RunConfig::default()
        };
        run_module(&m, "main", &[], &cfg)
    };
    let full = with(u64::MAX).expect("runs");
    // entry's br, seven trips of four instructions (a branch applies the
    // phi, which takes no step of its own), ret.
    assert_eq!(full.dyn_insts, 1 + 7 * 4 + 1);
    let exact = with(full.dyn_insts).expect("a budget of every step suffices");
    assert_eq!(exact.ret_i64(), Some(7));
    assert_eq!(exact.dyn_insts, full.dyn_insts);
    assert_eq!(with(full.dyn_insts - 1).unwrap_err(), RtError::StepLimit);
    assert_eq!(with(0).unwrap_err(), RtError::StepLimit);
}

#[test]
fn a_join_whose_child_blocks_forever_deadlocks() {
    let err = run(r#"
module "t" {
declare i64 @noelle.queue.create(i64 %cap)
declare i64 @noelle.queue.pop(i64 %q)
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %f, i64* %env, i64 %n)
define void @task(i64* %env, i64 %id, i64 %n) {
entry:
  %q = load i64, %env
  %v = call i64 @noelle.queue.pop(%q)
  store i64 %v, %env
  ret void
}
define i64 @main() {
entry:
  %env = alloca i64, i64 1
  %q = call i64 @noelle.queue.create(i64 1)
  store i64 %q, %env
  call void @noelle.task.dispatch(@task, %env, i64 2)
  ret i64 0
}
}
"#)
    .unwrap_err();
    assert_eq!(err, RtError::Deadlock);
}

#[test]
fn a_blocked_pop_delivers_to_its_own_register_after_a_nested_call() {
    // The consumer pops inside @get, itself called from @task, after a
    // call to @helper has come and gone; the producer pushes late, so the
    // pop blocks. The value must land in @get's `%v`, not in any register
    // of the frames around it. The consumer is task 0, and the producer,
    // task 1, starts a whole `dispatch_overhead` after it, so the pop waits.
    let r = run(r#"
module "t" {
declare i64 @noelle.queue.create(i64 %cap)
declare void @noelle.queue.push(i64 %q, i64 %v)
declare i64 @noelle.queue.pop(i64 %q)
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %f, i64* %env, i64 %n)
define i64 @helper(i64 %x) {
entry:
  %h = mul i64 %x, i64 3
  ret %h
}
define i64 @get(i64 %q) {
entry:
  %a = call i64 @helper(i64 5)
  %v = call i64 @noelle.queue.pop(%q)
  %w = add i64 %v, %a
  ret %w
}
define void @task(i64* %env, i64 %id, i64 %n) {
entry:
  %q = load i64, %env
  %prod = icmp eq i64 %id, i64 1
  condbr %prod, produce, consume
produce:
  call void @noelle.queue.push(%q, i64 1000)
  ret void
consume:
  %k = add i64 %id, i64 40
  %got = call i64 @get(%q)
  %sum = add i64 %got, %k
  %out = gep i64, %env, i64 1
  store i64 %sum, %out
  ret void
}
define i64 @main() {
entry:
  %env = alloca i64, i64 2
  %q = call i64 @noelle.queue.create(i64 1)
  store i64 %q, %env
  call void @noelle.task.dispatch(@task, %env, i64 2)
  %out = gep i64, %env, i64 1
  %r = load i64, %out
  ret %r
}
}
"#)
    .unwrap();
    // 1000 popped + 15 from @helper + 40 in the consumer's own frame.
    assert_eq!(r.ret_i64(), Some(1055));
    assert_eq!(r.counters["queue_ops"], 2);
}
