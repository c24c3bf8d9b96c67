//! The IR text layer against recorded and hostile inputs.
//!
//! `tests/corpus/ir/text_golden.json` was recorded with the two-pass
//! token-vector parser and the `String`-per-piece printer this layer
//! replaced: for every bundled workload, `pdg_stress`, `scale_module(256)`
//! and fuzz seeds 0..200 it holds the FNV-64 of the printed module, of the
//! re-printed parse of that text, and the instruction count. Whatever parses
//! and prints IR text must reproduce it byte for byte.
//!
//! The mutation smoke feeds byte-mutated workload texts to the parser: each
//! must come back as `Err` or as a module the verifier can judge — never a
//! panic. A module that parses must print to text that reads back to the
//! same text, and must hold the same code and the same own names as the
//! mutant with every `%v` respelled `%$v`, bar each `%v<i>` on instruction
//! `i`, which the parser drops.
//!
//! A `%v<i>` defined at arena index `i` is the printer's own spelling of an
//! instruction without a name, and the parser stores no name for it; any
//! other spelling is the instruction's own name. The parser resolves a
//! `%v<n>` below 2^16 by its number and any other name by hashing it; the
//! two meet at the bound, and a name on one side must behave as one on the
//! other.

use noelle::ir::builder::FunctionBuilder;
use noelle::ir::inst::{BinOp, Inst, InstId, Terminator};
use noelle::ir::module::Function;
use noelle::ir::module::Module;
use noelle::ir::parser::{parse_module, parse_module_spanned};
use noelle::ir::printer::print_module;
use noelle::ir::types::Type;
use noelle::ir::value::Value;
use noelle::ir::verifier::verify_module;
use noelle::workloads::{all, pdg_stress, scale_module};
use noelle_fuzz::generator::{generate, GenConfig, SplitMix64};

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn corpus() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = all()
        .into_iter()
        .chain(std::iter::once(pdg_stress()))
        .map(|w| (w.name.to_string(), w.build()))
        .collect();
    out.push(("scale_module(256)".to_string(), scale_module(256, 1)));
    let cfg = GenConfig::default();
    out.extend((0..200).map(|seed| (format!("fuzz_{seed}"), generate(seed, &cfg))));
    out
}

/// A parsed body is built at its exact size: each block's list is filled
/// once, at the closing brace, from the block's run of the arena. A module
/// parse builds no spans, and reads the same as one that does.
#[test]
fn a_parsed_block_list_is_exactly_as_long_as_the_block() {
    let texts = all()
        .into_iter()
        .map(|w| (w.name.to_string(), w.build()))
        .chain(std::iter::once((
            "scale_module(256)".to_string(),
            scale_module(256, 1),
        )))
        .map(|(name, m)| (name, print_module(&m)));
    let fingerprints = |m: &Module| -> Vec<(u64, u64)> {
        m.functions().iter().map(Function::fingerprints).collect()
    };
    for (name, text) in texts {
        let m = parse_module(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for f in m.functions() {
            for &b in f.block_order() {
                let block = f.block(b);
                let (len, capacity) = (block.insts.len(), block.insts.capacity());
                assert_eq!(capacity, len, "{name}: @{} {}", f.name, block.name);
            }
        }
        let (spanned, spans) =
            parse_module_spanned(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(fingerprints(&m), fingerprints(&spanned), "{name}");
        let defined = m.functions().iter().filter(|f| !f.is_declaration());
        assert_eq!(spans.len(), defined.count(), "{name}");
    }
}

#[test]
fn parser_and_printer_reproduce_the_recorded_golden() {
    let mut doc = String::from("[\n");
    for (i, (name, m)) in corpus().iter().enumerate() {
        let text = print_module(m);
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let reprinted = print_module(&parsed);
        assert_eq!(parsed.total_insts(), m.total_insts(), "{name}");
        if i > 0 {
            doc.push_str(",\n");
        }
        doc.push_str(&format!(
            "  {{\"name\": \"{name}\", \"insts\": {}, \"printed\": \"{:016x}\", \"reprinted\": \"{:016x}\"}}",
            parsed.total_insts(),
            fnv64(text.as_bytes()),
            fnv64(reprinted.as_bytes()),
        ));
    }
    doc.push_str("\n]\n");
    assert_matches_golden(&doc, "text_golden.json");
}

/// `doc` must equal `tests/corpus/ir/<file>` byte for byte; otherwise it is
/// written beside the test binary, `<file>` with `.actual` before the
/// extension, and the first line that differs is reported.
fn assert_matches_golden(doc: &str, file: &str) {
    let path = format!("{}/tests/corpus/ir/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    if doc != golden {
        let actual = format!(
            "{}/{}",
            env!("CARGO_TARGET_TMPDIR"),
            file.replace(".json", ".actual.json")
        );
        std::fs::write(&actual, doc).expect("writes the actual document");
        let line = doc
            .lines()
            .zip(golden.lines().chain(std::iter::repeat("")))
            .find(|(a, g)| a != g)
            .map_or("<length differs>", |(a, _)| a);
        panic!(
            "IR text diverges from {path} (actual written to {actual}); first difference: {line}"
        );
    }
}

/// What a text mutant inserts: the bytes at the lexer's every branch —
/// Unicode and ASCII space, a comment, string quotes and escapes, the
/// starts of numbers and names, line ends, punctuation, a float the
/// integer scan gives up on, `%v<n>` either side of the numbered table's
/// bound, and an integer past `i64`.
const INSERTS: [&str; 28] = [
    "\u{a0}",
    "\u{2028}",
    ";",
    "\"",
    "\\",
    "-",
    "0",
    "9",
    "%",
    "@",
    "e",
    ".",
    "\n",
    "\r",
    "\t",
    "é",
    "{",
    "}",
    "[",
    "]",
    "!",
    "=",
    "*",
    "-inf",
    "1e",
    "%v65536",
    "%v0",
    "12345678901234567890",
];

/// One edit of `text`: delete 1–4 bytes, insert one of [`INSERTS`], or
/// truncate, at a uniform byte position; drawn again until the result is
/// UTF-8, the parser's input type.
fn text_mutant(text: &str, rng: &mut SplitMix64) -> String {
    loop {
        let mut bytes = text.as_bytes().to_vec();
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        match rng.below(3) {
            0 => {
                let end = (at + 1 + rng.below(4) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            1 => {
                let piece = INSERTS[rng.below(INSERTS.len() as u64) as usize];
                bytes.splice(at..at, piece.bytes());
            }
            _ => bytes.truncate(at),
        }
        if let Ok(mutant) = String::from_utf8(bytes) {
            return mutant;
        }
    }
}

/// `text` as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for ch in text.chars() {
        match ch {
            '"' | '\\' => {
                out.push('\\');
                out.push(ch);
            }
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `tests/corpus/ir/parse_outcomes.json` was recorded with the lexer that
/// stepped through whitespace, names and punctuation one `Option` at a time:
/// for seeded mutants of the 42 workloads' printed texts (the corpus and
/// `pdg_stress`) and of `scale_module(256)`'s, it holds the FNV-64 of the printed module and its
/// `define` spans where the mutant parses, and the error's line, column
/// and message where it does not. However the text is read, what it means
/// and where it is wrong must not move.
#[test]
fn every_mutant_parses_or_fails_as_recorded() {
    const MUTANTS_PER_WORKLOAD: usize = 80;
    const SCALE_MUTANTS: usize = 40;
    let texts = all()
        .into_iter()
        .chain(std::iter::once(pdg_stress()))
        .map(|w| {
            (
                w.name.to_string(),
                print_module(&w.build()),
                MUTANTS_PER_WORKLOAD,
            )
        })
        .chain(std::iter::once((
            "scale_module(256)".to_string(),
            print_module(&scale_module(256, 1)),
            SCALE_MUTANTS,
        )));
    let mut rng = SplitMix64::new(0x5445_5854_494e);
    let (mut parsed, mut failed) = (0, 0);
    let mut doc = String::from("[\n");
    for (name, text, count) in texts {
        for i in 0..count {
            let mutant = text_mutant(&text, &mut rng);
            let outcome = match parse_module_spanned(&mutant) {
                Ok((m, spans)) => {
                    parsed += 1;
                    let mut printed = print_module(&m);
                    for s in &spans {
                        printed.push_str(&format!("\n{} {} {}", s.name, s.start_line, s.end_line));
                    }
                    format!("\"parses\": \"{:016x}\"", fnv64(printed.as_bytes()))
                }
                Err(e) => {
                    failed += 1;
                    let message = json_string(&e.message);
                    format!("\"fails\": [{}, {}, {message}]", e.line, e.column)
                }
            };
            if doc.len() > 2 {
                doc.push_str(",\n");
            }
            doc.push_str(&format!("  {{\"mutant\": \"{name}#{i}\", {outcome}}}"));
        }
    }
    doc.push_str("\n]\n");
    // The golden must hold both outcomes, or it shows nothing.
    assert!(
        parsed > 100 && failed > 1000,
        "{parsed} parse, {failed} fail"
    );
    assert_matches_golden(&doc, "parse_outcomes.json");
}

/// One random byte-level edit of `text`: overwrite, insert, delete, or
/// duplicate a short slice. Bytes are drawn half from the text's own
/// alphabet (so mutants stay near the grammar) and half from all 256 values.
fn mutate(text: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = text.to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(out.len() as u64) as usize;
        let byte = if rng.chance(50) {
            text[rng.below(text.len() as u64) as usize]
        } else {
            rng.below(256) as u8
        };
        match rng.below(4) {
            0 => out[at] = byte,
            1 => out.insert(at, byte),
            2 => {
                out.remove(at);
            }
            _ => {
                let end = (at + 1 + rng.below(24) as usize).min(out.len());
                let slice = out[at..end].to_vec();
                let to = rng.below(out.len() as u64) as usize;
                out.splice(to..to, slice);
            }
        }
        if out.is_empty() {
            out.push(byte);
        }
    }
    out
}

/// True when `a` and `b`, its twin with every `%v` respelled `%$v`, hold
/// the same instructions in the same blocks, and `a` keeps every name of
/// `b` but a `v<i>` on instruction `i`, which the printer writes itself.
fn same_code(a: &Module, b: &Module) -> bool {
    let (fs, gs) = (a.functions(), b.functions());
    fs.len() == gs.len()
        && fs.iter().zip(gs).all(|(f, g)| {
            let ids = f.inst_ids();
            ids == g.inst_ids()
                && ids.iter().all(|&id| {
                    let own = g
                        .inst_name(id)
                        .map(|n| {
                            n.strip_prefix('$')
                                .filter(|r| r.starts_with('v'))
                                .unwrap_or(n)
                        })
                        .filter(|&n| n != format!("v{}", id.index()));
                    f.inst(id) == g.inst(id)
                        && f.parent_block(id) == g.parent_block(id)
                        && f.inst_name(id) == own
                })
        })
}

#[test]
fn byte_mutated_workload_texts_never_panic_the_parser() {
    const MUTANTS_PER_WORKLOAD: usize = 500;
    let mut rng = SplitMix64::new(0x4e4f_454c_4c45);
    let (mut mutants, mut rejected, mut parsed, mut verified) = (0, 0, 0, 0);
    for w in all().into_iter().chain(std::iter::once(pdg_stress())) {
        let text = print_module(&w.build());
        for _ in 0..MUTANTS_PER_WORKLOAD {
            let bytes = mutate(text.as_bytes(), &mut rng);
            mutants += 1;
            // The parser's input type is `&str`; bytes that are not UTF-8
            // never reach it.
            let Ok(src) = std::str::from_utf8(&bytes) else {
                continue;
            };
            let outcome = parse_module(src);
            // The same text with not one name in the printer's numbering,
            // unless the mutant already spells a name that way.
            if !src.contains("%$v") {
                match (&outcome, parse_module(&src.replace("%v", "%$v"))) {
                    (Ok(m), Ok(named)) => assert!(
                        same_code(m, &named),
                        "{}: the code or the own names differ from the `%$v` twin's",
                        w.name
                    ),
                    (Err(_), Err(_)) => {}
                    (Ok(_), Err(e)) => panic!("{}: only the respelled text fails: {e}", w.name),
                    (Err(e), Ok(_)) => panic!("{}: only the numbered text fails: {e}", w.name),
                }
            }
            match outcome {
                Err(e) => {
                    assert!(e.line >= 1 && e.column >= 1, "{}: {e}", w.name);
                    rejected += 1;
                }
                Ok(m) => {
                    parsed += 1;
                    verified += usize::from(verify_module(&m).is_ok());
                    let printed = print_module(&m);
                    let again = parse_module(&printed)
                        .unwrap_or_else(|e| panic!("{}: a parsed mutant prints as {e}", w.name));
                    assert_eq!(
                        print_module(&again),
                        printed,
                        "{}: a parsed mutant does not print to a fixpoint",
                        w.name
                    );
                }
            }
        }
    }
    assert!(mutants >= 20_000, "{mutants} mutants");
    // The smoke must exercise both outcomes, or it shows nothing.
    assert!(rejected > mutants / 4, "{rejected} of {mutants} rejected");
    assert!(
        parsed > 0 && verified > 0,
        "{parsed} parsed, {verified} verified"
    );
}

/// A module holding `define i64 @f(<params>)` with `body`, one line each,
/// laid out as the printer lays it out.
fn one_function(params: &str, body: &[&str]) -> String {
    let body = body.join("\n");
    format!("module \"n\" {{\ndefine i64 @f({params}) {{\n{body}\n}}\n\n}}\n")
}

/// Parses `text`, which must print back byte for byte and verify.
fn round_trip(text: &str) -> Module {
    let m = parse_module(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(print_module(&m), text);
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}\n{text}"));
    m
}

/// The own name of every instruction of the module's first function, in
/// layout order.
fn own_names(m: &Module) -> Vec<Option<&str>> {
    let f = &m.functions()[0];
    f.inst_ids().into_iter().map(|id| f.inst_name(id)).collect()
}

#[test]
fn numbered_names_are_exactly_the_printers() {
    // `%v<i>` at arena index `i`: numbered, no name.
    let m = round_trip(&one_function(
        "i64 %p",
        &[
            "entry:",
            "  %v0 = add i64 %p, i64 1",
            "  %v1 = add i64 %v0, i64 2",
            "  ret %v1",
        ],
    ));
    assert_eq!(own_names(&m), [None, None, None]);
    // `%v7` at index 3 and `%v07` are spellings of their own.
    let m = round_trip(&one_function(
        "i64 %p",
        &[
            "entry:",
            "  %v0 = add i64 %p, i64 1",
            "  %v1 = add i64 %v0, i64 1",
            "  %v07 = add i64 %v1, i64 1",
            "  %v7 = add i64 %v07, i64 1",
            "  ret %v7",
        ],
    ));
    assert_eq!(own_names(&m), [None, None, Some("v07"), Some("v7"), None]);
    // A parameter `%v0` beside unnamed instruction 0, which the printer
    // calls `%v0.1`: that is a name of its own once read back.
    let mut b = FunctionBuilder::new("f", vec![("v0", Type::I64)], Type::I64);
    let entry = b.entry_block();
    b.switch_to(entry);
    let sum = b.binop(BinOp::Add, Type::I64, b.arg(0), Value::const_i64(1));
    b.ret(Some(sum));
    let mut built = Module::new("n");
    built.add_function(b.finish());
    let text = print_module(&built);
    assert!(text.contains("  %v0.1 = add i64 %v0, i64 1\n"), "{text}");
    assert_eq!(own_names(&round_trip(&text)), [Some("v0.1"), None]);
    // A phi's forward use of `%v9` resolves to instruction 9.
    let mut body = vec![
        "entry:".to_string(),
        "  br loop".to_string(),
        "loop:".to_string(),
        "  %v1 = phi i64 [entry: i64 0] [loop: %v9]".to_string(),
    ];
    body.extend((2..10).map(|i| format!("  %v{i} = add i64 %v{}, i64 1", i - 1)));
    body.extend(
        [
            "  %v10 = icmp slt i64 %v9, %n",
            "  condbr %v10, loop, exit",
            "exit:",
            "  ret %v9",
        ]
        .map(String::from),
    );
    let body: Vec<&str> = body.iter().map(String::as_str).collect();
    let m = round_trip(&one_function("i64 %n", &body));
    assert!(own_names(&m).iter().all(Option::is_none));
    let f = &m.functions()[0];
    let Inst::Phi { incomings, .. } = f.inst(InstId(1)) else {
        panic!("instruction 1 is the phi");
    };
    assert_eq!(incomings[1].1, Value::Inst(InstId(9)));
    // Numbers just below and just past the numbered table's bound (2^16),
    // past `u32` and of 20 digits, away from their index: own names all.
    let m = round_trip(&one_function(
        "i64 %p",
        &[
            "entry:",
            "  %v65535 = add i64 %p, i64 1",
            "  %v65536 = add i64 %v65535, i64 1",
            "  %v4294967296 = add i64 %v65536, %v65535",
            "  %v12345678901234567890 = add i64 %v4294967296, i64 1",
            "  %v99999999999999999999 = add i64 %v12345678901234567890, i64 1",
            "  ret %v99999999999999999999",
        ],
    ));
    assert_eq!(
        own_names(&m),
        [
            Some("v65535"),
            Some("v65536"),
            Some("v4294967296"),
            Some("v12345678901234567890"),
            Some("v99999999999999999999"),
            None
        ]
    );
    // The same two numbers at their own index, either side of the bound:
    // numbered both, whichever table resolved them. `%v65537` is used before
    // it is defined (which the verifier would refuse; resolution is what is
    // checked here).
    let mut body = vec![
        "entry:".to_string(),
        "  %v0 = add i64 %p, i64 1".to_string(),
    ];
    body.extend((1..65_538).map(|i| {
        let operand = if i == 65_536 { 65_537 } else { i - 1 };
        format!("  %v{i} = add i64 %v{operand}, i64 1")
    }));
    body.push("  ret %v65537".to_string());
    let body: Vec<&str> = body.iter().map(String::as_str).collect();
    let m = parse_module(&one_function("i64 %p", &body)).expect("parses");
    let f = &m.functions()[0];
    assert!(f.inst_ids().into_iter().all(|id| f.inst_name(id).is_none()));
    let Inst::Bin { lhs, .. } = f.inst(InstId(65_536)) else {
        panic!("instruction 65536 is an add");
    };
    assert_eq!(*lhs, Value::Inst(InstId(65_537)));
    let Inst::Bin { lhs, .. } = f.inst(InstId(65_535)) else {
        panic!("instruction 65535 is an add");
    };
    assert_eq!(*lhs, Value::Inst(InstId(65_534)));
}

#[test]
fn a_numbered_name_meets_a_parameter_or_an_own_name_as_a_duplicate() {
    let error = |params: &str, body: &[&str]| {
        let e = parse_module(&one_function(params, body)).expect_err("a duplicate");
        (e.line, e.column, e.message)
    };
    let duplicate = |line, name: &str| (line, 3, format!("duplicate SSA name '%{name}' in @f"));
    // Numbered after a parameter of that name.
    assert_eq!(
        error(
            "i64 %v0",
            &["entry:", "  %v0 = add i64 %v0, i64 1", "  ret %v0"]
        ),
        duplicate(4, "v0")
    );
    // Numbered after an own name: `%v1` at index 0, then at index 1.
    assert_eq!(
        error(
            "i64 %p",
            &[
                "entry:",
                "  %v1 = add i64 %p, i64 1",
                "  %v1 = add i64 %p, i64 1",
                "  ret %v1"
            ]
        ),
        duplicate(5, "v1")
    );
    // An own name after a numbered one: `%v0` at index 0, then at index 1.
    assert_eq!(
        error(
            "i64 %p",
            &[
                "entry:",
                "  %v0 = add i64 %p, i64 1",
                "  %v0 = add i64 %p, i64 1",
                "  ret %v0"
            ]
        ),
        duplicate(5, "v0")
    );
    // Numbered at index 3 after a parameter `%v3`, and the same either side
    // of the numbered table's bound.
    assert_eq!(
        error(
            "i64 %v3",
            &[
                "entry:",
                "  %v0 = add i64 %v3, i64 1",
                "  %v1 = add i64 %v0, i64 1",
                "  %v2 = add i64 %v1, i64 1",
                "  %v3 = add i64 %v2, i64 1",
                "  ret %v3"
            ]
        ),
        duplicate(7, "v3")
    );
    for name in ["v65535", "v65536"] {
        assert_eq!(
            error(
                &format!("i64 %{name}"),
                &[
                    "entry:",
                    &format!("  %{name} = add i64 %{name}, i64 1"),
                    &format!("  ret %{name}"),
                ]
            ),
            duplicate(4, name)
        );
    }
    // A forward use of a number that is never defined is reported at the
    // use, in the table's range, past it, and past `u64`.
    for name in ["v9", "v65536", "v4000000", "v99999999999999999999"] {
        assert_eq!(
            error(
                "i64 %p",
                &[
                    "entry:",
                    "  %v0 = add i64 %p, i64 1",
                    &format!("  %v1 = add i64 %v0, %{name}"),
                    "  ret %v1",
                ]
            ),
            (5, 22, format!("unknown value '%{name}' in @f"))
        );
    }
}

/// The printer checks a generated `v<i>` or `bb<i>` against the names it
/// has handed out only when a parameter, an own instruction name or an own
/// block name spells a generated one. `@clash` has such names everywhere,
/// so every generated name goes through that check; `@plain` has none. The
/// text was recorded from the printer that checked every generated name.
#[test]
fn names_that_spell_generated_ones_still_take_a_suffix() {
    let mut m = Module::new("names");
    let one = Value::const_i64(1);
    let params = vec![("v0".to_string(), Type::I64), ("v4".to_string(), Type::I64)];
    let mut f = Function::new("clash", params, Type::I64);
    // Own `bb3` first, then `bb1` to `bb3` without names, then own `bb1`.
    let blocks = ["bb3", "", "", "", "bb1"].map(|name| f.add_block(name));
    let mut last = Value::Arg(1);
    let owns = [None, Some("v3"), None, None, None, Some("v5"), Some("v2")];
    for (i, own) in owns.into_iter().enumerate() {
        let add = Inst::Bin {
            op: BinOp::Add,
            ty: Type::I64,
            lhs: last,
            rhs: one,
        };
        let id = f.append_inst(blocks[i / 2], add);
        if let Some(name) = own {
            f.set_inst_name(id, name);
        }
        last = Value::Inst(id);
    }
    for (&from, &to) in blocks.iter().zip(&blocks[1..]) {
        f.set_terminator(from, Terminator::Br(to));
    }
    f.set_terminator(blocks[4], Terminator::Ret(Some(last)));
    m.add_function(f);
    let mut b = FunctionBuilder::new("plain", vec![("x", Type::I64)], Type::I64);
    let next = b.block("");
    let s = b.binop(BinOp::Add, Type::I64, b.arg(0), one);
    b.br(next);
    b.switch_to(next);
    let t = b.binop(BinOp::Mul, Type::I64, s, s);
    b.ret(Some(t));
    m.add_function(b.finish());
    let text = print_module(&m);
    let recorded = r#"module "names" {
define i64 @clash(i64 %v0, i64 %v4) {
bb3:
  %v0.1 = add i64 %v4, i64 1
  %v3 = add i64 %v0.1, i64 1
  br bb1
bb1:
  %v2 = add i64 %v3, i64 1
  %v3.1 = add i64 %v2, i64 1
  br bb2
bb2:
  %v4.1 = add i64 %v3.1, i64 1
  %v5 = add i64 %v4.1, i64 1
  br bb3.1
bb3.1:
  %v2.1 = add i64 %v5, i64 1
  br bb1.1
bb1.1:
  ret %v2.1
}

define i64 @plain(i64 %x) {
entry:
  %v0 = add i64 %x, i64 1
  br bb1
bb1:
  %v2 = mul i64 %v0, %v0
  ret %v2
}

}
"#;
    assert_eq!(text, recorded);
    assert_eq!(print_module(&parse_module(&text).unwrap()), text);
}
