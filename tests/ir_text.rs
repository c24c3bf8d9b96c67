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
//! panic (ROADMAP item 4, parser only).

use noelle::ir::module::Module;
use noelle::ir::parser::parse_module;
use noelle::ir::printer::print_module;
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
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/ir/text_golden.json"
    );
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    if doc != golden {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/text_golden.actual.json");
        std::fs::write(actual, &doc).expect("writes the actual document");
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
            match parse_module(src) {
                Err(e) => {
                    assert!(e.line >= 1 && e.column >= 1, "{}: {e}", w.name);
                    rejected += 1;
                }
                Ok(m) => {
                    parsed += 1;
                    verified += usize::from(verify_module(&m).is_ok());
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
