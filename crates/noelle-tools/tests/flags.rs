//! A binary takes only the flags it declares: `noelle_tools::Args` against
//! a declaration of two valued flags and one switch.

use noelle_tools::Args;

fn parse(words: &[&str]) -> Result<Args, String> {
    let words = words.iter().map(|w| w.to_string());
    Args::parse_from(words, &["workers", "o"], &["apply"])
}

#[test]
fn a_flag_the_binary_does_not_declare_is_refused() {
    let e = parse(&["workload:crc32", "--worker", "2"]).unwrap_err();
    assert_eq!(e, "unknown flag '--worker'");
}

#[test]
fn a_valued_flag_without_a_value_is_refused() {
    assert_eq!(
        parse(&["in.nir", "--o"]).unwrap_err(),
        "'--o' needs a value"
    );
    let e = parse(&["--workers", "--apply", "in.nir"]).unwrap_err();
    assert_eq!(e, "'--workers' needs a value");
}

#[test]
fn a_switch_takes_no_value() -> Result<(), String> {
    let args = parse(&["--apply", "workload:crc32", "--workers", "4"])?;
    assert_eq!(args.positional, ["workload:crc32"]);
    assert_eq!(args.flag("apply"), Some(""));
    assert_eq!(args.flag_usize("workers", 12), 4);
    assert_eq!(args.flag("o"), None);
    Ok(())
}
