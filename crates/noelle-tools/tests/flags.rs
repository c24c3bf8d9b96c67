//! A binary takes only the flags it declares, and a number only where one
//! parses: `noelle_tools::Args` against a declaration of two valued flags and
//! one switch.

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

#[test]
fn a_number_that_does_not_parse_is_an_error_not_the_default() -> Result<(), String> {
    for bad in ["abc", "-1", "4x", "1.5", ""] {
        let args = parse(&["workload:crc32", "--workers", bad])?;
        assert_eq!(
            args.flag_number("workers").unwrap_err(),
            format!("'--workers' expects a non-negative integer, got '{bad}'")
        );
    }
    assert_eq!(parse(&["--workers", "7"])?.flag_number("workers")?, Some(7));
    assert_eq!(parse(&["in.nir"])?.flag_number("workers")?, None);
    Ok(())
}

#[test]
fn a_tool_invocation_refuses_cores_that_do_not_parse() -> Result<(), String> {
    use noelle_tools::registry::ToolInvocation;
    let words = |w: &[&str]| w.iter().map(|w| w.to_string()).collect::<Vec<_>>();
    let args = Args::parse_from(
        words(&["in.nir", "--cores", "many"]),
        &["tool", "cores"],
        &[],
    )?;
    assert_eq!(
        ToolInvocation::from_args(&args).unwrap_err(),
        "'--cores' expects a non-negative integer, got 'many'"
    );
    let args = Args::parse_from(words(&["in.nir", "--cores", "3"]), &["tool", "cores"], &[])?;
    assert_eq!(ToolInvocation::from_args(&args)?.options.cores, Some(3));
    Ok(())
}
