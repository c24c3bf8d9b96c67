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

/// What a binary run with `words` wrote to stderr, after checking that it
/// exited 1: the way every tool dies on a flag it cannot use.
fn dies(binary: &str, words: &[&str]) -> String {
    let out = std::process::Command::new(binary)
        .args(words)
        .output()
        .expect("the binary runs");
    assert_eq!(out.status.code(), Some(1), "{binary} {words:?}");
    String::from_utf8(out.stderr).expect("stderr is text")
}

#[test]
fn a_fuzz_time_budget_that_does_not_parse_dies_with_the_flag_check() {
    let err = dies(
        env!("CARGO_BIN_EXE_noelle-fuzz"),
        &["--seeds", "1", "--time-budget-ms", "abc"],
    );
    assert!(
        err.starts_with("error: '--time-budget-ms' expects a non-negative integer, got 'abc'\n"),
        "{err}"
    );
    assert!(err.contains("usage: noelle-fuzz"), "{err}");
}

#[test]
fn a_query_loop_or_deadline_that_does_not_parse_dies_before_connecting() {
    for (flag, bad) in [("--loop", "x"), ("--loop", "-1"), ("--deadline-ms", "soon")] {
        let err = dies(
            env!("CARGO_BIN_EXE_noelle-query"),
            &["sccdag", "--addr", "127.0.0.1:1", flag, bad],
        );
        let check = format!("error: '{flag}' expects a non-negative integer, got '{bad}'\n");
        assert!(err.starts_with(&check), "{err}");
        assert!(err.contains("usage: noelle-query"), "{err}");
    }
}

#[test]
fn a_machine_of_no_cores_or_no_nodes_dies_with_the_flag_check() {
    for flag in ["--cores", "--numa"] {
        let err = dies(env!("CARGO_BIN_EXE_noelle-arch"), &[flag, "0"]);
        let check = format!("error: '{flag}' expects a positive integer, got '0'\n");
        assert!(err.starts_with(&check), "{err}");
        assert!(err.contains("usage: noelle-arch"), "{err}");
    }
}
