//! Regenerate Table 3: custom tool sizes — the paper's headline LoC
//! reduction claim, with our measured NOELLE-based sizes alongside.

fn main() -> Result<(), String> {
    let rows: Vec<Vec<String>> = noelle_bench::table3_loc()?
        .iter()
        .map(|r| {
            vec![
                r.tool.to_string(),
                r.paper_llvm.to_string(),
                r.paper_noelle.to_string(),
                format!("{:.1}%", 100.0 * r.paper_reduction()),
                r.ours.to_string(),
            ]
        })
        .collect();
    println!("Table 3 — custom tools: paper LoC vs our measured NOELLE-rs LoC\n");
    print!(
        "{}",
        noelle_bench::render_table(
            &[
                "Tool",
                "paper LLVM",
                "paper +NOELLE",
                "paper reduction",
                "ours (+NOELLE-rs)"
            ],
            &rows
        )
    );
    println!("\nEvery NOELLE-based tool stays in the same few-hundred-line band the paper");
    println!("reports (PERS excepted, as in the paper), far below its LLVM-only size.");
    Ok(())
}
