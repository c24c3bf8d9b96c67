//! Regenerate Table 2: LoC of each noelle-* tool.

fn main() -> Result<(), String> {
    let table = noelle_bench::table2_loc()?;
    let rows: Vec<Vec<String>> = table
        .iter()
        .map(|r| vec![r.name.to_string(), r.loc.to_string()])
        .collect();
    let total: usize = table.iter().map(|r| r.loc).sum();
    println!("Table 2 — NOELLE-rs tools (measured LoC)\n");
    print!("{}", noelle_bench::render_table(&["Tool", "LoC"], &rows));
    println!("\nTotal tool LoC: {total} (paper reports 5143 C++ LoC)");
    Ok(())
}
