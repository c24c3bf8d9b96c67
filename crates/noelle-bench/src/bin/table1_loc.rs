//! Regenerate Table 1: LoC of each NOELLE abstraction (Rust measurements).

fn main() -> Result<(), String> {
    let table = noelle_bench::table1_loc()?;
    let rows: Vec<Vec<String>> = table
        .iter()
        .map(|r| vec![r.name.to_string(), r.loc.to_string(), r.files.join(", ")])
        .collect();
    let total: usize = table.iter().map(|r| r.loc).sum();
    println!("Table 1 — NOELLE-rs abstractions (measured LoC)\n");
    print!(
        "{}",
        noelle_bench::render_table(&["Abstraction", "LoC", "Files"], &rows)
    );
    println!("\nTotal abstraction LoC: {total} (paper reports 26142 C++ LoC)");
    Ok(())
}
