//! EXPERIMENTS.md's line-count tables against the files the report
//! binaries write: every "ours" number of Table 1 and Table 3, and the
//! totals of Tables 1 and 2, must be what `results/` holds. A change that
//! regenerates `results/table{1,2,3}_*.txt` updates the document with it.

use std::collections::BTreeMap;
use std::fs;

fn read(path: &str) -> String {
    let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The leading integer of `text`, thousands commas allowed.
fn leading_number(text: &str) -> Option<usize> {
    let digits: String = text
        .trim()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == ',')
        .filter(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The number that follows `label` in `text`.
fn number_after(text: &str, label: &str) -> usize {
    let at = text
        .find(label)
        .unwrap_or_else(|| panic!("no '{label}' in the text"));
    leading_number(&text[at + label.len()..]).unwrap_or_else(|| panic!("no number after '{label}'"))
}

/// The section of EXPERIMENTS.md whose heading starts with `heading`.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let start = doc
        .find(&format!("\n## {heading}"))
        .unwrap_or_else(|| panic!("no section '{heading}'"));
    let rest = &doc[start + 1..];
    let end = rest[1..].find("\n## ").map_or(rest.len(), |end| end + 1);
    &rest[..end]
}

/// The first cell and the leading number of the last cell of every body
/// row of the Markdown tables in `section`.
fn table_rows(section: &str) -> BTreeMap<String, usize> {
    section
        .lines()
        .filter(|line| line.starts_with('|') && !line.starts_with("|---"))
        .skip(1)
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            let ours = cells.last().and_then(|cell| leading_number(cell));
            (
                cells[0].to_string(),
                ours.unwrap_or_else(|| panic!("row '{line}'")),
            )
        })
        .collect()
}

/// The count beside each of `names` in a results table whose rows are
/// `<name>  <count>  ...`.
fn result_rows(text: &str, names: &BTreeMap<String, usize>) -> BTreeMap<String, usize> {
    names
        .keys()
        .map(|name| {
            let row = text
                .lines()
                .find(|line| {
                    line.starts_with(name.as_str()) && line[name.len()..].starts_with("  ")
                })
                .unwrap_or_else(|| panic!("no row '{name}' in the results"));
            (
                name.clone(),
                leading_number(&row[name.len()..]).expect("a count"),
            )
        })
        .collect()
}

#[test]
fn the_line_count_tables_are_the_results() {
    let doc = read("EXPERIMENTS.md");
    let table1 = read("results/table1_loc.txt");
    let table2 = read("results/table2_tools.txt");
    let table3 = read("results/table3_custom_tools.txt");

    let t1 = section(&doc, "Table 1");
    assert_eq!(
        number_after(t1, "measures **"),
        number_after(&table1, "Total abstraction LoC: "),
        "Table 1's total"
    );
    let doc_rows = table_rows(t1);
    assert_eq!(doc_rows.len(), 19, "Table 1 has a row per abstraction");
    assert_eq!(doc_rows, result_rows(&table1, &doc_rows), "Table 1's rows");

    let t2 = section(&doc, "Table 2");
    assert_eq!(
        number_after(t2, "total measured "),
        number_after(&table2, "Total tool LoC: "),
        "Table 2's total"
    );

    // A results row of Table 3 is `TOOL  paper  +NOELLE  reduction%  ours`.
    let doc_rows = table_rows(section(&doc, "Table 3"));
    assert_eq!(doc_rows.len(), 10, "Table 3 has a row per tool");
    let ours: BTreeMap<String, usize> = doc_rows
        .keys()
        .map(|tool| {
            let row = table3
                .lines()
                .find(|line| line.split_whitespace().next() == Some(tool.as_str()))
                .unwrap_or_else(|| panic!("no row '{tool}' in the results"));
            let last = row.split_whitespace().last().and_then(leading_number);
            (tool.clone(), last.expect("a count"))
        })
        .collect();
    assert_eq!(doc_rows, ours, "Table 3's rows");
}
