//! # noelle-tools
//!
//! Library support for the `noelle-*` command-line tools of Table 2:
//!
//! | Binary | Paper tool | Role |
//! |---|---|---|
//! | `noelle-whole-ir` | noelle-whole-IR | link IR files into one whole-program module |
//! | `noelle-prof-coverage` | noelle-prof-coverage | run the program and collect profiles |
//! | `noelle-meta-prof-embed` | noelle-meta-prof-embed | embed profiles as IR metadata |
//! | `noelle-meta-pdg-embed` | noelle-meta-pdg-embed | compute the PDG and embed it as metadata |
//! | `noelle-meta-clean` | noelle-meta-clean | strip NOELLE metadata |
//! | `noelle-rm-lc-dependences` | noelle-rm-lc-dependences | reduce loop-carried dependences |
//! | `noelle-arch` | noelle-arch | describe/measure the machine |
//! | `noelle-load` | noelle-load | load the layer and run a custom tool |
//! | `noelle-linker` | noelle-linker | link transformed IR files, preserving metadata |
//! | `noelle-bin` | noelle-bin | produce/execute the final program (simulated) |
//! | `noelle-served` | — | the resident analysis daemon (`noelle-server` crate) |
//! | `noelle-query` | — | one-shot client for the daemon |
//! | `noelle-fuzz` | — | differential fuzzing of the transform pipeline |
//! | `noelle-lint` | — | static diagnostics (race detector and lint suite) |
//!
//! This module provides file IO helpers, a tiny flag parser, and the module
//! linker shared by `noelle-whole-ir` and `noelle-linker`.

pub mod calibrate;
pub mod registry;

use noelle_ir::inst::{Callee, Inst};
use noelle_ir::module::{FuncId, GlobalId, Module};
use noelle_ir::value::Value;
use std::collections::HashMap;

pub use noelle_workloads::read_module;

/// Write a module to `path` (or stdout for `-`).
///
/// # Errors
/// Returns a message on IO failure.
pub fn write_module(m: &Module, path: &str) -> Result<(), String> {
    let text = noelle_ir::printer::print_module(m);
    if path == "-" {
        print!("{text}");
        Ok(())
    } else {
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Minimal flag parser: `--key value` pairs, `--switch`es and positional
/// arguments, against the flags one binary declares.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
    /// The binary's usage, printed when a flag's value does not parse.
    usage: String,
}

impl Args {
    /// Parse `std::env::args()` (skipping the binary name) against the
    /// binary's `valued` flags and `switches`, or die with what is wrong
    /// and the binary's `usage`.
    pub fn parse(valued: &[&str], switches: &[&str], usage: &str) -> Args {
        let args = Args::parse_from(std::env::args().skip(1), valued, switches)
            .unwrap_or_else(|e| die(&format!("{e}\n{usage}")));
        Args {
            usage: usage.to_string(),
            ..args
        }
    }

    /// Parse an explicit argument list. A `valued` flag takes the word
    /// after it, which may not be another `--flag`; a switch takes none.
    ///
    /// # Errors
    /// A flag the binary does not declare, or a valued flag without a value.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                out.positional.push(a);
                continue;
            };
            let v = if switches.contains(&key) {
                String::new()
            } else if valued.contains(&key) {
                (it.next_if(|next| !next.starts_with("--")))
                    .ok_or_else(|| format!("'{a}' needs a value"))?
            } else {
                return Err(format!("unknown flag '{a}'"));
            };
            out.flags.insert(key.to_string(), v);
        }
        Ok(out)
    }

    /// The value of `--key`, if given.
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// The value of `--key` or a default.
    pub fn flag_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.flag(key).unwrap_or(default)
    }

    /// The value of `--key` as a non-negative integer, if given.
    ///
    /// # Errors
    /// A value that is not one: `'--workers' expects a non-negative integer,
    /// got 'abc'`.
    pub fn flag_number(&self, key: &str) -> Result<Option<usize>, String> {
        let bad = |v: &str| format!("'--{key}' expects a non-negative integer, got '{v}'");
        self.flag(key)
            .map(|v| v.parse().map_err(|_| bad(v)))
            .transpose()
    }

    /// [`Args::flag_number`], or `default` when the flag is absent. A value
    /// that does not parse ends the binary with the message and its usage.
    pub fn flag_usize(&self, key: &str, default: usize) -> usize {
        self.flag_usize_opt(key).unwrap_or(default)
    }

    /// [`Args::flag_usize`] for a count that must be at least one (cores,
    /// NUMA nodes): 0 ends the binary with a message and its usage, as a
    /// value that does not parse does.
    pub fn flag_positive(&self, key: &str, default: usize) -> usize {
        let n = self.flag_usize(key, default);
        if n == 0 {
            die(&format!(
                "'--{key}' expects a positive integer, got '0'\n{}",
                self.usage
            ));
        }
        n
    }

    /// [`Args::flag_number`], `None` when the flag is absent. A value that
    /// does not parse ends the binary with the message and its usage.
    pub fn flag_usize_opt(&self, key: &str) -> Option<usize> {
        self.flag_number(key)
            .unwrap_or_else(|e| die(&format!("{e}\n{}", self.usage)))
    }
}

/// Link several modules into one whole-program module (what the paper's
/// gllvm-based `noelle-whole-IR` does for bitcode): definitions override
/// declarations, duplicate definitions are an error, and all cross-module
/// references are re-bound by symbol name. Metadata is merged (later
/// modules win on key conflicts).
///
/// # Errors
/// Returns a message on symbol conflicts.
pub fn link_modules(mods: Vec<Module>) -> Result<Module, String> {
    let mut out = Module::new("linked");

    // Pass 1: allocate output slots by name.
    let mut func_slot: HashMap<String, FuncId> = HashMap::new();
    let mut global_slot: HashMap<String, GlobalId> = HashMap::new();
    for m in &mods {
        for g in m.globals() {
            if let Some(&existing) = global_slot.get(&g.name) {
                if out.global(existing) != g {
                    return Err(format!(
                        "duplicate global '@{}' with different contents",
                        g.name
                    ));
                }
                continue;
            }
            let id = out.add_global(g.clone());
            global_slot.insert(g.name.clone(), id);
        }
        for f in m.functions() {
            if let Some(&existing) = func_slot.get(&f.name) {
                let have_body = !out.func(existing).is_declaration();
                if have_body && !f.is_declaration() {
                    return Err(format!("duplicate definition of '@{}'", f.name));
                }
                continue;
            }
            let id = out.add_function(noelle_ir::module::Function::new(
                f.name.clone(),
                f.params.clone(),
                f.ret_ty.clone(),
            ));
            func_slot.insert(f.name.clone(), id);
        }
        for (k, v) in &m.metadata {
            out.metadata.insert(k.clone(), v.clone());
        }
    }

    // Pass 2: copy bodies, remapping function/global references by name.
    for m in &mods {
        for f in m.functions() {
            if f.is_declaration() {
                continue;
            }
            let dst = func_slot[&f.name];
            if !out.func(dst).is_declaration() {
                return Err(format!("duplicate definition of '@{}'", f.name));
            }
            let mut nf = f.clone();
            let remap_value = |v: Value| -> Value {
                match v {
                    Value::Func(old) => Value::Func(func_slot[&m.func(old).name]),
                    Value::Global(old) => Value::Global(global_slot[&m.global(old).name]),
                    other => other,
                }
            };
            for id in nf.inst_ids() {
                nf.inst_mut(id).map_operands(remap_value);
                if let Inst::Call {
                    callee: Callee::Direct(old),
                    ..
                } = nf.inst_mut(id)
                {
                    *old = func_slot[&m.func(*old).name];
                }
            }
            *out.func_mut(dst) = nf;
        }
    }
    Ok(out)
}

/// Exit with an error message (shared by the binaries).
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::parser::parse_module;
    use noelle_runtime::{run_module, RunConfig};

    #[test]
    fn links_declaration_against_definition() {
        let a = parse_module(
            r#"
module "a" {
declare i64 @helper(i64 %x)
define i64 @main() {
entry:
  %r = call i64 @helper(i64 20)
  ret %r
}
}
"#,
        )
        .unwrap();
        let b = parse_module(
            r#"
module "b" {
define i64 @helper(i64 %x) {
entry:
  %r = mul i64 %x, i64 2
  ret %r
}
}
"#,
        )
        .unwrap();
        let linked = link_modules(vec![a, b]).expect("links");
        noelle_ir::verifier::verify_module(&linked).expect("verifies");
        let r = run_module(&linked, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(r.ret_i64(), Some(40));
    }

    #[test]
    fn rejects_duplicate_definitions() {
        let src = r#"
module "x" {
define i64 @f() {
entry:
  ret i64 1
}
}
"#;
        let a = parse_module(src).unwrap();
        let b = parse_module(src).unwrap();
        let err = link_modules(vec![a, b]).unwrap_err();
        assert!(err.contains("duplicate definition"));
    }

    #[test]
    fn remaps_globals_across_modules() {
        let a = parse_module(
            r#"
module "a" {
global @shared : i64 = i64 5
define i64 @get() {
entry:
  %v = load i64, @shared
  ret %v
}
}
"#,
        )
        .unwrap();
        let b = parse_module(
            r#"
module "b" {
global @other : i64 = i64 9
declare i64 @get()
define i64 @main() {
entry:
  %x = call i64 @get()
  %y = load i64, @other
  %r = add i64 %x, %y
  ret %r
}
}
"#,
        )
        .unwrap();
        let linked = link_modules(vec![a, b]).expect("links");
        let r = run_module(&linked, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(r.ret_i64(), Some(14));
    }
}
