//! Textual IR printer.
//!
//! The format round-trips with [`crate::parser`]; `noelle-tools` binaries use
//! it as the on-disk representation that the paper's tools exchange (a single
//! whole-program IR file with embedded metadata).
//!
//! Everything streams into one `String`: no piece of the output is built
//! on its own and copied in.

use crate::inst::{Callee, Inst, InstId, Terminator};
use crate::module::{BlockId, Function, GlobalInit, Module};
use crate::types::{FloatWidth, IntWidth, Type};
use crate::value::{Constant, Value};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write;

/// Print a whole module in textual form.
pub fn print_module(m: &Module) -> String {
    let mut p = Printer::new(m);
    p.put("module \"").put(&m.name).put("\" {\n");
    for (k, v) in &m.metadata {
        p.put("meta ").quoted(k).put(" = ").quoted(v).put("\n");
    }
    if !m.metadata.is_empty() {
        p.put("\n");
    }
    for g in m.globals() {
        p.put(if g.is_const { "const " } else { "" });
        p.put("global @")
            .put(&g.name)
            .put(" : ")
            .ty(&g.ty)
            .put(" = ");
        match &g.init {
            GlobalInit::Zero => p.put("zero"),
            GlobalInit::Scalar(c) => p.constant(c),
            GlobalInit::Array(cs) => {
                let each = |p: &mut Printer, c: &Constant| {
                    p.constant(c);
                };
                p.put("[").list(cs, ", ", each).put("]")
            }
        };
        p.put("\n");
    }
    if !m.globals().is_empty() {
        p.put("\n");
    }
    for f in m.functions() {
        p.function(f).put("\n");
    }
    p.put("}\n");
    p.out
}

/// Table entry of something without a printable name: an instruction with
/// no result, or a block or instruction the layout does not reach.
const UNNAMED: u32 = u32::MAX;

/// Unique printable names for the blocks and instructions of one function,
/// as dense tables indexed by arena index. A name is its base — the
/// entry's own name, or a generated `bb<index>` / `v<index>` when it has
/// none — plus, when an earlier entry took that, the first free `.1`, `.2`,
/// ... Only the suffix number is stored (0 for none); the base is read from
/// the function when the name is written.
#[derive(Default)]
struct Namer<'m> {
    blocks: Vec<u32>,
    insts: Vec<u32>,
    claimed: Claimed<'m>,
}

/// The names claimed so far in the namespace being assigned, except
/// unsuffixed generated ones: the tables already answer for those.
#[derive(Default)]
struct Claimed<'m> {
    names: HashSet<Cow<'m, str>>,
    scratch: String,
    /// Whether a name the namespace claims for itself (a parameter, an own
    /// instruction or block name) spells a generated one. When none does,
    /// a generated name is free by construction: a suffixed name holds a
    /// `.`, which no generated one does.
    spells_generated: bool,
}

impl<'m> Namer<'m> {
    fn assign(&mut self, f: &'m Function) {
        self.blocks.clear();
        self.blocks.resize(f.num_blocks(), UNNAMED);
        self.claimed.names.clear();
        let block_names = f.block_order().iter().map(|&b| f.block(b).name.as_str());
        self.claimed.spells_generated = spell_generated(block_names, "bb");
        for &b in f.block_order() {
            let own = Some(f.block(b).name.as_str()).filter(|n| !n.is_empty());
            let generated =
                |i: usize| self.blocks.get(i) == Some(&0) && f.blocks[i].name.is_empty();
            self.blocks[b.index()] = self.claimed.unique(own, "bb", b.0, generated);
        }
        self.insts.clear();
        self.insts.resize(f.inst_arena_len(), UNNAMED);
        self.claimed.names.clear();
        let params = f.params.iter().map(|(n, _)| n.as_str());
        let own = f.inst_names.values().map(String::as_str);
        self.claimed.spells_generated = spell_generated(params.clone().chain(own), "v");
        self.claimed.names.extend(params.map(Cow::Borrowed));
        let ids = f.block_order().iter().flat_map(|&b| &f.block(b).insts);
        for &id in ids.filter(|&&id| f.inst(id).has_result()) {
            let generated =
                |i: usize| self.insts.get(i) == Some(&0) && f.inst_name(InstId(i as u32)).is_none();
            self.insts[id.index()] = self.claimed.unique(f.inst_name(id), "v", id.0, generated);
        }
    }
}

impl<'m> Claimed<'m> {
    /// The suffix that makes the name of entry `index` unique: 0 when its
    /// base is free, else the first `n` with `<base>.<n>` free.
    /// `generated(i)` tells whether entry `i` already goes by its generated
    /// name.
    fn unique(
        &mut self,
        own: Option<&'m str>,
        prefix: &str,
        index: u32,
        generated: impl Fn(usize) -> bool,
    ) -> u32 {
        let Claimed {
            names,
            scratch,
            spells_generated,
        } = self;
        let base_free = match own {
            // An own name can also meet an earlier entry's generated one.
            Some(name) => {
                !names.contains(name) && !generated_index(name, prefix).is_some_and(generated)
            }
            None if !*spells_generated => true,
            None => {
                scratch.clear();
                let _ = write!(scratch, "{prefix}{index}");
                !names.contains(scratch.as_str())
            }
        };
        if base_free {
            names.extend(own.map(Cow::Borrowed));
            return 0;
        }
        let free = |suffix: &u32| {
            scratch.clear();
            let _ = match own {
                Some(name) => write!(scratch, "{name}.{suffix}"),
                None => write!(scratch, "{prefix}{index}.{suffix}"),
            };
            !names.contains(scratch.as_str()) && names.insert(Cow::Owned(scratch.clone()))
        };
        (1..).find(free).expect("some suffix is free")
    }
}

/// True when one of `names` spells a generated `<prefix><index>`.
fn spell_generated<'a>(mut names: impl Iterator<Item = &'a str>, prefix: &str) -> bool {
    names.any(|name| generated_index(name, prefix).is_some())
}

/// The index whose generated name `name` is: `prefix` followed by the
/// index's digits as the printer writes them, `0` or without a leading `0`.
pub(crate) fn generated_index(name: &str, prefix: &str) -> Option<usize> {
    let canonical = |d: &&str| *d == "0" || !d.starts_with(['0', '+']);
    name.strip_prefix(prefix)
        .filter(canonical)
        .and_then(|d| d.parse().ok())
}

/// The output buffer and what writing into it needs. Every method appends
/// and returns `self`, so a line of output reads as one chain.
struct Printer<'m> {
    out: String,
    m: &'m Module,
    namer: Namer<'m>,
}

impl<'m> Printer<'m> {
    fn new(m: &'m Module) -> Printer<'m> {
        Printer {
            out: String::new(),
            m,
            namer: Namer::default(),
        }
    }

    fn put(&mut self, s: &str) -> &mut Self {
        self.out.push_str(s);
        self
    }

    /// `v` in decimal.
    fn int(&mut self, v: impl Into<i64>) -> &mut Self {
        let v = v.into();
        if v < 0 {
            self.out.push('-');
        }
        self.digits(v.unsigned_abs())
    }

    /// The decimal digits of `n`, written without `core::fmt`.
    fn digits(&mut self, mut n: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out
            .extend(digits[start..].iter().map(|&d| char::from(d)));
        self
    }

    /// `items` through `each`, with `sep` between them.
    fn list<T>(&mut self, items: &[T], sep: &str, each: impl Fn(&mut Self, &T)) -> &mut Self {
        for (i, item) in items.iter().enumerate() {
            self.put(if i > 0 { sep } else { "" });
            each(self, item);
        }
        self
    }

    fn ty(&mut self, ty: &Type) -> &mut Self {
        match ty {
            Type::Void => self.put("void"),
            Type::Int(IntWidth::I1) => self.put("i1"),
            Type::Int(IntWidth::I8) => self.put("i8"),
            Type::Int(IntWidth::I16) => self.put("i16"),
            Type::Int(IntWidth::I32) => self.put("i32"),
            Type::Int(IntWidth::I64) => self.put("i64"),
            Type::Float(FloatWidth::F32) => self.put("f32"),
            Type::Float(FloatWidth::F64) => self.put("f64"),
            Type::Ptr(pointee) => self.ty(pointee).put("*"),
            Type::Array(elem, n) => self.put("[").digits(*n).put(" x ").ty(elem).put("]"),
            Type::Struct(fields) => {
                self.put("{");
                self.list(fields, ", ", |p, t| {
                    p.ty(t);
                })
                .put("}")
            }
            Type::Func(ft) => {
                self.put("fn ").ty(&ft.ret).put("(");
                self.list(&ft.params, ", ", |p, t| {
                    p.ty(t);
                })
                .put(")")
            }
        }
    }

    fn constant(&mut self, c: &Constant) -> &mut Self {
        match *c {
            Constant::Int(v, w) => self.ty(&Type::Int(w)).put(" ").int(v),
            Constant::Float(bits, w) => {
                self.ty(&Type::Float(w));
                let _ = write!(self.out, " {:?}", f64::from_bits(bits));
                self
            }
            Constant::Null => self.put("null"),
            Constant::Undef => self.put("undef"),
        }
    }

    /// `s` in double quotes, with `\`, `"` and newline escaped.
    fn quoted(&mut self, s: &str) -> &mut Self {
        self.put("\"");
        for c in s.chars() {
            match c {
                '\\' => self.out.push_str("\\\\"),
                '"' => self.out.push_str("\\\""),
                '\n' => self.out.push_str("\\n"),
                _ => self.out.push(c),
            }
        }
        self.put("\"")
    }

    /// A name: `own`, or `<prefix><index>` without one, then `.<suffix>`.
    fn name(&mut self, own: Option<&str>, prefix: &str, index: u32, suffix: u32) -> &mut Self {
        match own {
            Some(name) => self.put(name),
            None => self.put(prefix).int(index),
        };
        if suffix != 0 && suffix != UNNAMED {
            self.put(".").int(suffix);
        }
        self
    }

    fn block(&mut self, f: &Function, b: BlockId) -> &mut Self {
        let own = Some(f.block(b).name.as_str()).filter(|n| !n.is_empty());
        self.name(own, "bb", b.0, self.namer.blocks[b.index()])
    }

    fn value(&mut self, f: &Function, v: Value) -> &mut Self {
        let m = self.m;
        match v {
            // An instruction the namer did not reach prints as `%v<id>`.
            Value::Inst(id) => match self.namer.insts.get(id.index()) {
                Some(&suffix) if suffix != UNNAMED => {
                    self.put("%").name(f.inst_name(id), "v", id.0, suffix)
                }
                _ => self.put("%v").int(id.0),
            },
            Value::Arg(i) => self.put("%").put(&f.params[i as usize].0),
            Value::Const(c) => self.constant(&c),
            Value::Global(g) => self.put("@").put(&m.global(g).name),
            Value::Func(fid) => self.put("@").put(&m.func(fid).name),
        }
    }

    /// `, `-separated values.
    fn values(&mut self, f: &Function, vs: &[Value]) -> &mut Self {
        self.list(vs, ", ", |p, v| {
            p.value(f, *v);
        })
    }

    fn function(&mut self, f: &'m Function) -> &mut Self {
        self.put(if f.is_declaration() {
            "declare "
        } else {
            "define "
        });
        self.ty(&f.ret_ty).put(" @").put(&f.name).put("(");
        self.list(&f.params, ", ", |p, (name, ty)| {
            p.ty(ty).put(" %").put(name);
        });
        if f.is_declaration() {
            return self.put(")\n");
        }
        self.put(") {\n");
        for (k, v) in &f.metadata {
            self.put("  fmeta ")
                .quoted(k)
                .put(" = ")
                .quoted(v)
                .put("\n");
        }
        self.namer.assign(f);
        for &b in f.block_order() {
            self.block(f, b).put(":\n");
            for &id in &f.block(b).insts {
                self.put("  ").inst(f, id);
                if let Some(md) = f.inst_metadata.get(&id).filter(|md| !md.is_empty()) {
                    self.put(" !{");
                    for (i, (k, v)) in md.iter().enumerate() {
                        self.put(if i > 0 { ", " } else { "" });
                        self.quoted(k).put("=").quoted(v);
                    }
                    self.put("}");
                }
                self.put("\n");
            }
        }
        self.put("}\n")
    }

    fn inst(&mut self, f: &Function, id: InstId) -> &mut Self {
        if self.namer.insts[id.index()] != UNNAMED {
            self.value(f, Value::Inst(id)).put(" = ");
        }
        match f.inst(id) {
            Inst::Alloca { ty, count } => self.put("alloca ").ty(ty).put(", ").value(f, *count),
            Inst::Load { ty, ptr } => self.put("load ").ty(ty).put(", ").value(f, *ptr),
            Inst::Store { val, ptr, ty } => {
                self.put("store ").ty(ty).put(" ").values(f, &[*val, *ptr])
            }
            Inst::Gep {
                base,
                base_ty,
                indices,
            } => {
                self.put("gep ").ty(base_ty).put(", ").value(f, *base);
                self.put(", ").values(f, indices)
            }
            Inst::Bin { op, ty, lhs, rhs } => {
                self.put(op.mnemonic()).put(" ").ty(ty).put(" ");
                self.values(f, &[*lhs, *rhs])
            }
            Inst::Icmp { pred, ty, lhs, rhs } => {
                self.put("icmp ")
                    .put(pred.mnemonic())
                    .put(" ")
                    .ty(ty)
                    .put(" ");
                self.values(f, &[*lhs, *rhs])
            }
            Inst::Fcmp { pred, ty, lhs, rhs } => {
                self.put("fcmp ")
                    .put(pred.mnemonic())
                    .put(" ")
                    .ty(ty)
                    .put(" ");
                self.values(f, &[*lhs, *rhs])
            }
            Inst::Cast { op, from, to, val } => {
                self.put(op.mnemonic()).put(" ").ty(from).put(" ");
                self.value(f, *val).put(" to ").ty(to)
            }
            Inst::Select {
                ty,
                cond,
                tval,
                fval,
            } => {
                self.put("select ").ty(ty).put(" ");
                self.values(f, &[*cond, *tval, *fval])
            }
            Inst::Phi { ty, incomings } => {
                self.put("phi ").ty(ty).put(" ");
                self.list(incomings, " ", |p, (from, val)| {
                    p.put("[").block(f, *from).put(": ").value(f, *val).put("]");
                })
            }
            Inst::Call {
                callee,
                args,
                ret_ty,
            } => {
                self.put("call ").ty(ret_ty).put(" ");
                match callee {
                    Callee::Direct(fid) => self.value(f, Value::Func(*fid)),
                    Callee::Indirect(val) => self.value(f, *val),
                };
                self.put("(").values(f, args).put(")")
            }
            Inst::Term(Terminator::Ret(None)) => self.put("ret void"),
            Inst::Term(Terminator::Ret(Some(val))) => self.put("ret ").value(f, *val),
            Inst::Term(Terminator::Br(to)) => self.put("br ").block(f, *to),
            Inst::Term(Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            }) => {
                self.put("condbr ").value(f, *cond).put(", ");
                self.block(f, *then_bb).put(", ").block(f, *else_bb)
            }
            Inst::Term(Terminator::Switch {
                value,
                default,
                cases,
            }) => {
                self.put("switch ").value(f, *value).put(", ");
                self.block(f, *default).put(" ");
                self.list(cases, " ", |p, (case, to)| {
                    p.put("[").int(*case).put(": ").block(f, *to).put("]");
                })
            }
            Inst::Term(Terminator::Unreachable) => self.put("unreachable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, IcmpPred};
    use crate::types::Type;

    #[test]
    fn prints_simple_module() {
        let mut m = Module::new("demo");
        m.metadata.insert("noelle.version".into(), "0.1".into());
        let mut b = FunctionBuilder::new("inc", vec![("x", Type::I64)], Type::I64);
        let entry = b.entry_block();
        b.switch_to(entry);
        let s = b.binop(BinOp::Add, Type::I64, b.arg(0), Value::const_i64(1));
        b.ret(Some(s));
        m.add_function(b.finish());
        let text = print_module(&m);
        assert!(text.contains("module \"demo\""));
        assert!(text.contains("meta \"noelle.version\" = \"0.1\""));
        assert!(text.contains("define i64 @inc(i64 %x)"));
        assert!(text.contains("add i64 %x, i64 1"));
        assert!(text.contains("ret %"));
    }

    #[test]
    fn prints_declaration() {
        let mut m = Module::new("d");
        m.declare_function("malloc", vec![Type::I64], Type::I8.ptr_to());
        let text = print_module(&m);
        assert!(text.contains("declare i8* @malloc(i64 %a0)"));
    }

    #[test]
    fn duplicate_names_are_made_unique() {
        // Own names that meet a parameter, each other, a generated name
        // (either way round) and an already suffixed name.
        let mut b = FunctionBuilder::new("f", vec![("x", Type::I64)], Type::I64);
        let _ = b.entry_block();
        let one = Value::const_i64(1);
        let owns = [
            Some("x"),
            Some("x"),
            None,
            Some("v2"),
            Some("v5"),
            None,
            Some("x.1"),
            Some("v05"),
        ];
        let mut last = b.arg(0);
        for own in owns {
            last = b.binop(BinOp::Add, Type::I64, last, one);
            if let Some(name) = own {
                b.func_mut().set_inst_name(last.as_inst().unwrap(), name);
            }
        }
        b.ret(Some(last));
        let mut m = Module::new("m");
        m.add_function(b.finish());
        let text = print_module(&m);
        let defs: Vec<&str> = text
            .lines()
            .filter_map(|l| l.trim().split_once(" = "))
            .map(|(d, _)| d)
            .collect();
        assert_eq!(
            defs,
            ["%x.1", "%x.2", "%v2", "%v2.1", "%v5", "%v5.1", "%x.1.1", "%v05"]
        );
        assert!(text.contains("ret %v05"));
        assert_eq!(
            print_module(&crate::parser::parse_module(&text).unwrap()),
            text
        );
    }

    #[test]
    fn prints_phi_and_branches() {
        let mut b = FunctionBuilder::new("f", vec![("n", Type::I64)], Type::I64);
        let entry = b.entry_block();
        let header = b.block("header");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(
            Type::I64,
            vec![(entry, Value::const_i64(0)), (header, Value::const_i64(1))],
        );
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(0));
        b.cond_br(c, header, exit);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut m = Module::new("m");
        m.add_function(b.finish());
        let text = print_module(&m);
        assert!(text.contains("phi i64 [entry: i64 0] [header: i64 1]"));
        assert!(text.contains("condbr %"));
    }

    #[test]
    fn prints_metadata_suffix() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let entry = b.entry_block();
        b.switch_to(entry);
        let s = b.binop(
            BinOp::Add,
            Type::I64,
            Value::const_i64(1),
            Value::const_i64(2),
        );
        b.ret(Some(s));
        let mut f = b.finish();
        f.set_inst_metadata(s.as_inst().unwrap(), "noelle.id", "7");
        let mut m = Module::new("m");
        m.add_function(f);
        let text = print_module(&m);
        assert!(text.contains("!{\"noelle.id\"=\"7\"}"));
    }
}
