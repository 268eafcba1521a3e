//! Property tests on the item parser the call-graph rules stand on: for
//! random nests of `mod` / `impl` / `impl Trait for` / `trait` / `fn` /
//! `struct` items, with braces hidden in strings, raw strings and char
//! literals (some next to lifetimes), `parse` recovers exactly the
//! generated fns — name, `self_ty`, visibility and trait flag, in source
//! order — and every generated struct. The vendored proptest only
//! supplies numeric strategies, so each sampled seed expands into one
//! source text through a small deterministic generator.

use junkyard_lint::parser::{parse, Vis};
use junkyard_lint::source::SourceFile;
use proptest::prelude::*;

/// A tiny deterministic PRNG (splitmix64), as in `lexer_proptest.rs`.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[(self.next() % options.len() as u64) as usize]
    }
}

/// Brace-balanced statements whose literals hide unbalanced braces.
const NOISE: &[&str] = &[
    "let s = \"{ not } a { brace\";",
    "let r = r#\"}\"{\"#;",
    "let c = '{';",
    "let d: &'static char = &'}';",
    "let e = ['{', '}'];",
    "let b = b\"{\";",
    "if true { let _ = 1; } else { let _ = '}'; }",
    "let _ = |x: u8| { x };",
    "let _: Option<&'static str> = None;",
    "match 'x' { '{' => {} _ => {} }",
    "// a comment with { a brace\n",
    "/* a block comment } */",
];

/// Where a generated item sits, which fixes what its fns parse as.
enum Ctx {
    /// File or `mod` level.
    Module,
    /// Inside a fn body.
    Body,
    /// Inside `impl Type`.
    Inherent(String),
    /// Inside `impl Trait for Type`.
    TraitImpl(String),
    /// Inside `trait Trait`.
    Trait(String),
}

/// One fn as `parse` should report it.
type Expected = (String, Option<String>, Vis, bool);

struct Builder {
    gen: Gen,
    src: String,
    fns: Vec<Expected>,
    structs: Vec<String>,
    next_id: usize,
}

const MAX_DEPTH: usize = 3;

impl Builder {
    fn id(&mut self) -> usize {
        self.next_id += 1;
        self.next_id
    }

    fn items(&mut self, ctx: &Ctx, depth: usize) {
        for _ in 0..self.gen.below(4) {
            match ctx {
                Ctx::Inherent(_) | Ctx::TraitImpl(_) | Ctx::Trait(_) => self.fn_item(ctx, depth),
                Ctx::Module | Ctx::Body => {
                    let kinds = if depth >= MAX_DEPTH { 2 } else { 6 };
                    match self.gen.below(kinds) {
                        0 => self.fn_item(ctx, depth),
                        1 => self.struct_item(),
                        2 => {
                            let name = format!("m{}", self.id());
                            self.src.push_str(&format!("mod {name} {{\n"));
                            self.items(&Ctx::Module, depth + 1);
                            self.src.push_str("}\n");
                        }
                        3 => {
                            let ty = format!("T{}", self.id());
                            let header = self.gen.pick(&["impl", "impl<T>"]);
                            let generic = if header == "impl" { "" } else { "<T>" };
                            self.src.push_str(&format!("{header} {ty}{generic} {{\n"));
                            self.items(&Ctx::Inherent(ty), depth + 1);
                            self.src.push_str("}\n");
                        }
                        4 => {
                            let (tr, ty) = (format!("Tr{}", self.id()), format!("T{}", self.id()));
                            let clause = self.gen.pick(&["", " where T: Copy"]);
                            let header = if clause.is_empty() {
                                format!("impl {tr} for {ty}")
                            } else {
                                format!("impl<T: Clone> {tr}<T> for {ty}<T>{clause}")
                            };
                            self.src.push_str(&format!("{header} {{\n"));
                            self.items(&Ctx::TraitImpl(ty), depth + 1);
                            self.src.push_str("}\n");
                        }
                        _ => {
                            let tr = format!("Tr{}", self.id());
                            let bounds = self.gen.pick(&["", ": Clone + 'static", "<T>"]);
                            self.src.push_str(&format!("pub trait {tr}{bounds} {{\n"));
                            self.items(&Ctx::Trait(tr), depth + 1);
                            self.src.push_str("}\n");
                        }
                    }
                }
            }
        }
    }

    fn struct_item(&mut self) {
        let name = format!("S{}", self.id());
        let vis = self.gen.pick(&["", "pub "]);
        let shape = self.gen.pick(&[
            " { a: u8, pub b: Vec<String>, c: &'static str }",
            "(u8, String);",
            ";",
        ]);
        self.src.push_str(&format!("{vis}struct {name}{shape}\n"));
        self.structs.push(name);
    }

    fn fn_item(&mut self, ctx: &Ctx, depth: usize) {
        let name = format!("f{}", self.id());
        let (self_ty, in_trait) = match ctx {
            Ctx::Module | Ctx::Body => (None, false),
            Ctx::Inherent(ty) => (Some(ty.clone()), false),
            Ctx::TraitImpl(ty) | Ctx::Trait(ty) => (Some(ty.clone()), true),
        };
        // Trait items and trait-impl items carry no visibility.
        let (vis, qualifier) = if in_trait {
            (Vis::Private, "")
        } else {
            match self.gen.below(4) {
                0 => (Vis::Private, ""),
                1 => (Vis::Public, "pub "),
                2 => (Vis::Scoped, "pub(crate) "),
                _ => (Vis::Scoped, "pub(super) "),
            }
        };
        let prefix = self.gen.pick(&["", "const ", "unsafe "]);
        let generics = self.gen.pick(&["", "<'a, T: Clone>", "<T>"]);
        let params = if self_ty.is_some() {
            self.gen
                .pick(&["(&self)", "(&mut self, n: u32)", "(x: &str)"])
        } else {
            self.gen
                .pick(&["()", "(x: &str, n: u32)", "(v: Vec<(u8, char)>)"])
        };
        let ret = self.gen.pick(&[
            "",
            " -> u8",
            " -> impl Iterator<Item = u8>",
            " -> Option<&'static str>",
        ]);
        self.fns.push((name.clone(), self_ty, vis, in_trait));
        self.src.push_str(&format!(
            "{qualifier}{prefix}fn {name}{generics}{params}{ret}"
        ));
        if matches!(ctx, Ctx::Trait(_)) && self.gen.below(2) == 0 {
            self.src.push_str(";\n");
            return;
        }
        self.src.push_str(" {\n");
        for _ in 0..self.gen.below(3) {
            let noise = self.gen.pick(NOISE);
            self.src.push_str(noise);
            self.src.push('\n');
        }
        if depth < MAX_DEPTH {
            self.items(&Ctx::Body, depth + 1);
        }
        let noise = self.gen.pick(NOISE);
        self.src.push_str(noise);
        self.src.push_str("\n}\n");
    }
}

fn build(seed: u64) -> Builder {
    let mut builder = Builder {
        gen: Gen(seed),
        src: String::new(),
        fns: Vec::new(),
        structs: Vec::new(),
        next_id: 0,
    };
    while builder.fns.is_empty() {
        builder.items(&Ctx::Module, 0);
    }
    builder
}

fn check(seed: u64) {
    let built = build(seed);
    let file = SourceFile::new("crates/x/src/lib.rs".to_string(), built.src.clone(), false);
    let parsed = parse(&file);
    let fns: Vec<Expected> = parsed
        .fns
        .iter()
        .map(|f| (f.name.clone(), f.self_ty.clone(), f.vis, f.in_trait))
        .collect();
    assert_eq!(fns, built.fns, "seed {seed}:\n{}", built.src);
    let structs: Vec<&str> = parsed.structs.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(structs, built.structs, "seed {seed}:\n{}", built.src);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random item nests parse back to exactly the generated fns.
    #[test]
    fn parse_recovers_generated_items(seed in 0u64..1_000_000) {
        check(seed);
    }
}

/// The regression behind this suite: every method of an impl keeps its
/// self type, a fn nested in a method body is no method, and a struct
/// inside a method body does not end the impl early.
#[test]
fn nested_items_do_not_leak_or_end_their_impl() {
    let src = "impl Meter {\n    fn first(&self) {\n        struct Local { a: u8 }\n        \
               fn helper() { let _ = '}'; }\n    }\n    pub fn second(&self) {}\n}\n\
               trait Probe {\n    fn read(&self) -> u8;\n    fn twice(&self) -> u8 { 2 }\n}\n";
    let file = SourceFile::new("crates/x/src/lib.rs".to_string(), src.to_string(), false);
    let fns: Vec<Expected> = parse(&file)
        .fns
        .iter()
        .map(|f| (f.name.clone(), f.self_ty.clone(), f.vis, f.in_trait))
        .collect();
    let meter = Some("Meter".to_string());
    let probe = Some("Probe".to_string());
    assert_eq!(
        fns,
        [
            ("first".to_string(), meter.clone(), Vis::Private, false),
            ("helper".to_string(), None, Vis::Private, false),
            ("second".to_string(), meter, Vis::Public, false),
            ("read".to_string(), probe.clone(), Vis::Private, true),
            ("twice".to_string(), probe, Vis::Private, true),
        ]
    );
}
