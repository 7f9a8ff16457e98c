//! Derive macros for the vendored `serde` shim.
//!
//! The build environment has no network access to crates.io, so the real
//! `serde_derive` (and its `syn`/`quote` dependencies) are unavailable.
//! This macro parses the item declaration directly off the token stream.
//! It supports exactly the shapes this workspace derives: non-generic
//! named/tuple/unit structs and enums with unit, tuple, and struct
//! variants. The only recognised serde attribute is `#[serde(default)]`
//! on a named struct field, which makes deserialisation substitute the
//! field type's `Default` when the key is absent (schema evolution for
//! persisted documents); all other attributes are rejected.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    Named {
        name: String,
        fields: Vec<FieldSpec>,
    },
    Tuple {
        name: String,
        arity: usize,
    },
    Unit {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

struct Variant {
    name: String,
    kind: VariantKind,
}

/// One named-struct field and whether it carries `#[serde(default)]`.
struct FieldSpec {
    name: String,
    default: bool,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

/// Skips a `#[...]` attribute if the iterator is positioned on one.
fn skip_attrs<I: Iterator<Item = TokenTree>>(toks: &mut std::iter::Peekable<I>) {
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                toks.next(); // the bracketed group
            }
            _ => break,
        }
    }
}

fn parse_shape(input: TokenStream) -> Shape {
    let mut toks = input.into_iter().peekable();
    loop {
        skip_attrs(&mut toks);
        match toks.next() {
            Some(TokenTree::Ident(id)) => match id.to_string().as_str() {
                "pub" => {
                    // `pub(crate)` etc: skip the scope group.
                    if let Some(TokenTree::Group(g)) = toks.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            toks.next();
                        }
                    }
                }
                "struct" => return parse_struct(&mut toks),
                "enum" => return parse_enum(&mut toks),
                other => panic!("serde shim derive: unexpected `{other}`"),
            },
            Some(other) => panic!("serde shim derive: unexpected token {other}"),
            None => panic!("serde shim derive: no struct or enum found"),
        }
    }
}

fn parse_struct<I: Iterator<Item = TokenTree>>(toks: &mut std::iter::Peekable<I>) -> Shape {
    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected struct name, got {other:?}"),
    };
    match toks.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Named {
            name,
            fields: parse_field_names(g.stream()),
        },
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Shape::Tuple {
            name,
            arity: count_elements(g.stream()),
        },
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit { name },
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde shim derive: generic types are not supported ({name})")
        }
        other => panic!("serde shim derive: unexpected token after struct name: {other:?}"),
    }
}

fn parse_enum<I: Iterator<Item = TokenTree>>(toks: &mut std::iter::Peekable<I>) -> Shape {
    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected enum name, got {other:?}"),
    };
    match toks.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Enum {
            name,
            variants: parse_variants(g.stream()),
        },
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde shim derive: generic enums are not supported ({name})")
        }
        other => panic!("serde shim derive: unexpected token after enum name: {other:?}"),
    }
}

/// Consumes any attributes at the cursor, reporting whether one of them
/// was `#[serde(default)]` (the single field attribute the shim honours;
/// any other `#[serde(...)]` panics so unsupported semantics fail the
/// build instead of being silently ignored).
fn take_field_attrs<I: Iterator<Item = TokenTree>>(toks: &mut std::iter::Peekable<I>) -> bool {
    let mut default = false;
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                let Some(TokenTree::Group(g)) = toks.next() else {
                    panic!("serde shim derive: malformed attribute");
                };
                let mut inner = g.stream().into_iter();
                match inner.next() {
                    Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {
                        let args: Vec<String> = match inner.next() {
                            Some(TokenTree::Group(a)) => {
                                a.stream().into_iter().map(|t| t.to_string()).collect()
                            }
                            _ => Vec::new(),
                        };
                        if args == ["default"] {
                            default = true;
                        } else {
                            panic!(
                                "serde shim derive: unsupported serde attribute {args:?} \
                                 (only `default` is implemented)"
                            );
                        }
                    }
                    _ => {} // doc comments, cfg, etc: ignore
                }
            }
            _ => return default,
        }
    }
}

/// Field names of a named-fields body, skipping attributes, visibility, and
/// type tokens (commas inside `<...>` do not split fields).
fn parse_field_names(stream: TokenStream) -> Vec<FieldSpec> {
    let mut fields = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        let default = take_field_attrs(&mut toks);
        let name = loop {
            match toks.next() {
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    if let Some(TokenTree::Group(_)) = toks.peek() {
                        toks.next();
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => panic!("serde shim derive: unexpected field token {other}"),
                None => return fields,
            }
        };
        fields.push(FieldSpec { name, default });
        // Consume `: Type,` tracking angle-bracket depth so generic
        // arguments do not terminate the field early.
        let mut angle = 0i64;
        loop {
            match toks.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => angle += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => angle -= 1,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && angle == 0 => break,
                Some(_) => {}
                None => return fields,
            }
        }
    }
}

/// Number of comma-separated elements in a tuple body.
fn count_elements(stream: TokenStream) -> usize {
    let mut angle = 0i64;
    let mut count = 0usize;
    let mut item_tokens = 0usize;
    for tt in stream {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle += 1;
                item_tokens += 1;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle -= 1;
                item_tokens += 1;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                if item_tokens > 0 {
                    count += 1;
                    item_tokens = 0;
                }
            }
            _ => item_tokens += 1,
        }
    }
    if item_tokens > 0 {
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut out = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        skip_attrs(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => return out,
            Some(other) => panic!("serde shim derive: unexpected variant token {other}"),
        };
        let kind = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_elements(g.stream());
                toks.next();
                VariantKind::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                // Variant fields don't support `#[serde(default)]`; only
                // the names matter here.
                let fields = parse_field_names(g.stream())
                    .into_iter()
                    .map(|f| f.name)
                    .collect();
                toks.next();
                VariantKind::Named(fields)
            }
            _ => VariantKind::Unit,
        };
        out.push(Variant { name, kind });
        // Skip to the separating comma (also skips `= discriminant`).
        loop {
            match toks.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => break,
                Some(_) => {}
                None => return out,
            }
        }
    }
}

/// `serialize` calls writing `fields` (bound to the given expressions) as
/// the entries of one map.
fn map_calls<'a>(fields: impl Iterator<Item = (&'a str, String)>) -> String {
    let entries: String = fields
        .map(|(key, expr)| {
            format!("__s.serialize_field({key:?}); ::serde::Serialize::serialize({expr}, __s);")
        })
        .collect();
    format!("__s.begin_map(); {entries} __s.end_map();")
}

/// `serialize` calls writing an enum variant's `payload` calls as the one
/// entry of a map keyed by the variant name.
fn variant_calls(vname: &str, payload: &str) -> String {
    format!("__s.begin_map(); __s.serialize_field({vname:?}); {payload} __s.end_map();")
}

/// `serialize` calls writing the expressions as one sequence.
fn seq_calls(exprs: impl Iterator<Item = String>) -> String {
    let items: String = exprs
        .map(|expr| format!("::serde::Serialize::serialize({expr}, __s);"))
        .collect();
    format!("__s.begin_seq(); {items} __s.end_seq();")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, calls) = match parse_shape(input) {
        Shape::Named { name, fields } => {
            let calls = map_calls(
                fields
                    .iter()
                    .map(|f| (f.name.as_str(), format!("&self.{}", f.name))),
            );
            (name, calls)
        }
        Shape::Tuple { name, arity } => {
            let calls = if arity == 1 {
                "::serde::Serialize::serialize(&self.0, __s);".to_string()
            } else {
                seq_calls((0..arity).map(|i| format!("&self.{i}")))
            };
            (name, calls)
        }
        Shape::Unit { name } => (name, "__s.serialize_null();".to_string()),
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => {
                            format!("{name}::{vname} => __s.serialize_str({vname:?}),")
                        }
                        VariantKind::Tuple(1) => format!(
                            "{name}::{vname}(x0) => {{ {} }}",
                            variant_calls(vname, "::serde::Serialize::serialize(x0, __s);")
                        ),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                            format!(
                                "{name}::{vname}({}) => {{ {} }}",
                                binds.join(", "),
                                variant_calls(vname, &seq_calls(binds.iter().cloned()))
                            )
                        }
                        VariantKind::Named(fields) => format!(
                            "{name}::{vname} {{ {} }} => {{ {} }}",
                            fields.join(", "),
                            variant_calls(
                                vname,
                                &map_calls(fields.iter().map(|f| (f.as_str(), f.clone())))
                            )
                        ),
                    }
                })
                .collect();
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __s: &mut __S) {{ {calls} }}\n}}"
    )
    .parse()
    .expect("serde shim derive: generated invalid Rust")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let body = match parse_shape(input) {
        Shape::Named { name, fields } => {
            let inits: String = fields
                .iter()
                .map(|spec| {
                    let f = &spec.name;
                    if spec.default {
                        format!("{f}: ::serde::de_field_or_default(m, {f:?})?,")
                    } else {
                        format!("{f}: ::serde::de_field(m, {f:?})?,")
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(v: &::serde::Value) -> Result<Self, ::serde::Error> {{\n\
                 let m = v.as_map().ok_or_else(|| ::serde::Error::custom(concat!(\"expected map for \", stringify!({name}))))?;\n\
                 Ok({name} {{ {inits} }})\n}}\n}}"
            )
        }
        Shape::Tuple { name, arity } => {
            let expr = if arity == 1 {
                format!("Ok({name}(::serde::Deserialize::deserialize(v)?))")
            } else {
                let elems: String = (0..arity)
                    .map(|i| format!("::serde::Deserialize::deserialize(&s[{i}])?,"))
                    .collect();
                format!(
                    "let s = v.as_seq().ok_or_else(|| ::serde::Error::custom(concat!(\"expected seq for \", stringify!({name}))))?;\n\
                     if s.len() != {arity} {{ return Err(::serde::Error::custom(concat!(\"wrong arity for \", stringify!({name})))); }}\n\
                     Ok({name}({elems}))"
                )
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(v: &::serde::Value) -> Result<Self, ::serde::Error> {{ {expr} }}\n}}"
            )
        }
        Shape::Unit { name } => format!(
            "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(_v: &::serde::Value) -> Result<Self, ::serde::Error> {{ Ok({name}) }}\n}}"
        ),
        Shape::Enum { name, variants } => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| {
                    let vname = &v.name;
                    format!("{vname:?} => Ok({name}::{vname}),")
                })
                .collect();
            let payload_arms: String = variants
                .iter()
                .filter_map(|v| {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => None,
                        VariantKind::Tuple(1) => Some(format!(
                            "{vname:?} => Ok({name}::{vname}(::serde::Deserialize::deserialize(inner)?)),"
                        )),
                        VariantKind::Tuple(n) => {
                            let elems: String = (0..*n)
                                .map(|i| format!("::serde::Deserialize::deserialize(&s[{i}])?,"))
                                .collect();
                            Some(format!(
                                "{vname:?} => {{\n\
                                 let s = inner.as_seq().ok_or_else(|| ::serde::Error::custom(\"expected seq payload\"))?;\n\
                                 if s.len() != {n} {{ return Err(::serde::Error::custom(\"wrong variant arity\")); }}\n\
                                 Ok({name}::{vname}({elems}))\n}}"
                            ))
                        }
                        VariantKind::Named(fields) => {
                            let inits: String = fields
                                .iter()
                                .map(|f| format!("{f}: ::serde::de_field(mm, {f:?})?,"))
                                .collect();
                            Some(format!(
                                "{vname:?} => {{\n\
                                 let mm = inner.as_map().ok_or_else(|| ::serde::Error::custom(\"expected map payload\"))?;\n\
                                 Ok({name}::{vname} {{ {inits} }})\n}}"
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(v: &::serde::Value) -> Result<Self, ::serde::Error> {{\n\
                 match v {{\n\
                 ::serde::Value::Str(s) => match s.as_str() {{\n\
                 {unit_arms}\n\
                 other => Err(::serde::Error::custom(format!(\"unknown {{}} variant {{}}\", stringify!({name}), other))),\n\
                 }},\n\
                 ::serde::Value::Map(m) if m.len() == 1 => {{\n\
                 let (k, inner) = (&m[0].0, &m[0].1);\n\
                 let _ = inner;\n\
                 match k.as_str() {{\n\
                 {payload_arms}\n\
                 other => Err(::serde::Error::custom(format!(\"unknown {{}} variant {{}}\", stringify!({name}), other))),\n\
                 }}\n\
                 }},\n\
                 _ => Err(::serde::Error::custom(concat!(\"expected \", stringify!({name}), \" value\"))),\n\
                 }}\n}}\n}}"
            )
        }
    };
    body.parse()
        .expect("serde shim derive: generated invalid Rust")
}
