//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! vendored serde shim.
//!
//! The build environment has no registry access, so `syn`/`quote` are
//! unavailable; the input item is parsed directly from the raw token
//! stream. Supported shapes — which cover every derive in this workspace:
//!
//! * structs with named fields,
//! * tuple structs (including newtypes),
//! * enums whose variants are unit, newtype/tuple, or struct-like,
//!   externally tagged (`{"Variant": …}`, or `"Variant"` for unit ones).
//!
//! Attributes honoured:
//!
//! * field `#[serde(default)]` / `#[serde(default = "path")]`;
//! * enum `#[serde(rename_all = "lowercase")]`, which lowercases every
//!   variant tag on the wire. Any other `rename_all` value is a compile
//!   error.
//!
//! Other serde arguments (`skip_serializing_if`, …) are ignored.
//!
//! Generics are intentionally unsupported (no workspace type needs them);
//! hitting that limit is a compile error rather than silent misbehaviour.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    NamedStruct {
        name: String,
        fields: Vec<Field>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// A named field plus the one field attribute the shim honours:
/// `#[serde(default)]` / `#[serde(default = "path")]` (a missing key
/// deserializes via `Default::default()` or the named function instead of
/// being fed `Content::Null`). `default` is `None` for no attribute,
/// `Some(None)` for the bare form, `Some(Some(path))` for the function
/// form.
#[derive(Debug)]
struct Field {
    name: String,
    default: Option<Option<String>>,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// An enum variant: `name` is the Rust identifier, `tag` its key on the
/// wire (the name itself unless `rename_all` rewrote it).
#[derive(Debug)]
struct Variant {
    name: String,
    tag: String,
    kind: VariantKind,
}

/// Splits a token list at top-level commas. Commas nested in generic
/// angle brackets (`BTreeMap<String, u32>`) are not split points; angle
/// brackets are tracked by depth since they are not token groups.
fn split_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle_depth = 0usize;
    for t in tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle_depth += 1;
                cur.push(t.clone());
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1);
                cur.push(t.clone());
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(t.clone()),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Strips leading attributes (`#[...]`, including doc comments) and
/// visibility (`pub`, `pub(...)`).
fn strip_prefix(tokens: &[TokenTree]) -> &[TokenTree] {
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i += 1; // the attribute's bracket group follows
                if matches!(&tokens.get(i), Some(TokenTree::Group(_))) {
                    i += 1;
                }
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if matches!(
                    tokens.get(i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    &tokens[i..]
}

/// Every argument of every top-level `#[serde(...)]` attribute in
/// `tokens` (a field segment or a whole item; nested groups are not
/// searched), each split at its commas.
fn serde_args(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    for w in tokens.windows(2) {
        if !matches!(&w[0], TokenTree::Punct(p) if p.as_char() == '#') {
            continue;
        }
        let TokenTree::Group(attr) = &w[1] else {
            continue;
        };
        let toks: Vec<TokenTree> = attr.stream().into_iter().collect();
        if !matches!(toks.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
            continue;
        }
        if let Some(TokenTree::Group(args)) = toks.get(1) {
            out.extend(split_commas(&args.stream().into_iter().collect::<Vec<_>>()));
        }
    }
    out
}

/// The string value of a `key = "value"` serde argument named `key`.
fn string_arg(arg: &[TokenTree], key: &str) -> Option<String> {
    match arg {
        [TokenTree::Ident(id), TokenTree::Punct(eq), TokenTree::Literal(lit)]
            if id.to_string() == key && eq.as_char() == '=' =>
        {
            Some(lit.to_string().trim_matches('"').to_string())
        }
        _ => None,
    }
}

/// The `#[serde(default)]` / `#[serde(default = "path")]` attribute of an
/// (un-stripped) field segment, if present — possibly alongside other
/// serde arguments, which the shim ignores. See [`Field::default`] for
/// the encoding.
fn serde_default(segment: &[TokenTree]) -> Option<Option<String>> {
    serde_args(segment)
        .iter()
        .find_map(|arg| match arg.as_slice() {
            [TokenTree::Ident(id)] if id.to_string() == "default" => Some(None),
            _ => string_arg(arg, "default").map(Some),
        })
}

/// The first identifier of a (stripped) field segment, i.e. the field name.
fn field_name(segment: &[TokenTree]) -> Option<String> {
    let segment = strip_prefix(segment);
    match segment.first() {
        Some(TokenTree::Ident(id)) => Some(id.to_string()),
        _ => None,
    }
}

fn parse_named_fields(group_tokens: &[TokenTree]) -> Vec<Field> {
    split_commas(group_tokens)
        .iter()
        .filter_map(|seg| {
            field_name(seg).map(|name| Field {
                name,
                default: serde_default(seg),
            })
        })
        .collect()
}

fn parse_variant(segment: &[TokenTree], lowercase: bool) -> Option<Variant> {
    let segment = strip_prefix(segment);
    let name = match segment.first() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return None,
    };
    let kind = match segment.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let toks: Vec<TokenTree> = g.stream().into_iter().collect();
            VariantKind::Named(parse_named_fields(&toks))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let toks: Vec<TokenTree> = g.stream().into_iter().collect();
            VariantKind::Tuple(split_commas(&toks).len())
        }
        _ => VariantKind::Unit,
    };
    let tag = if lowercase {
        name.to_lowercase()
    } else {
        name.clone()
    };
    Some(Variant { name, tag, kind })
}

fn parse_shape(input: TokenStream) -> Result<Shape, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let rest = strip_prefix(&tokens);
    let mut it = rest.iter();
    let kw = loop {
        match it.next() {
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
            }
            Some(_) => continue,
            None => return Err("no struct/enum keyword found".into()),
        }
    };
    let name = match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    let rename_all = serde_args(&tokens)
        .iter()
        .find_map(|arg| string_arg(arg, "rename_all"));
    let body = it.next();
    if matches!(body, Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "shim serde_derive does not support generic type `{name}`"
        ));
    }
    let lowercase = match rename_all.as_deref() {
        None => false,
        Some("lowercase") if kw == "enum" => true,
        Some(other) => {
            return Err(format!(
                "shim serde_derive supports only rename_all = \"lowercase\" on an enum, \
                 but {kw} `{name}` has rename_all = {other:?}"
            ))
        }
    };
    match (kw.as_str(), body) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            let toks: Vec<TokenTree> = g.stream().into_iter().collect();
            Ok(Shape::NamedStruct {
                name,
                fields: parse_named_fields(&toks),
            })
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            let toks: Vec<TokenTree> = g.stream().into_iter().collect();
            Ok(Shape::TupleStruct {
                name,
                arity: split_commas(&toks).len(),
            })
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => {
            Ok(Shape::TupleStruct { name, arity: 0 })
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            let toks: Vec<TokenTree> = g.stream().into_iter().collect();
            let variants = split_commas(&toks)
                .iter()
                .filter_map(|seg| parse_variant(seg, lowercase))
                .collect();
            Ok(Shape::Enum { name, variants })
        }
        _ => Err(format!("unsupported item shape for `{name}`")),
    }
}

fn field_lookup(field: &Field, source: &str) -> String {
    let name = &field.name;
    match &field.default {
        Some(fallback) => {
            let absent = match fallback {
                Some(path) => format!("{path}()"),
                None => "::std::default::Default::default()".to_string(),
            };
            format!(
                "match {source}.iter().find(|(k, _)| k == \"{name}\") {{\
                     Some((_, v)) => ::serde::Deserialize::from_content(v)?,\
                     None => {absent},\
                 }}"
            )
        }
        None => format!(
            "::serde::Deserialize::from_content({source}.iter().find(|(k, _)| k == \"{name}\")\
             .map(|(_, v)| v).unwrap_or(&::serde::Content::Null))?"
        ),
    }
}

fn emit_serialize(shape: &Shape) -> String {
    match shape {
        Shape::NamedStruct { name, fields } => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    let f = &f.name;
                    format!("(\"{f}\".to_string(), ::serde::Serialize::to_content(&self.{f}))")
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_content(&self) -> ::serde::Content {{\n\
                         ::serde::Content::Map(vec![{}])\n\
                     }}\n\
                 }}",
                entries.join(", ")
            )
        }
        Shape::TupleStruct { name, arity } => {
            let body = match arity {
                0 => "::serde::Content::Null".to_string(),
                1 => "::serde::Serialize::to_content(&self.0)".to_string(),
                n => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::to_content(&self.{i})"))
                        .collect();
                    format!("::serde::Content::Seq(vec![{}])", items.join(", "))
                }
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_content(&self) -> ::serde::Content {{ {body} }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let (vname, tag) = (&v.name, &v.tag);
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vname} => ::serde::Content::Str(\"{tag}\".to_string()),"
                        ),
                        VariantKind::Tuple(1) => format!(
                            "{name}::{vname}(x0) => ::serde::Content::Map(vec![(\
                             \"{tag}\".to_string(), ::serde::Serialize::to_content(x0))]),"
                        ),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_content({b})"))
                                .collect();
                            format!(
                                "{name}::{vname}({}) => ::serde::Content::Map(vec![(\
                                 \"{tag}\".to_string(), ::serde::Content::Seq(vec![{}]))]),",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        VariantKind::Named(fields) => {
                            let binds = fields
                                .iter()
                                .map(|f| f.name.clone())
                                .collect::<Vec<_>>()
                                .join(", ");
                            let entries: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    let f = &f.name;
                                    format!(
                                        "(\"{f}\".to_string(), ::serde::Serialize::to_content({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vname} {{ {binds} }} => ::serde::Content::Map(vec![(\
                                 \"{tag}\".to_string(), ::serde::Content::Map(vec![{}]))]),",
                                entries.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_content(&self) -> ::serde::Content {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    }
}

fn emit_deserialize(shape: &Shape) -> String {
    match shape {
        Shape::NamedStruct { name, fields } => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{}: {},", f.name, field_lookup(f, "entries")))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_content(c: &::serde::Content) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match c {{\n\
                             ::serde::Content::Map(entries) => Ok({name} {{ {} }}),\n\
                             other => Err(::serde::DeError(format!(\n\
                                 \"expected map for {name}, found {{other:?}}\"))),\n\
                         }}\n\
                     }}\n\
                 }}",
                inits.join(" ")
            )
        }
        Shape::TupleStruct { name, arity } => {
            let body = match arity {
                0 => format!("Ok({name})"),
                1 => format!("Ok({name}(::serde::Deserialize::from_content(c)?))"),
                n => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Deserialize::from_content(&items[{i}])?"))
                        .collect();
                    format!(
                        "match c {{\n\
                             ::serde::Content::Seq(items) if items.len() == {n} => \
                                 Ok({name}({})),\n\
                             other => Err(::serde::DeError(format!(\n\
                                 \"expected {n}-seq for {name}, found {{other:?}}\"))),\n\
                         }}",
                        items.join(", ")
                    )
                }
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_content(c: &::serde::Content) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         {body}\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| format!("\"{}\" => Ok({name}::{}),", v.tag, v.name))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let (vname, tag) = (&v.name, &v.tag);
                    match &v.kind {
                        VariantKind::Unit => None,
                        VariantKind::Tuple(1) => Some(format!(
                            "\"{tag}\" => Ok({name}::{vname}(\
                             ::serde::Deserialize::from_content(v)?)),"
                        )),
                        VariantKind::Tuple(n) => {
                            let items: Vec<String> = (0..*n)
                                .map(|i| {
                                    format!("::serde::Deserialize::from_content(&items[{i}])?")
                                })
                                .collect();
                            Some(format!(
                                "\"{tag}\" => match v {{\n\
                                     ::serde::Content::Seq(items) if items.len() == {n} => \
                                         Ok({name}::{vname}({})),\n\
                                     other => Err(::serde::DeError(format!(\n\
                                         \"expected {n}-seq for {name}::{vname}, \
                                          found {{other:?}}\"))),\n\
                                 }},",
                                items.join(", ")
                            ))
                        }
                        VariantKind::Named(fields) => {
                            let inits: Vec<String> = fields
                                .iter()
                                .map(|f| format!("{}: {},", f.name, field_lookup(f, "fields")))
                                .collect();
                            Some(format!(
                                "\"{tag}\" => match v {{\n\
                                     ::serde::Content::Map(fields) => \
                                         Ok({name}::{vname} {{ {} }}),\n\
                                     other => Err(::serde::DeError(format!(\n\
                                         \"expected field map for {name}::{vname}, \
                                          found {{other:?}}\"))),\n\
                                 }},",
                                inits.join(" ")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_content(c: &::serde::Content) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match c {{\n\
                             ::serde::Content::Str(s) => match s.as_str() {{\n\
                                 {}\n\
                                 other => Err(::serde::DeError(format!(\n\
                                     \"unknown {name} variant {{other:?}}\"))),\n\
                             }},\n\
                             ::serde::Content::Map(entries) if entries.len() == 1 => {{\n\
                                 let (k, v) = &entries[0];\n\
                                 match k.as_str() {{\n\
                                     {}\n\
                                     other => Err(::serde::DeError(format!(\n\
                                         \"unknown {name} variant {{other:?}}\"))),\n\
                                 }}\n\
                             }}\n\
                             ::serde::Content::Map(entries) => Err(::serde::DeError(format!(\n\
                                 \"expected one variant key for {name}, found keys {{:?}}\",\n\
                                 entries.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>()))),\n\
                             other => Err(::serde::DeError(format!(\n\
                                 \"expected variant for {name}, found {{}}\", other.kind()))),\n\
                         }}\n\
                     }}\n\
                 }}",
                unit_arms.join("\n"),
                data_arms.join("\n")
            )
        }
    }
}

fn run(input: TokenStream, emit: fn(&Shape) -> String) -> TokenStream {
    match parse_shape(input) {
        Ok(shape) => emit(&shape)
            .parse()
            .expect("shim serde_derive generated invalid Rust"),
        // `{msg:?}` renders the message as an escaped string literal.
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

/// Derives the shim `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    run(input, emit_serialize)
}

/// Derives the shim `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    run(input, emit_deserialize)
}
