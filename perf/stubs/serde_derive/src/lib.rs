//! Offline stand-in for `serde_derive`, written against `proc_macro` alone.
//!
//! Supports what the `mphpc` workspace derives on: non-generic structs
//! (named, tuple, unit) and enums (unit, tuple and struct variants), with the
//! field attributes `#[serde(default)]` and `#[serde(skip)]`. Anything else is
//! a compile error naming the construct, never a silent mis-derive.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Field {
    /// Field name for named fields, empty for tuple fields.
    name: String,
    default: bool,
    skip: bool,
}

impl Field {
    /// The JSON key: the identifier without a raw-identifier prefix.
    fn key(&self) -> &str {
        self.name.strip_prefix("r#").unwrap_or(&self.name)
    }
}

enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Reads the `serde(...)` attribute contents at `tokens[*i]`, if an attribute
/// starts there, and steps past it.
fn take_attr(tokens: &[TokenTree], i: &mut usize, field: &mut Field) -> bool {
    let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (tokens.get(*i), tokens.get(*i + 1))
    else {
        return false;
    };
    if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
        return false;
    }
    *i += 2;
    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
    if let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) =
        (inner.first(), inner.get(1))
    {
        if id.to_string() == "serde" {
            for t in args.stream() {
                match t {
                    TokenTree::Ident(a) if a.to_string() == "default" => field.default = true,
                    TokenTree::Ident(a) if a.to_string() == "skip" => field.skip = true,
                    TokenTree::Punct(_) => {}
                    other => panic!("serde stand-in: unsupported attribute `serde({other} ..)`"),
                }
            }
        }
    }
    true
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Steps past one type (or discriminant expression): everything up to a comma
/// that is not nested inside `<...>`. Bracketed groups are single tokens.
fn skip_to_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle = 0i32;
    while let Some(t) = tokens.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle <= 0 => break,
                _ => {}
            }
        }
        *i += 1;
    }
    *i += 1;
}

fn parse_fields(stream: TokenStream, named: bool) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut field = Field::default();
        while take_attr(&tokens, &mut i, &mut field) {}
        skip_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        if named {
            match &tokens[i] {
                TokenTree::Ident(id) => field.name = id.to_string(),
                other => panic!("serde stand-in: expected a field name, found `{other}`"),
            }
            i += 2;
        }
        skip_to_comma(&tokens, &mut i);
        fields.push(field);
    }
    fields
}

fn parse_shape(tokens: &[TokenTree], i: &mut usize) -> Shape {
    match tokens.get(*i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            *i += 1;
            Shape::Named(parse_fields(g.stream(), true))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            *i += 1;
            Shape::Tuple(parse_fields(g.stream(), false))
        }
        _ => Shape::Unit,
    }
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut ignored = Field::default();
    while take_attr(&tokens, &mut i, &mut ignored) {}
    skip_visibility(&tokens, &mut i);
    let kind = tokens[i].to_string();
    let name = tokens[i + 1].to_string();
    i += 2;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde stand-in: generic type `{name}` is not supported");
    }
    match kind.as_str() {
        "struct" => Item::Struct {
            name,
            shape: parse_shape(&tokens, &mut i),
        },
        "enum" => {
            let Some(TokenTree::Group(body)) = tokens.get(i) else {
                panic!("serde stand-in: enum `{name}` has no body");
            };
            let body: Vec<TokenTree> = body.stream().into_iter().collect();
            let mut variants = Vec::new();
            let mut j = 0;
            while j < body.len() {
                let mut attrs = Field::default();
                while take_attr(&body, &mut j, &mut attrs) {}
                if j >= body.len() {
                    break;
                }
                let vname = body[j].to_string();
                j += 1;
                let shape = parse_shape(&body, &mut j);
                skip_to_comma(&body, &mut j);
                variants.push(Variant { name: vname, shape });
            }
            Item::Enum { name, variants }
        }
        other => panic!("serde stand-in: cannot derive on `{other}`"),
    }
}

/// Code that appends the named fields reachable through `access(field)` as a
/// JSON object.
fn ser_named(fields: &[Field], access: impl Fn(&Field) -> String) -> String {
    let mut code = String::from("out.push('{');\n");
    let mut first = true;
    for f in fields.iter().filter(|f| !f.skip) {
        code += &format!(
            "::serde::ser::write_key(out, {first}, \"{}\");\n::serde::Serialize::serialize({}, out);\n",
            f.key(),
            access(f)
        );
        first = false;
    }
    code + "out.push('}');\n"
}

fn ser_tuple(n: usize, access: impl Fn(usize) -> String) -> String {
    if n == 1 {
        return format!("::serde::Serialize::serialize({}, out);\n", access(0));
    }
    let mut code = String::from("out.push('[');\n");
    for k in 0..n {
        if k > 0 {
            code += "out.push(',');\n";
        }
        code += &format!("::serde::Serialize::serialize({}, out);\n", access(k));
    }
    code + "out.push(']');\n"
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse_item(input) {
        Item::Struct { name, shape } => {
            let body = match &shape {
                Shape::Unit => "out.push_str(\"null\");\n".to_string(),
                Shape::Tuple(fields) => ser_tuple(fields.len(), |k| format!("&self.{k}")),
                Shape::Named(fields) => ser_named(fields, |f| format!("&self.{}", f.name)),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in &variants {
                let vn = &v.name;
                arms += &match &v.shape {
                    Shape::Unit => format!("{name}::{vn} => out.push_str(\"\\\"{vn}\\\"\"),\n"),
                    Shape::Tuple(fields) => {
                        let binds: Vec<String> =
                            (0..fields.len()).map(|k| format!("f{k}")).collect();
                        format!(
                            "{name}::{vn}({}) => {{\nout.push_str(\"{{\\\"{vn}\\\":\");\n{}out.push('}}');\n}}\n",
                            binds.join(", "),
                            ser_tuple(fields.len(), |k| format!("f{k}"))
                        )
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        format!(
                            "{name}::{vn} {{ {} }} => {{\nout.push_str(\"{{\\\"{vn}\\\":\");\n{}out.push('}}');\n}}\n",
                            binds.join(", "),
                            ser_named(fields, |f| f.name.clone())
                        )
                    }
                };
            }
            (name, format!("match self {{\n{arms}}}\n"))
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Serialize for {name} {{\n\
         #[allow(unused_variables)]\n\
         fn serialize(&self, out: &mut ::std::string::String) {{\n{body}}}\n}}\n"
    )
    .parse()
    .expect("serde stand-in: generated Serialize impl parses")
}

/// Code that reads a JSON object into the named fields and evaluates to
/// `ctor { .. }`.
fn de_named(ctor: &str, fields: &[Field]) -> String {
    let mut code = String::from("p.begin_object()?;\n");
    let mut arms = String::new();
    let mut build = String::new();
    for (k, f) in fields.iter().enumerate() {
        let fname = &f.name;
        if f.skip {
            build += &format!("{fname}: ::core::default::Default::default(),\n");
            continue;
        }
        code += &format!("let mut v{k} = ::core::option::Option::None;\n");
        arms += &format!(
            "\"{}\" => v{k} = ::core::option::Option::Some(::serde::Deserialize::deserialize(p)?),\n",
            f.key()
        );
        build += &if f.default {
            format!("{fname}: v{k}.unwrap_or_default(),\n")
        } else {
            format!(
                "{fname}: match v{k} {{ ::core::option::Option::Some(v) => v, \
                 ::core::option::Option::None => ::serde::Deserialize::missing(\"{}\")? }},\n",
                f.key()
            )
        };
    }
    code += &format!(
        "let mut first = true;\n\
         while let ::core::option::Option::Some(key) = p.next_key(first)? {{\n\
         first = false;\n\
         match &*key {{\n{arms}_ => p.skip_value()?,\n}}\n}}\n\
         {ctor} {{\n{build}}}\n"
    );
    code
}

fn de_tuple(ctor: &str, n: usize) -> String {
    if n == 1 {
        return format!("{ctor}(::serde::Deserialize::deserialize(p)?)\n");
    }
    let mut code = String::from("p.begin_array()?;\n");
    let mut args = Vec::new();
    for k in 0..n {
        code +=
            &format!("p.tuple_element({k})?;\nlet a{k} = ::serde::Deserialize::deserialize(p)?;\n");
        args.push(format!("a{k}"));
    }
    code + &format!("p.end_tuple({n})?;\n{ctor}({})\n", args.join(", "))
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse_item(input) {
        Item::Struct { name, shape } => {
            let body = match &shape {
                Shape::Unit => format!(
                    "if !p.eat_null() {{ return ::core::result::Result::Err(p.error(\"expected null\")); }}\n\
                     ::core::result::Result::Ok({name})\n"
                ),
                Shape::Tuple(fields) => format!(
                    "::core::result::Result::Ok({{\n{}}})\n",
                    de_tuple(&name, fields.len())
                ),
                Shape::Named(fields) => format!(
                    "::core::result::Result::Ok({{\n{}}})\n",
                    de_named(&name, fields)
                ),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in &variants {
                let vn = &v.name;
                let ctor = format!("{name}::{vn}");
                arms += &match &v.shape {
                    Shape::Unit => format!("(\"{vn}\", false) => {ctor},\n"),
                    Shape::Tuple(fields) => {
                        format!(
                            "(\"{vn}\", true) => {{\n{}}}\n",
                            de_tuple(&ctor, fields.len())
                        )
                    }
                    Shape::Named(fields) => {
                        format!("(\"{vn}\", true) => {{\n{}}}\n", de_named(&ctor, fields))
                    }
                };
            }
            let body = format!(
                "let (name, has_payload) = p.begin_variant()?;\n\
                 let value = match (&*name, has_payload) {{\n{arms}\
                 _ => return ::core::result::Result::Err(\
                 p.error(format_args!(\"unknown variant `{{}}` of {name}\", name))),\n}};\n\
                 if has_payload {{ p.end_variant()?; }}\n\
                 ::core::result::Result::Ok(value)\n"
            );
            (name, body)
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Deserialize for {name} {{\n\
         fn deserialize(p: &mut ::serde::de::Parser<'_>) \
         -> ::core::result::Result<Self, ::serde::de::Error> {{\n{body}}}\n}}\n"
    )
    .parse()
    .expect("serde stand-in: generated Deserialize impl parses")
}
