//! The offline stand-ins for serde and serde_json write and read the JSON
//! the published crates do, for every shape the derive supports.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(f64),
    Pair(u32, String),
    Named { left: usize, right: Option<bool> },
}

#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct Cache(Vec<u8>);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    name: String,
    shapes: Vec<Shape>,
    grid: [f64; 3],
    pair: (i64, f32),
    by_key: BTreeMap<String, Vec<u16>>,
    by_id: BTreeMap<u32, bool>,
    maybe: Option<Box<Shape>>,
    #[serde(default)]
    added_later: u64,
    #[serde(skip)]
    derived: Cache,
    r#type: u8,
}

fn record() -> Record {
    Record {
        name: "a \"quoted\"\n\ttab \\ é \u{1}".to_string(),
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(-0.5),
            Shape::Pair(7, "x".to_string()),
            Shape::Named {
                left: 3,
                right: None,
            },
        ],
        grid: [1.0, 1e21, 1.5e-7],
        pair: (-9, 0.25),
        by_key: BTreeMap::from([("k".to_string(), vec![1, 2])]),
        by_id: BTreeMap::from([(4, true)]),
        maybe: Some(Box::new(Shape::Named {
            left: 0,
            right: Some(false),
        })),
        added_later: 9,
        derived: Cache(vec![1, 2, 3]),
        r#type: 2,
    }
}

#[test]
fn the_text_is_what_serde_json_writes() {
    let expected = concat!(
        "{\"name\":\"a \\\"quoted\\\"\\n\\ttab \\\\ é \\u0001\",",
        "\"shapes\":[\"Unit\",{\"Newtype\":-0.5},{\"Pair\":[7,\"x\"]},{\"Named\":{\"left\":3,\"right\":null}}],",
        "\"grid\":[1.0,1e21,1.5e-7],",
        "\"pair\":[-9,0.25],",
        "\"by_key\":{\"k\":[1,2]},",
        "\"by_id\":{\"4\":true},",
        "\"maybe\":{\"Named\":{\"left\":0,\"right\":false}},",
        "\"added_later\":9,",
        "\"type\":2}"
    );
    assert_eq!(serde_json::to_string(&record()).unwrap(), expected);
}

#[test]
fn values_round_trip_and_skipped_fields_take_their_default() {
    let r = record();
    let back: Record = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
    assert_eq!(
        back,
        Record {
            derived: Cache::default(),
            ..r
        }
    );
}

#[test]
fn reading_tolerates_order_space_and_unknown_keys_and_rejects_bad_shapes() {
    let text = " { \"extra\" : [ {\"deep\": [1, \"}\"] } ] , \"right\" : true,\n \"left\" : 12 } ";
    #[derive(Debug, PartialEq, Deserialize)]
    struct Sides {
        left: usize,
        right: Option<bool>,
        #[serde(default)]
        absent: Vec<u8>,
        optional: Option<String>,
    }
    let s: Sides = serde_json::from_str(text).unwrap();
    assert_eq!(
        s,
        Sides {
            left: 12,
            right: Some(true),
            absent: vec![],
            optional: None
        }
    );

    let bad = [
        "{\"right\":true}",      // a required field is missing
        "{\"left\":-1}",         // out of range for usize
        "{\"left\":1} trailing", // trailing characters
        "{\"left\":1,}",         // trailing comma
        "{\"left\":\"1\"}",      // wrong type
        "[1,2]",                 // wrong shape
        "{\"left\":1",           // truncated
    ];
    for text in bad {
        assert!(serde_json::from_str::<Sides>(text).is_err(), "{text}");
    }
    assert!(serde_json::from_str::<Shape>("\"Nope\"").is_err());
    assert!(serde_json::from_str::<Shape>("{\"Pair\":[1]}").is_err());
    assert!(serde_json::from_str::<Shape>("{\"Pair\":[1,\"a\",2]}").is_err());
    assert!(serde_json::from_str::<Shape>("{\"Unit\":1,\"Newtype\":2}").is_err());
    // Hostile nesting is refused, not recursed into.
    let deep = "[".repeat(100_000);
    assert!(serde_json::from_str::<Vec<Vec<u8>>>(&deep).is_err());
    assert!(serde_json::from_str::<Sides>(&format!("{{\"x\":{deep}")).is_err());
    // Floats: non-finite values are written as null and read back as NaN.
    assert_eq!(serde_json::to_string(&f64::INFINITY).unwrap(), "null");
    assert!(serde_json::from_str::<f64>("null").unwrap().is_nan());
    assert_eq!(serde_json::from_str::<f64>("1e-7").unwrap(), 1e-7);
    assert_eq!(
        serde_json::from_str::<String>("\"\\ud83d\\ude00 \\u00e9\"").unwrap(),
        "😀 é"
    );
}
