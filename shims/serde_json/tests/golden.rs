//! Golden-byte tests for the JSON writer.
//!
//! Every expected string below is the exact output of the previous,
//! tree-building serializer, so these tests pin the wire format byte for
//! byte: field order, enum encoding, integer and float text, string
//! escapes, map-as-pairs encoding and the pretty layout.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Inner {
    a: u32,
    b: Vec<u8>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct UnitStruct;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(i8, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(u32),
    Tuple(u32, String),
    Struct { x: i64, y: Option<f64> },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Outer {
    name: String,
    inner: Inner,
    list: Vec<Inner>,
    nested: Vec<Vec<u32>>,
    none: Option<u64>,
    some: Option<i64>,
    empty: Empty,
    unit: UnitStruct,
    newtype: Newtype,
    pair: Pair,
    shapes: Vec<Shape>,
}

fn outer() -> Outer {
    Outer {
        name: "outer".into(),
        inner: Inner {
            a: 1,
            b: vec![2, 3],
        },
        list: vec![
            Inner { a: 4, b: vec![] },
            Inner {
                a: u32::MAX,
                b: vec![255],
            },
        ],
        nested: vec![vec![], vec![1, 2], vec![]],
        none: None,
        some: Some(-7),
        empty: Empty {},
        unit: UnitStruct,
        newtype: Newtype(42),
        pair: Pair(-1, "p".into()),
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(9),
            Shape::Tuple(3, "t".into()),
            Shape::Struct { x: -5, y: None },
            Shape::Struct {
                x: i64::MAX,
                y: Some(2.5),
            },
        ],
    }
}

/// Every control byte, the two characters JSON always escapes, the
/// characters it never escapes, a two-byte and a four-byte scalar.
fn awkward_string() -> String {
    let mut s: String = (0u8..0x20).map(char::from).collect();
    s.push_str("\"\\/\u{7f} é 😀 end");
    s
}

fn hash_map(order: &[u32]) -> HashMap<String, u32> {
    order.iter().map(|&i| (format!("k{i}"), i * 10)).collect()
}

fn check<T: Serialize + ?Sized>(value: &T, compact: &str, pretty: &str) {
    assert_eq!(serde_json::to_string(value).unwrap(), compact, "compact");
    assert_eq!(
        serde_json::to_string_pretty(value).unwrap(),
        pretty,
        "pretty"
    );
}

#[test]
fn empty_containers() {
    check(&Vec::<u32>::new(), "[]", "[]");
    check(&Empty {}, "{}", "{}");
    check(&HashMap::<u32, u32>::new(), "[]", "[]");
    check(&BTreeMap::<u32, u32>::new(), "[]", "[]");
    check(&UnitStruct, "null", "null");
}

#[test]
fn nested_struct_and_every_enum_shape() {
    check(
        &outer(),
        r#"{"name":"outer","inner":{"a":1,"b":[2,3]},"list":[{"a":4,"b":[]},{"a":4294967295,"b":[255]}],"nested":[[],[1,2],[]],"none":null,"some":-7,"empty":{},"unit":null,"newtype":42,"pair":[-1,"p"],"shapes":["Unit",{"Newtype":9},{"Tuple":[3,"t"]},{"Struct":{"x":-5,"y":null}},{"Struct":{"x":9223372036854775807,"y":2.5}}]}"#,
        r#"{
  "name": "outer",
  "inner": {
    "a": 1,
    "b": [
      2,
      3
    ]
  },
  "list": [
    {
      "a": 4,
      "b": []
    },
    {
      "a": 4294967295,
      "b": [
        255
      ]
    }
  ],
  "nested": [
    [],
    [
      1,
      2
    ],
    []
  ],
  "none": null,
  "some": -7,
  "empty": {},
  "unit": null,
  "newtype": 42,
  "pair": [
    -1,
    "p"
  ],
  "shapes": [
    "Unit",
    {
      "Newtype": 9
    },
    {
      "Tuple": [
        3,
        "t"
      ]
    },
    {
      "Struct": {
        "x": -5,
        "y": null
      }
    },
    {
      "Struct": {
        "x": 9223372036854775807,
        "y": 2.5
      }
    }
  ]
}"#,
    );
    let back: Outer = serde_json::from_str(&serde_json::to_string(&outer()).unwrap()).unwrap();
    assert_eq!(back, outer());
}

#[test]
fn options_and_integer_extremes() {
    check(&None::<u64>, "null", "null");
    check(&Some(3u8), "3", "3");
    check(
        &(u64::MAX, i64::MIN, 0u64, -1i32),
        "[18446744073709551615,-9223372036854775808,0,-1]",
        "[\n  18446744073709551615,\n  -9223372036854775808,\n  0,\n  -1\n]",
    );
    check(&usize::MAX, "18446744073709551615", "18446744073709551615");
    check(&i8::MIN, "-128", "-128");
}

#[test]
fn floats_and_non_finite() {
    check(
        &vec![
            0.1,
            -0.0,
            1e300,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -2.5e-300,
        ],
        "[0.1,-0,1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014,null,null,null,1,-0.0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000025]",
        "[\n  0.1,\n  -0,\n  1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,\n  0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014,\n  null,\n  null,\n  null,\n  1,\n  -0.0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000025\n]",
    );
    check(&0.1f32, "0.10000000149011612", "0.10000000149011612");
}

#[test]
fn string_escapes() {
    check(
        &awkward_string(),
        "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\\\"\\\\/\u{7f} é 😀 end\"",
        "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\\\"\\\\/\u{7f} é 😀 end\"",
    );
    check("", "\"\"", "\"\"");
    let back: String =
        serde_json::from_str(&serde_json::to_string(&awkward_string()).unwrap()).unwrap();
    assert_eq!(back, awkward_string());
}

#[test]
fn hash_map_renders_sorted_whatever_the_insertion_order() {
    let compact = r#"[["k1",10],["k2",20],["k3",30],["k4",40],["k5",50],["k6",60]]"#;
    let pretty = "[\n  [\n    \"k1\",\n    10\n  ],\n  [\n    \"k2\",\n    20\n  ],\n  [\n    \"k3\",\n    30\n  ],\n  [\n    \"k4\",\n    40\n  ],\n  [\n    \"k5\",\n    50\n  ],\n  [\n    \"k6\",\n    60\n  ]\n]";
    for order in [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [3, 6, 1, 5, 2, 4]] {
        // Each map gets its own random hasher state, so its iteration
        // order differs run to run as well as insertion to insertion.
        for _ in 0..4 {
            check(&hash_map(&order), compact, pretty);
        }
    }
    let back: HashMap<String, u32> = serde_json::from_str(compact).unwrap();
    assert_eq!(back, hash_map(&[1, 2, 3, 4, 5, 6]));
}

#[test]
fn hash_map_with_compound_keys_sorts_by_key_then_value() {
    let m: HashMap<(u32, String), Shape> = [
        ((2, "b".to_string()), Shape::Unit),
        ((1, "z".to_string()), Shape::Newtype(1)),
        ((1, "a".to_string()), Shape::Struct { x: 1, y: None }),
        ((10, String::new()), Shape::Tuple(0, "x".into())),
        ((0, "q".to_string()), Shape::Unit),
    ]
    .into_iter()
    .collect();
    check(
        &m,
        r#"[[[0,"q"],"Unit"],[[1,"a"],{"Struct":{"x":1,"y":null}}],[[1,"z"],{"Newtype":1}],[[2,"b"],"Unit"],[[10,""],{"Tuple":[0,"x"]}]]"#,
        "[\n  [\n    [\n      0,\n      \"q\"\n    ],\n    \"Unit\"\n  ],\n  [\n    [\n      1,\n      \"a\"\n    ],\n    {\n      \"Struct\": {\n        \"x\": 1,\n        \"y\": null\n      }\n    }\n  ],\n  [\n    [\n      1,\n      \"z\"\n    ],\n    {\n      \"Newtype\": 1\n    }\n  ],\n  [\n    [\n      2,\n      \"b\"\n    ],\n    \"Unit\"\n  ],\n  [\n    [\n      10,\n      \"\"\n    ],\n    {\n      \"Tuple\": [\n        0,\n        \"x\"\n      ]\n    }\n  ]\n]",
    );
}

#[test]
fn btree_map_and_tuples() {
    let m: BTreeMap<String, (u32, bool)> = [
        ("beta".to_string(), (2, false)),
        ("alpha".to_string(), (1, true)),
    ]
    .into_iter()
    .collect();
    check(
        &m,
        r#"[["alpha",[1,true]],["beta",[2,false]]]"#,
        "[\n  [\n    \"alpha\",\n    [\n      1,\n      true\n    ]\n  ],\n  [\n    \"beta\",\n    [\n      2,\n      false\n    ]\n  ]\n]",
    );
    check(&(7u8,), "[7]", "[\n  7\n]");
    check(
        &(1u16, "x", 2.5f64, None::<u8>),
        r#"[1,"x",2.5,null]"#,
        "[\n  1,\n  \"x\",\n  2.5,\n  null\n]",
    );
}

/// One nested document through every sink call, pinned as the writer
/// with a runtime pretty flag rendered it: objects with escaped
/// keys, sequences, empty containers at every depth, floats, negative
/// integers, booleans and `null`.
fn document() -> serde::Value {
    use serde::Value::{Bool, Map, Null, Seq, Str, F64, I64, U64};
    Map(vec![
        ("plain".into(), U64(1)),
        ("tab\tand \"quote\"".into(), Str("back\\slash\u{1}".into())),
        (
            "nested".into(),
            Map(vec![
                ("empty_map".into(), Map(vec![])),
                ("empty_seq".into(), Seq(vec![])),
                (
                    "mixed".into(),
                    Seq(vec![
                        F64(0.1),
                        F64(-2.5e-7),
                        F64(1e21),
                        F64(f64::NAN),
                        I64(-42),
                        Null,
                        Bool(true),
                        Seq(vec![Seq(vec![]), Map(vec![("é".into(), Bool(false))])]),
                    ]),
                ),
            ]),
        ),
        ("".into(), Null),
    ])
}

#[test]
fn nested_document_compact_and_pretty() {
    check(
        &document(),
        r#"{"plain":1,"tab\tand \"quote\"":"back\\slash\u0001","nested":{"empty_map":{},"empty_seq":[],"mixed":[0.1,-0.00000025,1000000000000000000000,null,-42,null,true,[[],{"é":false}]]},"":null}"#,
        r#"{
  "plain": 1,
  "tab\tand \"quote\"": "back\\slash\u0001",
  "nested": {
    "empty_map": {},
    "empty_seq": [],
    "mixed": [
      0.1,
      -0.00000025,
      1000000000000000000000,
      null,
      -42,
      null,
      true,
      [
        [],
        {
          "é": false
        }
      ]
    ]
  },
  "": null
}"#,
    );
}
