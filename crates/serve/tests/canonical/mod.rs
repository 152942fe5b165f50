//! Canonical JSON, shared by the tests that hold real frames and records:
//! the writer's bytes are a fixpoint of the `Value` tree, and a reader
//! does not depend on the order of an object's keys.

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// `value` with every object's keys in reverse order, recursively.
fn reversed(value: Value) -> Value {
    match value {
        Value::Map(entries) => Value::Map(
            entries
                .into_iter()
                .rev()
                .map(|(k, v)| (k, reversed(v)))
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.into_iter().map(reversed).collect()),
        other => other,
    }
}

/// Asserts that `to_vec(x)` is `to_vec` of its own `Value` tree, and that
/// the rendering with every object's keys reversed reads back to a value
/// that writes the same bytes.
pub fn assert_canonical<T: Serialize + Deserialize>(x: &T) {
    let bytes = serde_json::to_vec(x).expect("serializes");
    let tree: Value = serde_json::from_slice(&bytes).expect("parses as a tree");
    assert_eq!(
        serde_json::to_vec(&tree).expect("serializes"),
        bytes,
        "the tree rewrites other bytes"
    );
    let shuffled = serde_json::to_vec(&reversed(tree)).expect("serializes");
    let back: T = serde_json::from_slice(&shuffled).expect("reversed keys parse");
    assert_eq!(
        serde_json::to_vec(&back).expect("serializes"),
        bytes,
        "reversed keys read back to another value: {}",
        String::from_utf8_lossy(&shuffled)
    );
}
