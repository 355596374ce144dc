//! JSON edit traces: the on-disk interchange format for replaying edit
//! sequences through an [`IncrementalOptimizer`](crate::IncrementalOptimizer).
//!
//! A trace is a single object `{"edits": [...]}` whose array holds one
//! object per edit, discriminated by its `"op"` field:
//!
//! ```json
//! {"edits": [
//!   {"op": "set_arrival",   "terminal": 1, "value": 12.5},
//!   {"op": "set_required",  "terminal": 2, "value": 30.0},
//!   {"op": "set_sink_load", "terminal": 1, "cap": 0.8},
//!   {"op": "move_terminal", "terminal": 3, "x": 100.0, "y": -40.0},
//!   {"op": "set_wire_rc",   "edge": 3, "res_scale": 2.0, "cap_scale": 0.5},
//!   {"op": "swap_library",  "scale": 2.0},
//!   {"op": "reroot",        "terminal": 1},
//!   {"op": "add_terminal",  "at": 4, "x": 150.0, "y": 0.0, "arrival": 2.0,
//!    "downstream": 1.0, "cap": 0.05, "drive_res": 180.0, "drive_intrinsic": 0.0},
//!   {"op": "remove_terminal", "terminal": 3},
//!   {"op": "add_insertion_point", "edge": 2, "frac": 0.5},
//!   {"op": "remove_insertion_point", "vertex": 6}
//! ]}
//! ```
//!
//! Parsing goes through the workspace's shared JSON reader
//! ([`crate::json`]; the workspace is dependency-free by design) and is
//! strict about structure — unknown ops, missing fields, and trailing
//! garbage are all errors with positions — but tolerant of field order
//! and whitespace.

use std::fmt;

use msrnet_rctree::{EdgeId, Terminal, TerminalId, VertexId};

use crate::json::{parse_json, Json};
use crate::Edit;

/// A parse failure, with the byte offset where it was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// Byte offset into the input at which the problem was found.
    pub at: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for TraceError {}

/// Parses a JSON edit trace (see the module docs for the format).
///
/// # Errors
///
/// Returns a [`TraceError`] on malformed JSON, an unknown `"op"`,
/// missing or mistyped fields, or trailing input after the root object.
pub fn parse_trace(input: &str) -> Result<Vec<Edit>, TraceError> {
    let root = parse_json(input).map_err(|e| TraceError {
        at: e.at,
        message: if e.message == "trailing input after the root value" {
            "trailing input after the trace object".into()
        } else {
            e.message
        },
    })?;
    let Json::Obj(fields) = root else {
        return Err(TraceError {
            at: 0,
            message: "trace root must be an object".into(),
        });
    };
    let edits_val = Json::get(&fields, "edits").ok_or_else(|| TraceError {
        at: 0,
        message: "trace object is missing the \"edits\" array".into(),
    })?;
    let Json::Arr(items) = edits_val else {
        return Err(TraceError {
            at: 0,
            message: "\"edits\" must be an array".into(),
        });
    };
    items
        .iter()
        .enumerate()
        .map(|(i, item)| edit_from(item, i))
        .collect()
}

/// Serializes edits into the trace format accepted by [`parse_trace`].
/// Numbers use Rust's shortest round-trip formatting; non-finite values
/// (legal in [`Edit::SetArrival`] / [`Edit::SetRequired`], where `-∞`
/// disables a role) serialize as the strings `"-inf"` / `"inf"`, which
/// the parser maps back.
pub fn trace_to_json(edits: &[Edit]) -> String {
    let mut out = String::from("{\"edits\": [");
    for (i, e) in edits.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{{\"op\": \"{}\"", e.op_name()));
        match *e {
            Edit::SetArrival { terminal, value } | Edit::SetRequired { terminal, value } => {
                out.push_str(&format!(
                    ", \"terminal\": {}, \"value\": {}",
                    terminal.0,
                    num(value)
                ));
            }
            Edit::SetSinkLoad { terminal, cap } => {
                out.push_str(&format!(
                    ", \"terminal\": {}, \"cap\": {}",
                    terminal.0,
                    num(cap)
                ));
            }
            Edit::MoveTerminal { terminal, x, y } => {
                out.push_str(&format!(
                    ", \"terminal\": {}, \"x\": {}, \"y\": {}",
                    terminal.0,
                    num(x),
                    num(y)
                ));
            }
            Edit::SetWireRc {
                edge,
                res_scale,
                cap_scale,
            } => {
                out.push_str(&format!(
                    ", \"edge\": {}, \"res_scale\": {}, \"cap_scale\": {}",
                    edge.0,
                    num(res_scale),
                    num(cap_scale)
                ));
            }
            Edit::SwapLibrary { scale } => {
                out.push_str(&format!(", \"scale\": {}", num(scale)));
            }
            Edit::Reroot { terminal } => {
                out.push_str(&format!(", \"terminal\": {}", terminal.0));
            }
            Edit::AddTerminal { at, x, y, terminal } => {
                out.push_str(&format!(
                    ", \"at\": {}, \"x\": {}, \"y\": {}, \"arrival\": {}, \
                     \"downstream\": {}, \"cap\": {}, \"drive_res\": {}, \
                     \"drive_intrinsic\": {}",
                    at.0,
                    num(x),
                    num(y),
                    num(terminal.arrival),
                    num(terminal.downstream),
                    num(terminal.cap),
                    num(terminal.drive_res),
                    num(terminal.drive_intrinsic)
                ));
            }
            Edit::RemoveTerminal { terminal } => {
                out.push_str(&format!(", \"terminal\": {}", terminal.0));
            }
            Edit::AddInsertionPoint { edge, frac } => {
                out.push_str(&format!(", \"edge\": {}, \"frac\": {}", edge.0, num(frac)));
            }
            Edit::RemoveInsertionPoint { vertex } => {
                out.push_str(&format!(", \"vertex\": {}", vertex.0));
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else if x == f64::NEG_INFINITY {
        "\"-inf\"".into()
    } else if x == f64::INFINITY {
        "\"inf\"".into()
    } else {
        "\"nan\"".into()
    }
}

fn edit_from(item: &Json, index: usize) -> Result<Edit, TraceError> {
    let fail = |message: String| TraceError {
        at: 0,
        message: format!("edit #{index}: {message}"),
    };
    let Json::Obj(fields) = item else {
        return Err(fail("must be an object".into()));
    };
    let Some(Json::Str(op)) = Json::get(fields, "op") else {
        return Err(fail("missing string field \"op\"".into()));
    };
    let id = |key: &str| -> Result<usize, TraceError> {
        match Json::get(fields, key) {
            // msrnet-allow: float-eq fract()==0.0 is the exact integrality test for a JSON id
            Some(Json::Num(x)) if *x >= 0.0 && x.fract() == 0.0 && *x <= u32::MAX as f64 => {
                Ok(*x as usize)
            }
            Some(_) => Err(fail(format!("\"{key}\" must be a non-negative integer"))),
            None => Err(fail(format!("missing field \"{key}\""))),
        }
    };
    // Numeric field that may also be the strings "inf"/"-inf"/"nan"
    // (the emitter's encoding for non-finite values).
    let number = |key: &str| -> Result<f64, TraceError> {
        match Json::get(fields, key) {
            Some(Json::Num(x)) => Ok(*x),
            Some(Json::Str(s)) if s == "inf" => Ok(f64::INFINITY),
            Some(Json::Str(s)) if s == "-inf" => Ok(f64::NEG_INFINITY),
            Some(Json::Str(s)) if s == "nan" => Ok(f64::NAN),
            Some(_) => Err(fail(format!("\"{key}\" must be a number"))),
            None => Err(fail(format!("missing field \"{key}\""))),
        }
    };
    match op.as_str() {
        "set_arrival" => Ok(Edit::SetArrival {
            terminal: TerminalId(id("terminal")?),
            value: number("value")?,
        }),
        "set_required" => Ok(Edit::SetRequired {
            terminal: TerminalId(id("terminal")?),
            value: number("value")?,
        }),
        "set_sink_load" => Ok(Edit::SetSinkLoad {
            terminal: TerminalId(id("terminal")?),
            cap: number("cap")?,
        }),
        "move_terminal" => Ok(Edit::MoveTerminal {
            terminal: TerminalId(id("terminal")?),
            x: number("x")?,
            y: number("y")?,
        }),
        "set_wire_rc" => Ok(Edit::SetWireRc {
            edge: EdgeId(id("edge")?),
            res_scale: number("res_scale")?,
            cap_scale: number("cap_scale")?,
        }),
        "swap_library" => Ok(Edit::SwapLibrary {
            scale: number("scale")?,
        }),
        "reroot" => Ok(Edit::Reroot {
            terminal: TerminalId(id("terminal")?),
        }),
        "add_terminal" => Ok(Edit::AddTerminal {
            at: VertexId(id("at")?),
            x: number("x")?,
            y: number("y")?,
            terminal: Terminal::bidirectional(
                number("arrival")?,
                number("downstream")?,
                number("cap")?,
                number("drive_res")?,
            )
            .with_drive_intrinsic(number("drive_intrinsic")?),
        }),
        "remove_terminal" => Ok(Edit::RemoveTerminal {
            terminal: TerminalId(id("terminal")?),
        }),
        "add_insertion_point" => Ok(Edit::AddInsertionPoint {
            edge: EdgeId(id("edge")?),
            frac: number("frac")?,
        }),
        "remove_insertion_point" => Ok(Edit::RemoveInsertionPoint {
            vertex: VertexId(id("vertex")?),
        }),
        other => Err(fail(format!("unknown op \"{other}\""))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ops() -> Vec<Edit> {
        vec![
            Edit::SetArrival {
                terminal: TerminalId(1),
                value: 12.5,
            },
            Edit::SetRequired {
                terminal: TerminalId(2),
                value: f64::NEG_INFINITY,
            },
            Edit::SetSinkLoad {
                terminal: TerminalId(0),
                cap: 0.875,
            },
            Edit::MoveTerminal {
                terminal: TerminalId(3),
                x: -40.25,
                y: 1e3,
            },
            Edit::SetWireRc {
                edge: EdgeId(7),
                res_scale: 2.0,
                cap_scale: 0.5,
            },
            Edit::SwapLibrary { scale: 4.0 },
            Edit::Reroot {
                terminal: TerminalId(2),
            },
            Edit::AddTerminal {
                at: VertexId(4),
                x: 150.5,
                y: -0.25,
                terminal: Terminal::bidirectional(2.0, f64::NEG_INFINITY, 0.055, 181.25)
                    .with_drive_intrinsic(12.5),
            },
            Edit::RemoveTerminal {
                terminal: TerminalId(5),
            },
            Edit::AddInsertionPoint {
                edge: EdgeId(2),
                frac: 0.5,
            },
            Edit::RemoveInsertionPoint {
                vertex: VertexId(6),
            },
        ]
    }

    #[test]
    fn round_trip_preserves_every_op_bitwise() {
        let edits = all_ops();
        let json = trace_to_json(&edits);
        let back = parse_trace(&json).unwrap();
        assert_eq!(edits, back);
    }

    #[test]
    fn empty_trace_round_trips() {
        assert_eq!(parse_trace("{\"edits\": []}").unwrap(), vec![]);
        assert_eq!(trace_to_json(&[]), "{\"edits\": []}");
    }

    #[test]
    fn field_order_and_whitespace_are_flexible() {
        let json = "{ \"edits\" : [ { \"value\" : 3 ,\n \"terminal\": 0, \"op\": \"set_arrival\" } ] }";
        assert_eq!(
            parse_trace(json).unwrap(),
            vec![Edit::SetArrival {
                terminal: TerminalId(0),
                value: 3.0
            }]
        );
    }

    #[test]
    fn malformed_inputs_fail_with_positions() {
        for (input, needle) in [
            ("", "unexpected end"),
            ("[1, 2]", "must be an object"),
            ("{\"edits\": 3}", "must be an array"),
            ("{}", "missing the \"edits\""),
            ("{\"edits\": [{}]}", "missing string field \"op\""),
            ("{\"edits\": [{\"op\": \"explode\"}]}", "unknown op"),
            (
                "{\"edits\": [{\"op\": \"set_arrival\", \"terminal\": 0}]}",
                "missing field \"value\"",
            ),
            (
                "{\"edits\": [{\"op\": \"set_arrival\", \"terminal\": 1.5, \"value\": 0}]}",
                "non-negative integer",
            ),
            (
                "{\"edits\": [{\"op\": \"set_arrival\", \"terminal\": -1, \"value\": 0}]}",
                "non-negative integer",
            ),
            (
                "{\"edits\": [{\"op\": \"add_terminal\", \"at\": 1, \"x\": 0, \"y\": 0}]}",
                "missing field \"arrival\"",
            ),
            (
                "{\"edits\": [{\"op\": \"add_insertion_point\", \"edge\": 0, \"frac\": \"half\"}]}",
                "\"frac\" must be a number",
            ),
            (
                "{\"edits\": [{\"op\": \"remove_insertion_point\", \"vertex\": 2.5}]}",
                "non-negative integer",
            ),
            ("{\"edits\": []} trailing", "trailing input"),
            ("{\"edits\": [", "unexpected end"),
            ("{\"edits\": [{\"op\": \"reroot\" \"terminal\": 1}]}", "expected ','"),
            ("{\"edits\": [{\"op\": \"reroot\", \"terminal\": 1e}]}", "invalid number"),
        ] {
            let err = parse_trace(input).unwrap_err();
            assert!(
                err.message.contains(needle),
                "for {input:?}: got {:?}, wanted substring {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn string_escapes_are_decoded() {
        // Escapes only appear in keys/ops for this format, but the
        // parser handles them uniformly.
        let edits =
            parse_trace("{\"edits\": [{\"op\": \"re\\u0072oot\", \"terminal\": 1}]}").unwrap();
        assert_eq!(edits, vec![Edit::Reroot { terminal: TerminalId(1) }]);
        let err = parse_trace("{\"edits\": [{\"op\": \"set\\x41\"}]}").unwrap_err();
        assert!(err.message.contains("unsupported escape"));
    }
}
