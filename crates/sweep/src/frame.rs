//! The one document framing both run kinds share.
//!
//! A merged document is a *head* — the fields before `results`, e.g.
//! `{"sweep", "points"}` for a [`crate::SweepRun`] or
//! `{"artifact", "grid", "points"}` for a [`crate::GridRun`] — followed
//! by the `results` array. Concatenating [`prologue`] + [`fragment`] for
//! every result in order + [`DOCUMENT_EPILOGUE`] is byte-identical to
//! the pretty-printed [`document`] plus its trailing newline. That
//! contract is what lets the HTTP service stream a run without
//! buffering it, resume a job stream from any fragment offset, and lets
//! a worker fleet merge shards by concatenation.

use cqla_core::json::Json;

/// The merged document: the head fields, then the `results` array.
#[must_use]
pub fn document(head: Vec<(&'static str, Json)>, results: Vec<Json>) -> Json {
    Json::obj(head.into_iter().chain([("results", Json::Arr(results))]))
}

/// The streamed document's head: everything up to and including the
/// opening bracket of the `results` array.
#[must_use]
pub fn prologue(head: Vec<(&'static str, Json)>) -> String {
    let head = Json::obj(head).to_pretty();
    let head = head
        .strip_suffix("\n}")
        .expect("pretty object ends with a closing brace");
    format!("{head},\n  \"results\": [")
}

/// One result's streamed fragment: the separator (for every result
/// after the first) plus the `results` entry re-indented to its depth
/// inside the array. The re-indent is a plain string substitution on
/// newlines, which is exact because the JSON printer never emits a
/// literal newline inside a string (control characters are escaped).
#[must_use]
pub fn fragment(index: usize, result: &Json) -> String {
    let pretty = result.to_pretty().replace('\n', "\n    ");
    let sep = if index == 0 { "" } else { "," };
    format!("{sep}\n    {pretty}")
}

/// The streamed document's tail: closes the `results` array and the
/// document, with the trailing newline every CLI/HTTP body carries.
pub const DOCUMENT_EPILOGUE: &str = "\n  ]\n}\n";
