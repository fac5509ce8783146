//! Reading back the text `{:?}` prints for a flat struct.
//!
//! Kernel cache keys flatten a [`GpuDevice`](crate::GpuDevice) and the
//! search options through their derived `Debug` text, and the cache's
//! on-disk form stores those keys verbatim. Rebuilding a generator from a
//! stored key needs the inverse; [`DebugStruct`] is the one reader all of
//! those types share.

use std::str::FromStr;

/// Parses one named value.
///
/// # Errors
///
/// A one-line reason naming `field` when `raw` does not parse as `T`.
pub fn parse_value<T: FromStr>(field: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{field}: cannot parse {raw:?}"))
}

/// The fields of `Name { field: value, .. }`, where each value is a
/// scalar, a quoted string or a `[a, b]` list. Callers pick fields out
/// by name and rebuild the value; comparing its `{:?}` text against the
/// input is what proves the reading right.
pub struct DebugStruct<'a> {
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> DebugStruct<'a> {
    /// Splits `text` into its fields, checking the struct name.
    ///
    /// # Errors
    ///
    /// A one-line reason when `text` is not `name { field: value, .. }`.
    pub fn parse(text: &'a str, name: &str) -> Result<Self, String> {
        let body = text
            .strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(" { "))
            .and_then(|rest| rest.strip_suffix(" }"))
            .ok_or_else(|| format!("expected `{name} {{ .. }}`, got {text:?}"))?;
        // Split at the commas outside quotes and brackets.
        let mut pieces = Vec::new();
        let (mut start, mut depth, mut quoted, mut escaped) = (0, 0usize, false, false);
        for (i, c) in body.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' if quoted => escaped = true,
                '"' => quoted = !quoted,
                '[' if !quoted => depth += 1,
                ']' if !quoted => depth = depth.saturating_sub(1),
                ',' if !quoted && depth == 0 => {
                    pieces.push(&body[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        pieces.push(&body[start..]);
        let fields = pieces
            .into_iter()
            .map(|piece| {
                piece
                    .trim_start()
                    .split_once(": ")
                    .ok_or_else(|| format!("{name}: {piece:?} is not `field: value`"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { fields })
    }

    fn raw(&self, field: &str) -> Result<&'a str, String> {
        self.fields
            .iter()
            .find(|(name, _)| *name == field)
            .map(|(_, value)| *value)
            .ok_or_else(|| format!("missing field {field:?}"))
    }

    /// A scalar field.
    ///
    /// # Errors
    ///
    /// When the field is missing or does not parse as `T`.
    pub fn get<T: FromStr>(&self, field: &str) -> Result<T, String> {
        parse_value(field, self.raw(field)?)
    }

    /// A `[a, b, ..]` list field.
    ///
    /// # Errors
    ///
    /// When the field is missing, not a list, or an item does not parse.
    pub fn list<T: FromStr>(&self, field: &str) -> Result<Vec<T>, String> {
        let raw = self.raw(field)?;
        let items = raw
            .strip_prefix('[')
            .and_then(|rest| rest.strip_suffix(']'))
            .ok_or_else(|| format!("{field}: {raw:?} is not a list"))?;
        items
            .split(", ")
            .filter(|item| !item.is_empty())
            .map(|item| parse_value(field, item))
            .collect()
    }

    /// A quoted string field, reading the `\"` and `\\` escapes. Names
    /// with other escaped characters read back wrong, and their `{:?}`
    /// text then no longer matches.
    ///
    /// # Errors
    ///
    /// When the field is missing or not quoted.
    pub fn string(&self, field: &str) -> Result<String, String> {
        let raw = self.raw(field)?;
        raw.strip_prefix('"')
            .and_then(|rest| rest.strip_suffix('"'))
            .map(|inner| inner.replace("\\\"", "\"").replace("\\\\", "\\"))
            .ok_or_else(|| format!("{field}: {raw:?} is not a quoted string"))
    }
}
