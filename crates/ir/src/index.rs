//! Index names.

use std::borrow::Borrow;
use std::fmt;

/// The name of a tensor index (loop variable), e.g. `a` or `h3`.
///
/// Index names are short strings. Single-letter names are what the TCCG
/// string notation uses; multi-character names (such as NWChem's `h3`/`p6`)
/// are supported by the explicit bracket notation.
///
/// # Examples
///
/// ```
/// use cogent_ir::IndexName;
///
/// let a = IndexName::new("a");
/// assert_eq!(a.as_str(), "a");
/// assert_eq!(a.to_string(), "a");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexName(Box<str>);

impl IndexName {
    /// Creates an index name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains characters other than ASCII
    /// alphanumerics and `_`. Use [`IndexName::try_new`] for a fallible
    /// variant.
    pub fn new(name: impl AsRef<str>) -> Self {
        Self::try_new(name.as_ref())
            .unwrap_or_else(|| panic!("invalid index name: {:?}", name.as_ref()))
    }

    /// Creates an index name, returning `None` when `name` is empty or
    /// contains characters other than ASCII alphanumerics and `_`.
    pub fn try_new(name: &str) -> Option<Self> {
        let valid = !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic());
        valid.then(|| Self(name.into()))
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for IndexName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<char> for IndexName {
    fn from(c: char) -> Self {
        Self::new(c.to_string())
    }
}

impl From<&str> for IndexName {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl Borrow<str> for IndexName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for IndexName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_letter() {
        let a = IndexName::new("a");
        assert_eq!(a.as_str(), "a");
    }

    #[test]
    fn multi_char() {
        let h3 = IndexName::new("h3");
        assert_eq!(h3.as_str(), "h3");
        assert_eq!(format!("{h3}"), "h3");
    }

    #[test]
    fn from_char() {
        assert_eq!(IndexName::from('q').as_str(), "q");
    }

    #[test]
    fn rejects_empty() {
        assert!(IndexName::try_new("").is_none());
    }

    #[test]
    fn rejects_punctuation() {
        assert!(IndexName::try_new("a-b").is_none());
        assert!(IndexName::try_new("a b").is_none());
        assert!(IndexName::try_new("[x]").is_none());
    }

    #[test]
    fn rejects_leading_digit() {
        assert!(IndexName::try_new("3h").is_none());
    }

    #[test]
    fn accepts_underscore() {
        assert!(IndexName::try_new("p_6").is_some());
    }

    #[test]
    #[should_panic(expected = "invalid index name")]
    fn new_panics_on_invalid() {
        let _ = IndexName::new("");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [
            IndexName::new("c"),
            IndexName::new("a"),
            IndexName::new("b"),
        ];
        v.sort();
        let names: Vec<_> = v.iter().map(IndexName::as_str).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn borrow_str_lookup() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(IndexName::new("a"));
        assert!(set.contains("a"));
    }
}
