//! Minimal argument parsing for the `deepdirect` CLI (no external parser
//! dependency; flags are `--key value` pairs after a subcommand, plus
//! single-dash boolean short flags such as `-v`).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand, positional arguments, and flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` flags (key stored without the dashes). Bare `--key`
    /// flags get the value `"true"`, as do short `-x` flags (stored under
    /// their single letter; `-vq` sets both `v` and `q`).
    pub flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses an iterator of tokens (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty flag name".into());
                }
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().unwrap(),
                    _ => "true".to_string(),
                };
                out.flags.insert(key.to_string(), value);
            } else if tok.len() >= 2
                && tok.starts_with('-')
                && tok[1..].chars().all(|c| c.is_ascii_alphabetic())
            {
                // Short boolean flags; never consume a value, so negative
                // numbers (`--alpha -1`) stay flag values above and bare
                // `-1` stays positional below.
                for c in tok[1..].chars() {
                    out.flags.insert(c.to_string(), "true".to_string());
                }
            } else if out.command.is_empty() {
                out.command = tok;
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// String flag with default.
    pub fn get(&self, key: &str, default: &str) -> String {
        self.flags.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Parsed numeric flag with default.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("flag --{key}: cannot parse '{v}'")),
        }
    }

    /// Boolean flag (present = true).
    pub fn get_bool(&self, key: &str) -> bool {
        self.flags.get(key).map(|v| v != "false").unwrap_or(false)
    }

    /// Required positional argument by index.
    pub fn positional(&self, index: usize, name: &str) -> Result<&str, String> {
        self.positional
            .get(index)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required argument <{name}>"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_command_positionals_and_flags() {
        let a = parse(&["train", "net.edges", "--dim", "64", "--out", "model.ddm"]);
        assert_eq!(a.command, "train");
        assert_eq!(a.positional(0, "input").unwrap(), "net.edges");
        assert_eq!(a.get("out", ""), "model.ddm");
        assert_eq!(a.get_num::<usize>("dim", 128).unwrap(), 64);
    }

    #[test]
    fn bare_flags_are_boolean() {
        let a = parse(&["train", "x", "--parallel", "--dim", "32"]);
        assert!(a.get_bool("parallel"));
        assert!(!a.get_bool("absent"));
        assert_eq!(a.get_num::<usize>("dim", 0).unwrap(), 32);
    }

    #[test]
    fn short_flags_are_boolean_and_bundle() {
        let a = parse(&["train", "net.edges", "-v", "--dim", "16"]);
        assert!(a.get_bool("v"));
        assert_eq!(a.positional(0, "input").unwrap(), "net.edges");
        assert_eq!(a.get_num::<usize>("dim", 0).unwrap(), 16);
        let a = parse(&["train", "-vq"]);
        assert!(a.get_bool("v") && a.get_bool("q"));
        // Negative numbers are not short flags.
        let a = parse(&["train", "--alpha", "-1", "-2"]);
        assert_eq!(a.get("alpha", ""), "-1");
        assert_eq!(a.positional(0, "x").unwrap(), "-2");
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["predict"]);
        assert_eq!(a.get("out", "default.json"), "default.json");
        assert_eq!(a.get_num::<f32>("alpha", 5.0).unwrap(), 5.0);
        assert!(a.positional(0, "input").is_err());
    }

    #[test]
    fn bad_numbers_error() {
        let a = parse(&["train", "--dim", "abc"]);
        assert!(a.get_num::<usize>("dim", 1).is_err());
    }
}
