//! Minimal argument parsing (no external CLI crate): `--key value` pairs,
//! `--flag` booleans, a positional subcommand, and trailing positional
//! operands (e.g. `aero wal verify <dir>`).

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
    /// Non-flag arguments after the subcommand, in order.
    positionals: Vec<String>,
}

impl Args {
    /// Parses from an iterator of raw arguments (excluding the binary name).
    pub fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if let Some(key) = arg.strip_prefix("--") {
                // A value follows unless the next token is another option or
                // the end of input → boolean flag.
                match raw.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = raw.next().expect("peeked");
                        if out.options.insert(key.to_string(), value).is_some() {
                            return Err(format!("duplicate option --{key}"));
                        }
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else {
                out.positionals.push(arg);
            }
        }
        Ok(out)
    }

    /// Parses the process arguments.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// String option. A key read for a value that arrived as a bare flag
    /// (`--level` with nothing after it) is an error, never a silent default.
    pub fn get(&self, key: &str) -> Result<Option<&str>, String> {
        if self.flag(key) {
            return Err(format!("--{key} requires a value"));
        }
        Ok(self.options.get(key).map(String::as_str))
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)?.ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Parsed optional option.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)?
            .map(|v| v.parse().map_err(|_| format!("invalid value for --{key}: {v}")))
            .transpose()
    }

    /// Parsed option with default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// Boolean flag (present / absent).
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The `i`-th positional operand after the subcommand.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn parses_subcommand_options_and_flags() {
        let a = parse("detect --data ./d --method aero --paper");
        assert_eq!(a.command.as_deref(), Some("detect"));
        assert_eq!(a.get("data").unwrap(), Some("./d"));
        assert_eq!(a.get("method").unwrap(), Some("aero"));
        assert!(a.flag("paper"));
        assert!(!a.flag("fast"));
    }

    #[test]
    fn numeric_options_parse_with_defaults() {
        let a = parse("generate --seed 42");
        assert_eq!(a.get_parsed("seed", 0u64).unwrap(), 42);
        assert_eq!(a.get_parsed("epochs", 7usize).unwrap(), 7);
        assert!(a.get_parsed::<u64>("seed", 0).is_ok());
    }

    #[test]
    fn rejects_duplicates_and_collects_positionals() {
        assert!(Args::parse("a --x 1 --x 2".split_whitespace().map(String::from)).is_err());
        let a = parse("wal verify /tmp/shard-0000");
        assert_eq!(a.command.as_deref(), Some("wal"));
        assert_eq!(a.positional(0), Some("verify"));
        assert_eq!(a.positional(1), Some("/tmp/shard-0000"));
        assert_eq!(a.positional(2), None);
    }

    #[test]
    fn trailing_flag_is_boolean() {
        let a = parse("run --verbose");
        assert!(a.flag("verbose"));
    }

    #[test]
    fn bare_value_flags_are_errors() {
        let a = parse("stream --data ./d --level --wal");
        for err in [
            a.get("wal").unwrap_err(),
            a.require("wal").unwrap_err(),
            a.get_parsed("level", 0.99f64).unwrap_err(),
            a.parsed::<u64>("level").unwrap_err(),
        ] {
            assert!(err.ends_with("requires a value"), "{err}");
        }
        assert_eq!(a.get("wal").unwrap_err(), "--wal requires a value");
        // Keys never read for a value stay plain flags; absent keys default.
        assert!(a.flag("level"));
        assert_eq!(a.get("data").unwrap(), Some("./d"));
        assert_eq!(a.get("q").unwrap(), None);
        assert_eq!(a.get_parsed("q", 1e-3f64).unwrap(), 1e-3);
    }

    #[test]
    fn parsed_options_report_bad_values() {
        let a = parse("stream --burst 23 --faults seven");
        assert_eq!(a.parsed::<u64>("burst").unwrap(), Some(23));
        assert_eq!(a.parsed::<u64>("shards").unwrap(), None);
        assert_eq!(a.parsed::<u64>("faults").unwrap_err(), "invalid value for --faults: seven");
    }

    #[test]
    fn missing_required_reports_key() {
        let a = parse("detect");
        let err = a.require("data").unwrap_err();
        assert!(err.contains("--data"));
    }
}
