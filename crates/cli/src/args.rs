//! A minimal `--flag value` argument parser (the workspace's dependency
//! policy keeps `clap` out; see DESIGN.md).

use std::collections::BTreeMap;

/// Parsed command line: one subcommand plus `--key value` / `--switch`
/// options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pub command: String,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding the program name).
    ///
    /// Grammar: `<command> (--key value | --switch)*`. A `--key` followed by
    /// another `--…` token or end of input is a switch.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut it = argv.into_iter().peekable();
        let command = it.next().ok_or("missing subcommand")?;
        if command.starts_with("--") {
            return Err(format!("expected subcommand, got option {command}"));
        }
        let mut args = Args {
            command,
            ..Default::default()
        };
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {tok}"))?
                .to_string();
            if key.is_empty() {
                return Err("empty option name".into());
            }
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = it.next().unwrap();
                    args.options.insert(key, value);
                }
                _ => args.switches.push(key),
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Typed option with default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    /// Optional typed option: `Ok(None)` when absent, `Err` when present but
    /// unparseable (for flags like `--deadline-ms` whose absence means
    /// "feature off" rather than a default value).
    pub fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    /// Boolean switch.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Reject the first option or switch not named in `known`: a typo'd
    /// flag fails by name instead of running the command without it.
    pub(crate) fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .keys()
            .chain(&self.switches)
            .find(|k| !known.contains(&k.as_str()))
        {
            Some(k) => Err(format!("unknown option --{k} for {}", self.command)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn full_grammar() {
        let a = parse("train --data d.json --steps 100 --verbose --lr 0.01").unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get("data"), Some("d.json"));
        assert_eq!(a.get_or::<usize>("steps", 0).unwrap(), 100);
        assert_eq!(a.get_or::<f32>("lr", 0.0).unwrap(), 0.01);
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse("eval --model m.json").unwrap();
        assert_eq!(a.get_or::<usize>("batch", 512).unwrap(), 512);
        assert!(a.require("model").is_ok());
        assert!(a.require("data").is_err());
    }

    #[test]
    fn optional_typed_option() {
        let a = parse("serve --deadline-ms 5").unwrap();
        assert_eq!(a.get_opt::<f64>("deadline-ms").unwrap(), Some(5.0));
        assert_eq!(a.get_opt::<usize>("queue-cap").unwrap(), None);
        assert!(parse("serve --deadline-ms soon")
            .unwrap()
            .get_opt::<f64>("deadline-ms")
            .is_err());
    }

    #[test]
    fn trailing_switch() {
        let a = parse("prune --retrain").unwrap();
        assert!(a.has("retrain"));
    }

    #[test]
    fn rejects_option_first() {
        assert!(parse("--data d.json").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn unknown_options_are_named() {
        let a = parse("serve --data d.json --pace --watchdg-ms 50").unwrap();
        assert!(a
            .only(&["data", "pace", "watchdog-ms"])
            .unwrap_err()
            .contains("--watchdg-ms"));
        let err = a.only(&["data", "watchdg-ms"]).unwrap_err();
        assert!(err.contains("--pace"), "switches are checked too: {err}");
        assert!(a.only(&["data", "pace", "watchdg-ms"]).is_ok());
    }

    #[test]
    fn invalid_number_reported() {
        let a = parse("train --steps abc").unwrap();
        assert!(a.get_or::<usize>("steps", 1).is_err());
    }
}
