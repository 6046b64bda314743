//! A minimal command-line parser for the AudioFile clients.
//!
//! The paper's clients use single-dash long options (`-silentlevel -60`);
//! this parser follows that convention: any token starting with `-` (and
//! not parseable as a number) is an option, consuming one value unless it
//! is registered as a flag; everything else is positional.

use std::collections::{HashMap, HashSet};

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    options: HashMap<String, String>,
    flags: HashSet<String>,
    positional: Vec<String>,
    program: String,
}

impl Args {
    /// Parses `argv`, treating every name in `flag_names` as a valueless
    /// flag.  Returns an error message for an option missing its value.
    pub fn parse<I: IntoIterator<Item = String>>(
        argv: I,
        flag_names: &[&str],
    ) -> Result<Args, String> {
        Self::parse_inner(argv, flag_names, None)
    }

    /// [`Args::parse`] for programs that know every option they take: a
    /// `-name` that is neither in `flag_names` nor in `option_names` is an
    /// error instead of an option that swallows the next token.
    pub fn parse_known<I: IntoIterator<Item = String>>(
        argv: I,
        flag_names: &[&str],
        option_names: &[&str],
    ) -> Result<Args, String> {
        Self::parse_inner(argv, flag_names, Some(option_names))
    }

    fn parse_inner<I: IntoIterator<Item = String>>(
        argv: I,
        flag_names: &[&str],
        option_names: Option<&[&str]>,
    ) -> Result<Args, String> {
        let mut it = argv.into_iter();
        let program = it.next().unwrap_or_default();
        let flags_set: HashSet<&str> = flag_names.iter().copied().collect();
        let mut args = Args {
            program,
            ..Args::default()
        };
        let mut pending: Option<String> = None;
        for tok in it {
            if let Some(name) = pending.take() {
                args.options.insert(name, tok);
                continue;
            }
            let is_option = tok.starts_with('-') && tok.len() > 1 && tok.parse::<f64>().is_err();
            if is_option {
                if flags_set.contains(tok.as_str()) {
                    args.flags.insert(tok);
                } else if option_names.is_some_and(|known| !known.contains(&tok.as_str())) {
                    return Err(format!("unknown option {tok}"));
                } else {
                    pending = Some(tok);
                }
            } else {
                args.positional.push(tok);
            }
        }
        if let Some(name) = pending {
            return Err(format!("option {name} is missing its value"));
        }
        Ok(args)
    }

    /// Parses the process's own arguments.
    pub fn from_env(flag_names: &[&str]) -> Result<Args, String> {
        Self::parse(std::env::args(), flag_names)
    }

    /// The program name (argv\[0\]).
    pub fn program(&self) -> &str {
        &self.program
    }

    /// String value of an option.
    pub fn get_str(&self, name: &str) -> Option<String> {
        self.options.get(name).cloned()
    }

    /// Parsed numeric value of an option.
    pub fn get_num<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.options.get(name).and_then(|v| v.parse().ok())
    }

    /// Numeric value with a default.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get_num(name).unwrap_or(default)
    }

    /// Whether a flag was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        std::iter::once("prog".to_string())
            .chain(s.split_whitespace().map(String::from))
            .collect()
    }

    #[test]
    fn options_flags_positionals() {
        let a = Args::parse(argv("-d 2 -f -t 0.5 sound.au"), &["-f"]).unwrap();
        assert_eq!(a.get_str("-d").as_deref(), Some("2"));
        assert!(a.has_flag("-f"));
        assert_eq!(a.get_num::<f64>("-t"), Some(0.5));
        assert_eq!(a.positional(), &["sound.au".to_string()]);
        assert_eq!(a.program(), "prog");
    }

    #[test]
    fn negative_numbers_are_values_not_options() {
        let a = Args::parse(argv("-silentlevel -60 -t -2.5"), &[]).unwrap();
        assert_eq!(a.get_num::<f64>("-silentlevel"), Some(-60.0));
        assert_eq!(a.get_num::<f64>("-t"), Some(-2.5));
    }

    #[test]
    fn unknown_names_are_errors_when_the_options_are_known() {
        let known = |s: &str| Args::parse_known(argv(s), &["-f"], &["-d"]);
        let a = known("-d 2 -f file").unwrap();
        assert_eq!(a.get_str("-d").as_deref(), Some("2"));
        assert!(a.has_flag("-f"));
        // Not an option that swallows `-d` as its value.
        assert_eq!(known("-g -d 2").unwrap_err(), "unknown option -g");
        assert_eq!(known("-d 2 -typo").unwrap_err(), "unknown option -typo");
        // A value may still look like an option.
        assert_eq!(known("-d -g").unwrap().get_str("-d").as_deref(), Some("-g"));
    }

    #[test]
    fn missing_value_is_error() {
        assert!(Args::parse(argv("-d"), &[]).is_err());
    }

    #[test]
    fn defaults() {
        let a = Args::parse(argv(""), &[]).unwrap();
        assert_eq!(a.num_or("-g", 0i32), 0);
        assert!(!a.has_flag("-f"));
        assert!(a.positional().is_empty());
    }
}
