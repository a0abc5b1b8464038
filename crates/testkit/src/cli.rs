//! Unified command-line parsing: the only code in the workspace that
//! reads the command line.
//!
//! Every in-tree binary declares its grammar and calls [`parse_or_exit`]
//! as its first statement:
//!
//! * `--quick` — always accepted: shrink the workload to a seconds-scale
//!   smoke run;
//! * declared flags, each written as it appears in the usage line:
//!   `--smoke` is boolean, `--port N` takes an unsigned integer, and any
//!   other placeholder (`--out FILE`) takes text;
//! * positional words, collected in order. The declared forms
//!   (`validate FILE`, `gen DIR [COUNT]`) only feed the usage line: a
//!   binary matches [`Parsed::words`] against its own slice patterns and
//!   calls [`Parsed::only`] to refuse the flags its chosen form does not
//!   use. A binary that declares no forms takes no words.
//!
//! Unknown flags, missing values, values that start with `--`,
//! non-numeric values, stray words and flags that do not apply to the
//! chosen form are errors, as are numbers too large for the type a
//! binary reads them as. Every error prints the usage line and exits with
//! status 2, so a typo can never be silently ignored.

/// The result of parsing a binary's arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parsed {
    /// `--quick` was given.
    pub quick: bool,
    words: Vec<String>,
    given: Vec<(String, String)>,
    bin: String,
    usage: String,
}

impl Parsed {
    /// The positional words, in command-line order.
    pub fn words(&self) -> Vec<&str> {
        self.words.iter().map(String::as_str).collect()
    }

    /// Rejects every given flag not in `allowed` (`--quick` included): how
    /// a binary with several forms refuses a flag its chosen form ignores.
    pub fn only(&self, allowed: &[&str]) {
        let quick = self.quick.then_some("--quick");
        let given = quick.into_iter().chain(self.given.iter().map(|(n, _)| n.as_str()));
        if let Some(flag) = given.into_iter().find(|f| !allowed.contains(f)) {
            self.reject(&format!("`{flag}` does not apply here"));
        }
    }

    /// Whether the declared boolean flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The value of the declared text flag `name`, if given.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.given.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn lookup<T: TryFrom<u64>>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(v) = self.text(name) else { return Ok(None) };
        let n: u64 = v.parse().map_err(|_| format!("`{name}` needs a number, got {v:?}"))?;
        T::try_from(n).map(Some).map_err(|_| format!("`{name}` value {n} is out of range"))
    }

    /// The value of the declared numeric flag `name` as a `T`, if given.
    /// A value that does not fit `T` is rejected like any bad argument.
    pub fn get<T: TryFrom<u64>>(&self, name: &str) -> Option<T> {
        self.lookup(name).unwrap_or_else(|e| self.reject(&e))
    }

    /// [`Parsed::get`] with a default.
    pub fn value_or<T: TryFrom<u64>>(&self, name: &str, default: T) -> T {
        self.get(name).unwrap_or(default)
    }

    /// Prints `message` and the usage line to stderr and exits with
    /// status 2: how every binary rejects a bad argument.
    pub fn reject(&self, message: &str) -> ! {
        exit_usage(&self.bin, &self.usage, message)
    }
}

fn exit_usage(bin: &str, usage: &str, message: &str) -> ! {
    eprintln!("{bin}: {message}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Parses `args` (program name already stripped) against the declared
/// `flags` of binary `bin`; `forms` only feed the usage line. A value flag
/// given twice keeps its last value.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values,
/// values that start with `--`, numeric flags whose value does not parse
/// as `u64`, and words given to a binary that declares no forms.
pub fn parse_args(
    bin: &str,
    args: &[String],
    flags: &[&str],
    forms: &[&str],
) -> Result<Parsed, String> {
    let mut out =
        Parsed { bin: bin.to_owned(), usage: usage(bin, flags, forms), ..Parsed::default() };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--quick" {
            out.quick = true;
        } else if arg.starts_with("--") {
            let decl = flags
                .iter()
                .find(|f| f.split(' ').next() == Some(arg.as_str()))
                .ok_or_else(|| format!("unknown argument {arg:?}"))?;
            let value = match decl.split_once(' ') {
                None => String::new(),
                Some((_, meta)) => {
                    let v = rest
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("`{arg}` needs a value ({meta})"))?;
                    if meta == "N" && v.parse::<u64>().is_err() {
                        return Err(format!("`{arg}` needs a number, got {v:?}"));
                    }
                    v.clone()
                }
            };
            out.given.retain(|(n, _)| n != arg);
            out.given.push((arg.clone(), value));
        } else {
            out.words.push(arg.clone());
        }
    }
    if forms.is_empty() && !out.words.is_empty() {
        return Err(format!("unexpected arguments {:?}", out.words.join(" ")));
    }
    Ok(out)
}

/// The usage line [`parse_or_exit`] prints: `usage: <bin> [--quick]`
/// plus every declared flag and form.
pub fn usage(bin: &str, flags: &[&str], forms: &[&str]) -> String {
    let flags: String = flags.iter().map(|f| format!(" [{f}]")).collect();
    let forms = if forms.is_empty() { String::new() } else { format!(" [{}]", forms.join(" | ")) };
    format!("usage: {bin} [--quick]{flags}{forms}")
}

/// [`parse_args`] over the real command line; prints the error and the
/// usage line to stderr and exits with status 2 on invalid arguments.
pub fn parse_or_exit(bin: &str, flags: &[&str], forms: &[&str]) -> Parsed {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args(bin, &args, flags, forms)
        .unwrap_or_else(|e| exit_usage(bin, &usage(bin, flags, forms), &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str], flags: &[&str], forms: &[&str]) -> Result<Parsed, String> {
        let args: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        parse_args("t", &args, flags, forms)
    }

    #[test]
    fn quick_is_always_accepted() {
        assert!(parse(&["--quick"], &[], &[]).unwrap().quick);
        assert!(!parse(&[], &[], &[]).unwrap().quick);
    }

    #[test]
    fn bool_value_and_text_flags_parse() {
        let flags = ["--smoke", "--port N", "--out FILE"];
        let p = parse(&["--smoke", "--port", "8080", "--out", "a.json", "--quick"], &flags, &[])
            .unwrap();
        assert!(p.quick && p.flag("--smoke"));
        assert_eq!(p.get::<u64>("--port"), Some(8080));
        assert_eq!(p.value_or("--conns", 4u64), 4);
        assert_eq!(p.text("--out"), Some("a.json"));
    }

    #[test]
    fn last_value_wins() {
        let p = parse(&["--port", "1", "--port", "2"], &["--port N"], &[]).unwrap();
        assert_eq!(p.get::<u64>("--port"), Some(2));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--typo"], &[], &[]).is_err());
        assert!(parse(&["--port"], &["--port N"], &[]).is_err());
        assert!(parse(&["--port", "lots"], &["--port N"], &[]).is_err());
        assert!(parse(&["--smoke"], &[], &[]).is_err(), "undeclared bool flag");
        assert!(parse(&["stray"], &[], &[]).is_err(), "undeclared word");
    }

    #[test]
    fn a_value_flag_does_not_swallow_the_next_flag() {
        let flags = ["--out FILE", "--bug CLASS"];
        assert!(parse(&["--out", "--quick"], &flags, &[]).is_err());
        assert!(parse(&["--bug", "--out", "x"], &flags, &[]).is_err());
    }

    #[test]
    fn numbers_too_large_for_the_read_type_are_errors() {
        let p = parse(
            &["--samples", "5000000000", "--port", "70000"],
            &["--samples N", "--port N"],
            &[],
        )
        .unwrap();
        assert!(p.lookup::<u32>("--samples").is_err());
        assert_eq!(p.lookup::<u64>("--samples"), Ok(Some(5_000_000_000)));
        assert!(p.lookup::<u16>("--port").is_err());
        assert_eq!(p.lookup::<u32>("--port"), Ok(Some(70_000)));
    }

    #[test]
    fn words_are_collected_in_order() {
        let p = parse(&["validate", "--quick", "t.json"], &[], &["validate FILE"]).unwrap();
        assert_eq!(p.words(), ["validate", "t.json"]);
        assert!(p.quick);
    }

    #[test]
    fn usage_lists_every_flag_and_form() {
        let u = usage("loadgen", &["--smoke", "--port N", "--conns N"], &[]);
        assert_eq!(u, "usage: loadgen [--quick] [--smoke] [--port N] [--conns N]");
        let u = usage("l15-trace", &["--out FILE"], &["capture", "validate FILE"]);
        assert_eq!(u, "usage: l15-trace [--quick] [--out FILE] [capture | validate FILE]");
    }
}
