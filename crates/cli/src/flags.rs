//! The `--flag value` grammar behind every `dimboost` subcommand.
//!
//! A subcommand describes its flags by *reading* them: a function over
//! [`Flags`] calls one reader per flag — giving the flag as the synopsis
//! shows it (`--name PLACEHOLDER`, or `--name` for a switch), whether it is
//! required or repeatable, and its domain — and puts what the reader
//! returns into the field it belongs to. That function is the subcommand's
//! flag table. [`parse`] runs it twice: over no arguments, to learn the
//! table ([`table`]), then over the arguments walked against that table.
//! [`synopsis`] renders the same table, so a flag cannot be parsed without
//! being documented, or the reverse.
//!
//! Only `--flag value` pairs and bare `--switch`es are understood, and a
//! later occurrence of a flag that is not repeatable overrides an earlier one.

use std::str::FromStr;

/// A declared value domain: the predicate a numeric flag's value must
/// satisfy, and how to say so. NaN fails every one.
pub type Domain = (fn(f64) -> bool, &'static str);
pub const POSITIVE: Domain = (|x| x > 0.0, "must be positive");
pub const NON_NEGATIVE: Domain = (|x| x >= 0.0, "must not be negative");
pub const FINITE: Domain = (f64::is_finite, "must be finite");
pub const UNIT_INTERVAL: Domain = (|x| (0.0..1.0).contains(&x), "must be in [0, 1)");
/// No declared domain (paths, seeds, values the engines validate themselves).
pub const ANY: &[Domain] = &[];

/// How often a flag may or must be given.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Need {
    Optional,
    Required,
    /// Required, and every occurrence counts.
    Repeated,
}

/// One row of a flag table: what the argument walk and the synopsis need
/// to know about a flag.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Value placeholder shown in the synopsis; `None` marks a switch.
    pub value: Option<&'static str>,
    pub need: Need,
}

/// The flags of one invocation, handed to the subcommand's table function.
#[derive(Default)]
pub struct Flags<'a> {
    /// Every flag read so far: the table.
    specs: Vec<Spec>,
    /// `(flag, value)` in command-line order; a switch's value is `""`.
    given: Vec<(&'a str, &'a str)>,
    /// The first usage error a reader met. Readers keep returning fallback
    /// values after it; [`parse`] discards them.
    error: Option<String>,
}

impl Flags<'_> {
    /// Declares `flag` — written as the synopsis shows it, `--name` or
    /// `--name PLACEHOLDER` — and parses every value given for it.
    fn read<T: FromStr>(&mut self, flag: &'static str, need: Need, domains: &[Domain]) -> Vec<T> {
        let (name, value) = match flag.split_once(' ') {
            Some((name, placeholder)) => (name, Some(placeholder)),
            None => (flag, None),
        };
        self.specs.push(Spec { name, value, need });
        let mut values = Vec::new();
        for &(_, text) in self.given.iter().filter(|(flag, _)| *flag == name) {
            // Every numeric type a flag parses into also reads as an f64,
            // so domains need no per-type code.
            let x: f64 = text.parse().unwrap_or(f64::NAN);
            let error = match (text.parse(), domains.iter().find(|(holds, _)| !holds(x))) {
                (Ok(value), None) => {
                    values.push(value);
                    continue;
                }
                (Err(_), _) => format!("invalid value {text:?} for {name}"),
                (Ok(_), Some((_, must))) => format!("{name} {must}"),
            };
            self.error.get_or_insert(error);
        }
        values
    }

    /// A flag that must be given. (`T::default()` is only ever returned
    /// while learning the table.)
    pub fn required<T: FromStr + Default>(&mut self, flag: &'static str) -> T {
        self.read(flag, Need::Required, ANY)
            .pop()
            .unwrap_or_default()
    }

    /// A flag that must be given at least once; every occurrence counts.
    pub fn repeated<T: FromStr>(&mut self, flag: &'static str) -> Vec<T> {
        self.read(flag, Need::Repeated, ANY)
    }

    /// A flag that may be given; the last occurrence wins.
    pub fn optional<T: FromStr>(&mut self, flag: &'static str, domains: &[Domain]) -> Option<T> {
        self.read(flag, Need::Optional, domains).pop()
    }

    /// [`Flags::optional`], with the default the flag overrides.
    pub fn value_or<T: FromStr>(
        &mut self,
        flag: &'static str,
        domains: &[Domain],
        default: T,
    ) -> T {
        self.optional(flag, domains).unwrap_or(default)
    }

    /// A flag taking no value: true when given.
    pub fn switch(&mut self, flag: &'static str) -> bool {
        !self.read::<String>(flag, Need::Optional, ANY).is_empty()
    }
}

/// The flag table `build` declares, learned by running it over no arguments
/// (its result then only reflects defaults and is dropped).
pub fn table<C>(build: fn(&mut Flags) -> C) -> Vec<Spec> {
    let mut flags = Flags::default();
    build(&mut flags);
    flags.specs
}

/// Parses `args` for subcommand `sub`: one walk over the arguments against
/// `build`'s table, then `build` itself over what the walk found.
pub fn parse<C>(
    sub: &str,
    build: fn(&mut Flags) -> Result<C, String>,
    args: &[String],
) -> Result<C, String> {
    let specs = table(build);
    let mut flags = Flags::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(spec) = specs.iter().find(|spec| spec.name == arg) else {
            return Err(format!("unknown flag {arg:?} for {sub}"));
        };
        let value = match spec.value {
            Some(_) => iter
                .next()
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {arg}"))?,
            None => "",
        };
        flags.given.push((spec.name, value));
    }
    for spec in specs.iter().filter(|spec| spec.need != Need::Optional) {
        if !flags.given.iter().any(|(flag, _)| *flag == spec.name) {
            return Err(format!("{sub} requires {}", spec.name));
        }
    }
    let built = build(&mut flags);
    flags.error.map_or(built, Err)
}

/// One subcommand's block of the usage synopsis: `command` then one token
/// per flag (required ones first), wrapped under a hanging indent.
pub fn synopsis(command: &str, specs: &[Spec]) -> String {
    let mut specs = specs.to_vec();
    specs.sort_by_key(|spec| spec.need == Need::Optional);
    let mut out = String::new();
    let mut line = format!("  {command}");
    for spec in specs {
        let flag = match spec.value {
            Some(placeholder) => format!("{} {placeholder}", spec.name),
            None => spec.name.to_string(),
        };
        let token = match spec.need {
            Need::Optional => format!("[{flag}]"),
            Need::Required => flag,
            Need::Repeated => format!("{flag} [{flag} ...]"),
        };
        if line.len() + 1 + token.len() > 79 {
            out = out + &line + "\n";
            line = " ".repeat(16);
        }
        line.push(' ');
        line += &token;
    }
    out + &line + "\n"
}
