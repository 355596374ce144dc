//! Minimal dependency-free flag parsing for `msrnet-cli`.
//!
//! Grammar: `--name value` pairs (single-dash accepted), bare switches
//! from a caller-provided list, and positional arguments. The last
//! occurrence of a repeated flag wins.

/// Parsed arguments: positionals, `--key value` pairs, and switches.
#[derive(Debug, Default)]
pub struct Flags<'a> {
    /// Arguments that are not flags.
    pub positional: Vec<&'a str>,
    pairs: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Parses `args`; names listed in `switch_names` take no value.
    ///
    /// # Errors
    ///
    /// Returns a message when a value-taking flag is missing its value.
    pub fn parse(args: &[&'a String], switch_names: &[&str]) -> Result<Flags<'a>, String> {
        let mut flags = Flags::default();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                if switch_names.contains(&name) {
                    flags.switches.push(name);
                    i += 1;
                } else {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    flags.pairs.push((name, v.as_str()));
                    i += 2;
                }
            } else {
                flags.positional.push(a);
                i += 1;
            }
        }
        Ok(flags)
    }

    /// The value of `--name`, if present (last occurrence wins).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }

    /// The numeric value of `--name`, or `default` when absent. For
    /// float flags; integer flags use [`Flags::get_int`].
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse as a **finite**
    /// number — `NaN` and `inf` would silently poison every downstream
    /// `total_cmp` sort and comparison, so they fail loudly here.
    pub fn get_num(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => parse_finite(name, v),
        }
    }

    /// The integer value of `--name`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag unless the value is a plain
    /// run of decimal digits that fits `T`: a sign, a fraction, an
    /// exponent or an out-of-range value is refused, never rounded or
    /// clamped into range.
    pub fn get_int<T: TryFrom<u64>>(&self, name: &str, default: T) -> Result<T, String> {
        let Some(v) = self.get(name) else {
            return Ok(default);
        };
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!(
                "--{name}: expected a non-negative integer, got `{v}`"
            ));
        }
        v.parse::<u64>()
            .ok()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| format!("--{name}: `{v}` is out of range"))
    }

    /// Whether the bare switch `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// Errors on any flag not in `known` — so a typo like `--thread`
    /// fails loudly instead of silently falling back to a default.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown flag.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        for (k, _) in &self.pairs {
            if !known.contains(k) {
                return Err(format!("unknown flag --{k}"));
            }
        }
        Ok(())
    }
}

/// Parses `v` as a finite `f64`, naming `name` in the error. Shared by
/// [`Flags::get_num`] and the commands that parse flag values by hand
/// (e.g. `--spec`), so `--spec NaN` cannot slip a non-finite value into
/// the optimizer's comparisons anywhere.
///
/// # Errors
///
/// Returns a message when `v` is not a number or not finite.
pub fn parse_finite(name: &str, v: &str) -> Result<f64, String> {
    let parsed: f64 = v
        .parse()
        .map_err(|_| format!("--{name}: invalid number `{v}`"))?;
    if !parsed.is_finite() {
        return Err(format!("--{name}: must be finite, got `{v}`"));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn mixes_positionals_pairs_and_switches() {
        let owned = strings(&["net.msr", "--spec", "2500", "--best", "-o", "out.svg"]);
        let refs: Vec<&String> = owned.iter().collect();
        let f = Flags::parse(&refs, &["best"]).unwrap();
        assert_eq!(f.positional, vec!["net.msr"]);
        assert_eq!(f.get("spec"), Some("2500"));
        assert_eq!(f.get("o"), Some("out.svg"));
        assert!(f.has("best"));
        assert!(!f.has("no-labels"));
    }

    #[test]
    fn last_occurrence_wins() {
        let owned = strings(&["--seed", "1", "--seed", "2"]);
        let refs: Vec<&String> = owned.iter().collect();
        let f = Flags::parse(&refs, &[]).unwrap();
        assert_eq!(f.get("seed"), Some("2"));
        assert_eq!(f.get_num("seed", 0.0).unwrap(), 2.0);
    }

    #[test]
    fn missing_value_is_an_error() {
        let owned = strings(&["--spec"]);
        let refs: Vec<&String> = owned.iter().collect();
        let err = Flags::parse(&refs, &[]).unwrap_err();
        assert!(err.contains("--spec"));
    }

    #[test]
    fn bad_number_is_an_error() {
        let owned = strings(&["--spec", "fast"]);
        let refs: Vec<&String> = owned.iter().collect();
        let f = Flags::parse(&refs, &[]).unwrap();
        assert!(f.get_num("spec", 0.0).is_err());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for bad in ["NaN", "nan", "inf", "-inf", "infinity"] {
            let owned = strings(&["--spec", bad]);
            let refs: Vec<&String> = owned.iter().collect();
            let f = Flags::parse(&refs, &[]).unwrap();
            let err = f.get_num("spec", 0.0).unwrap_err();
            assert!(err.contains("finite"), "`{bad}` accepted: {err}");
            assert!(parse_finite("spec", bad).is_err());
        }
        assert_eq!(parse_finite("spec", "2.5"), Ok(2.5));
    }

    #[test]
    fn integers_are_exact_or_refused() {
        let owned = strings(&["--a", "42", "--b", "007", "--big", "4294967296"]);
        let refs: Vec<&String> = owned.iter().collect();
        let f = Flags::parse(&refs, &[]).unwrap();
        assert_eq!(f.get_int("a", 0usize), Ok(42));
        assert_eq!(f.get_int("b", 0u64), Ok(7));
        assert_eq!(f.get_int("absent", 9u32), Ok(9));
        assert_eq!(f.get_int("big", 0u64), Ok(1 << 32));
        let err = f.get_int("big", 0u32).unwrap_err();
        assert_eq!(err, "--big: `4294967296` is out of range");
        let bad_values = ["-1", "+3", "0.5", "5.9", "1e13", "", " 1", "0x10", "99999999999999999999"];
        for bad in bad_values {
            let owned = strings(&["--n", bad]);
            let refs: Vec<&String> = owned.iter().collect();
            let f = Flags::parse(&refs, &[]).unwrap();
            let err = f.get_int("n", 0usize).unwrap_err();
            assert!(err.contains("--n"), "`{bad}` accepted: {err}");
        }
    }

    #[test]
    fn unknown_flags_can_be_rejected() {
        let owned = strings(&["net.msr", "--thread", "8"]);
        let refs: Vec<&String> = owned.iter().collect();
        let f = Flags::parse(&refs, &[]).unwrap();
        let err = f.reject_unknown(&["threads", "o"]).unwrap_err();
        assert!(err.contains("--thread"));
        assert!(f.reject_unknown(&["thread"]).is_ok());
    }

    #[test]
    fn defaults_apply_when_absent() {
        let f = Flags::parse(&[], &[]).unwrap();
        assert_eq!(f.get_num("spacing", 800.0).unwrap(), 800.0);
        assert_eq!(f.get("o"), None);
    }
}
