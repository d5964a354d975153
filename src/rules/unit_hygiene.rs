//! Bare physical magnitudes in the model crates (`cell`, `array`, `core`):
//! a scientific-notation literal with an exponent of −3 or less, outside
//! comments, strings and `#[cfg(test)]` items, must initialize a named
//! `const`/`static` or be an argument of a `sram-units` `from_*` call.

use std::path::PathBuf;

const MODEL_CRATES: [&str; 3] = ["cell", "array", "core"];

/// The source files of the model crates.
fn model_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for model in MODEL_CRATES {
        let dir = format!("{}/crates/{model}/src", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(dir).expect("model sources") {
            files.push(entry.expect("directory entry").path());
        }
    }
    files
}

/// `src` with comments, string and char literals (raw ones too) and
/// `#[cfg(test)]` items blanked to spaces. Newlines stay, so a position
/// in the result has the line number it had in `src`.
pub(super) fn blank(src: &str) -> String {
    let s: Vec<char> = src.chars().collect();
    let at = |i: usize, p: &str| p.chars().enumerate().all(|(k, c)| s.get(i + k) == Some(&c));
    let find = |i: usize, p: &str| (i..s.len()).find(|&j| at(j, p)).unwrap_or(s.len());
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    // The `#`s after an `r`, as a raw string literal opens `r#"`.
    let hashes = |i: usize| s[i + 1..].iter().take_while(|&&c| c == '#').count();
    let (mut code, mut i) = (String::new(), 0);
    let (mut depth, mut test_depth) = (0usize, None);
    while i < s.len() {
        let skip = match s[i] {
            '/' if at(i, "//") => find(i, "\n"),
            '/' if at(i, "/*") => find(i + 2, "*/") + 2,
            'r' if !code.ends_with(ident) && at(i + 1 + hashes(i), "\"") => {
                let close = format!("\"{}", "#".repeat(hashes(i)));
                find(i + 2 + hashes(i), &close) + close.len()
            }
            '"' | '\'' if s[i] == '"' || at(i + 1, "\\") || at(i + 2, "'") => {
                let mut j = i + 1;
                while j < s.len() && s[j] != s[i] {
                    j += if s[j] == '\\' { 2 } else { 1 };
                }
                j + 1
            }
            _ => i,
        };
        if skip > i {
            let skip = skip.min(s.len());
            code.extend(s[i..skip].iter().map(|&c| if c == '\n' { c } else { ' ' }));
            i = skip;
            continue;
        }
        test_depth = test_depth.or(code.ends_with("#[cfg(test)]").then_some(depth));
        depth = (depth + usize::from(s[i] == '{')).saturating_sub(usize::from(s[i] == '}'));
        code.push(if test_depth.is_some() && s[i] != '\n' {
            ' '
        } else {
            s[i]
        });
        // A test item ends at its `;`, or when its braces close again.
        if test_depth.is_some_and(|d| depth == d && matches!(s[i], ';' | '}')) {
            test_depth = None;
        }
        i += 1;
    }
    code
}

/// The offending literals of one source file, with their line numbers.
fn bare_magnitudes(src: &str) -> Vec<(usize, String)> {
    let s: Vec<char> = blank(src).chars().collect();
    let word = |c: char| c.is_alphanumeric() || c == '_' || c == '.';
    let (mut code, mut found, mut i) = (String::new(), Vec::new(), 0);
    while i < s.len() {
        if s[i].is_ascii_digit() && !code.ends_with(word) {
            let part = |j: usize| word(s[j]) || (s[j] == '-' && matches!(s[j - 1], 'e' | 'E'));
            let end = (i..s.len()).find(|&j| !part(j)).unwrap_or(s.len());
            let literal: String = s[i..end].iter().collect();
            if negative_exponent(&literal) >= 3 && !exempt(&code) {
                let line = s[..i].iter().filter(|&&c| c == '\n').count() + 1;
                found.push((line, literal.clone()));
            }
            (code, i) = (code + &literal, end);
            continue;
        }
        code.push(s[i]);
        i += 1;
    }
    found
}

/// The `n` of a literal written `…e-n`, or 0.
fn negative_exponent(literal: &str) -> u32 {
    let lower = literal.to_ascii_lowercase();
    let tail = lower.split_once("e-").map_or("", |(_, e)| e);
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or(0)
}

fn words(s: &str) -> impl DoubleEndedIterator<Item = &str> {
    s.split(|c: char| !c.is_alphanumeric() && c != '_')
}

/// `true` when the statement before a literal opens a `const`/`static`
/// item, or the literal sits directly inside a `from_*(…)` call.
fn exempt(before: &str) -> bool {
    let statement = &before[before.rfind([';', '{', '}']).map_or(0, |n| n + 1)..];
    let mut depth = 0;
    let call = statement.char_indices().rev().find(|&(_, c)| {
        depth += i32::from(c == ')') - i32::from(c == '(');
        depth < 0
    });
    let callee = call.and_then(|(pos, _)| words(statement[..pos].trim_end()).next_back());
    words(statement).any(|w| w == "const" || w == "static")
        || callee.is_some_and(|w| w.starts_with("from_"))
}

mod tests {
    use super::*;

    #[test]
    fn model_crates_carry_no_bare_magnitudes() {
        let mut offenders = Vec::new();
        for path in model_sources() {
            let src = std::fs::read_to_string(&path).expect("readable source");
            for (line, literal) in bare_magnitudes(&src) {
                offenders.push(format!("{}:{line}: `{literal}`", path.display()));
            }
        }
        let offenders = offenders.join("\n");
        assert!(offenders.is_empty(), "bare magnitudes:\n{offenders}");
    }

    #[test]
    fn bare_magnitude_fires() {
        let sample = "fn f() { 1.5e-12 * x } // 2e-9\nfn g() { '\"'; \"1e-9\"; g(from_s(1.0), 1e-9) }\n#[cfg(test)]\nmod t { fn t() { 1e-9; } }\nfn h() { 3e-6 }";
        let expected = [(1, "1.5e-12"), (2, "1e-9"), (5, "3e-6")];
        assert_eq!(
            bare_magnitudes(sample),
            expected.map(|(n, l)| (n, l.into()))
        );
    }

    #[test]
    fn constructor_context_is_fine() {
        let src = "fn f() { let t = Time::from_seconds(1.5e-12); let c = Capacitance::from_farads(2.0e-15 * n); }";
        assert_eq!(bare_magnitudes(src), []);
    }

    #[test]
    fn const_item_is_fine() {
        let src = "const WRITE_DELAY_S: f64 = 1.5e-12;\nstatic EPS: f64 = 1e-9;\n";
        assert_eq!(bare_magnitudes(src), []);
    }

    #[test]
    fn small_exponents_and_other_crates_are_ignored() {
        assert_eq!(bare_magnitudes("fn f() { x * 1e-2 + 5e12 }"), []);
        let files = model_sources();
        for model in MODEL_CRATES {
            let src = format!("crates/{model}/src/lib.rs");
            assert!(files.iter().any(|f| f.ends_with(&src)), "{src} is scanned");
        }
        let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates");
        let outside = files.iter().find(|f| {
            !MODEL_CRATES
                .iter()
                .any(|m| f.starts_with(crates.join(m).join("src")))
        });
        assert_eq!(outside, None, "only the model crates' sources are scanned");
    }

    #[test]
    fn exponent_parsing() {
        assert_eq!(negative_exponent("1.5e-12"), 12);
        assert_eq!(negative_exponent("9.5E-5"), 5);
        assert_eq!(negative_exponent("2.0e-15_f64"), 15);
        assert_eq!(negative_exponent("1e9"), 0);
        assert_eq!(negative_exponent("1.25"), 0);
    }
}
