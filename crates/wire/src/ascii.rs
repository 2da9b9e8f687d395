//! ASCII classification helpers shared by parsers and generators.
//!
//! These implement the character classes of RFC 7230 §3.2.6 and RFC 5234
//! appendix B.1. They are deliberately standalone functions on `u8` so both
//! the strict parser and the lenient product simulations can reuse them.

/// Returns `true` if `b` is an RFC 7230 `tchar` (a token character).
///
/// ```
/// assert!(hdiff_wire::ascii::is_tchar(b'a'));
/// assert!(!hdiff_wire::ascii::is_tchar(b':'));
/// ```
pub fn is_tchar(b: u8) -> bool {
    matches!(
        b,
        b'!' | b'#'
            | b'$'
            | b'%'
            | b'&'
            | b'\''
            | b'*'
            | b'+'
            | b'-'
            | b'.'
            | b'^'
            | b'_'
            | b'`'
            | b'|'
            | b'~'
    ) || b.is_ascii_alphanumeric()
}

/// Returns `true` if every byte of `s` is a `tchar` and `s` is non-empty.
pub fn is_token(s: &[u8]) -> bool {
    !s.is_empty() && s.iter().all(|&b| is_tchar(b))
}

/// Returns `true` for optional whitespace bytes (`SP` / `HTAB`, RFC 7230 `OWS`).
pub fn is_ows(b: u8) -> bool {
    b == b' ' || b == b'\t'
}

/// Returns `true` for RFC 7230 `VCHAR` (visible USASCII).
pub fn is_vchar(b: u8) -> bool {
    (0x21..=0x7e).contains(&b)
}

/// Returns `true` for a byte allowed inside a header field value
/// (`field-vchar` plus `SP`/`HTAB` between visible characters).
pub fn is_field_vchar(b: u8) -> bool {
    is_vchar(b) || b >= 0x80
}

/// Trims leading and trailing OWS (`SP`/`HTAB`) from a byte slice.
///
/// ```
/// assert_eq!(hdiff_wire::ascii::trim_ows(b"  x\t"), b"x");
/// ```
pub fn trim_ows(s: &[u8]) -> &[u8] {
    let start = s.iter().position(|&b| !is_ows(b)).unwrap_or(s.len());
    let end = s.iter().rposition(|&b| !is_ows(b)).map_or(start, |i| i + 1);
    &s[start..end]
}

/// ASCII case-insensitive equality on byte slices.
///
/// ```
/// assert!(hdiff_wire::ascii::eq_ignore_case(b"Host", b"hOST"));
/// ```
pub fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.eq_ignore_ascii_case(y))
}

/// Offset of the first CRLF in `s`: the line-end search of every
/// HTTP/1.1 parser in the workspace. Scans for CR alone and checks the
/// byte after it, so each input byte is read about once.
///
/// ```
/// assert_eq!(hdiff_wire::ascii::find_crlf(b"a\rb\r\nc"), Some(3));
/// assert_eq!(hdiff_wire::ascii::find_crlf(b"a\n\r"), None);
/// ```
pub fn find_crlf(s: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = s[from..].iter().position(|&b| b == b'\r') {
        let cr = from + i;
        if s.get(cr + 1) == Some(&b'\n') {
            return Some(cr);
        }
        from = cr + 1;
    }
    None
}

/// Appends `n` in decimal to `out`: `n.to_string()` without the
/// temporary `String`.
///
/// ```
/// let mut out = b"len=".to_vec();
/// hdiff_wire::ascii::push_dec(&mut out, 1024);
/// assert_eq!(out, b"len=1024");
/// ```
pub fn push_dec(out: &mut Vec<u8>, n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Renders bytes for human-readable reports: printable ASCII passes through,
/// everything else becomes `\xNN`.
///
/// ```
/// assert_eq!(hdiff_wire::ascii::escape_bytes(b"a\x0bb"), "a\\x0bb");
/// ```
pub fn escape_bytes(s: &[u8]) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s {
        match b {
            b'\\' => out.push_str("\\\\"),
            b'\r' => out.push_str("\\r"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            0x20..=0x7e => out.push(b as char),
            _ => out.push_str(&format!("\\x{b:02x}")),
        }
    }
    out
}

/// Parses an ASCII decimal unsigned integer strictly (no sign, no
/// whitespace, at least one digit). Returns `None` on overflow or any
/// non-digit byte — this is the RFC-conformant `Content-Length` reading.
pub fn parse_dec_strict(s: &[u8]) -> Option<u64> {
    if s.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &b in s {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some(v)
}

/// Lenient decimal parse used by permissive product models: skips leading
/// whitespace, accepts an optional `+` sign, stops at the first non-digit.
/// Returns `None` only if no digit was consumed.
pub fn parse_dec_lenient(s: &[u8]) -> Option<u64> {
    let s = trim_ows(s);
    let s = s.strip_prefix(b"+").unwrap_or(s);
    let mut v: u64 = 0;
    let mut any = false;
    for &b in s {
        if !b.is_ascii_digit() {
            break;
        }
        any = true;
        v = v.saturating_mul(10).saturating_add(u64::from(b - b'0'));
    }
    any.then_some(v)
}

/// Parses an ASCII hexadecimal unsigned integer strictly; `None` on overflow
/// or invalid digit. This is the RFC-conformant `chunk-size` reading.
pub fn parse_hex_strict(s: &[u8]) -> Option<u64> {
    if s.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &b in s {
        let d = (b as char).to_digit(16)?;
        v = v.checked_mul(16)?.checked_add(u64::from(d))?;
    }
    Some(v)
}

/// Hexadecimal parse that *wraps on overflow* instead of failing — the
/// integer-overflow "repair" behavior the paper observed in Haproxy and
/// Squid chunk-size handling (§IV-B, *Bad chunk-size value*).
pub fn parse_hex_wrapping(s: &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    let mut any = false;
    for &b in s {
        let d = (b as char).to_digit(16)?;
        any = true;
        v = v.wrapping_mul(16).wrapping_add(u64::from(d));
    }
    any.then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tchar_accepts_token_symbols() {
        for b in b"!#$%&'*+-.^_`|~" {
            assert!(is_tchar(*b), "{}", *b as char);
        }
        assert!(is_tchar(b'G'));
        assert!(is_tchar(b'7'));
    }

    #[test]
    fn tchar_rejects_separators() {
        for b in b"()<>@,;:\\\"/[]?={} \t" {
            assert!(!is_tchar(*b), "{}", *b as char);
        }
        assert!(!is_tchar(0x0b));
        assert!(!is_tchar(0x80));
    }

    #[test]
    fn token_requires_nonempty() {
        assert!(!is_token(b""));
        assert!(is_token(b"Content-Length"));
        assert!(!is_token(b"Content Length"));
    }

    #[test]
    fn trim_ows_both_ends() {
        assert_eq!(trim_ows(b"\t a b \t"), b"a b");
        assert_eq!(trim_ows(b"   "), b"");
        assert_eq!(trim_ows(b""), b"");
        assert_eq!(trim_ows(b"x"), b"x");
    }

    #[test]
    fn case_insensitive_eq() {
        assert!(eq_ignore_case(b"TRANSFER-ENCODING", b"transfer-encoding"));
        assert!(!eq_ignore_case(b"Host", b"Hos"));
    }

    #[test]
    fn escape_renders_controls() {
        assert_eq!(escape_bytes(b"GET / HTTP/1.1\r\n"), "GET / HTTP/1.1\\r\\n");
        assert_eq!(escape_bytes(&[0x00, 0xff]), "\\x00\\xff");
    }

    #[test]
    fn strict_decimal() {
        assert_eq!(parse_dec_strict(b"0"), Some(0));
        assert_eq!(parse_dec_strict(b"42"), Some(42));
        assert_eq!(parse_dec_strict(b"+42"), None);
        assert_eq!(parse_dec_strict(b" 42"), None);
        assert_eq!(parse_dec_strict(b"4 2"), None);
        assert_eq!(parse_dec_strict(b""), None);
        assert_eq!(parse_dec_strict(b"99999999999999999999999"), None);
    }

    #[test]
    fn lenient_decimal() {
        assert_eq!(parse_dec_lenient(b"+6"), Some(6));
        assert_eq!(parse_dec_lenient(b" 10"), Some(10));
        assert_eq!(parse_dec_lenient(b"6,9"), Some(6));
        assert_eq!(parse_dec_lenient(b"abc"), None);
    }

    #[test]
    fn strict_hex() {
        assert_eq!(parse_hex_strict(b"ff"), Some(255));
        assert_eq!(parse_hex_strict(b"0"), Some(0));
        assert_eq!(parse_hex_strict(b"fgh"), None);
        assert_eq!(parse_hex_strict(b"ffffffffffffffff1"), None);
    }

    #[test]
    fn wrapping_hex_overflows_like_a_buggy_proxy() {
        // 2^64 = 0x1_0000_0000_0000_0000 wraps to 0.
        assert_eq!(parse_hex_wrapping(b"10000000000000000"), Some(0));
        // 2^64 + 0xa wraps to 10 — the "big number repaired to a" example.
        assert_eq!(parse_hex_wrapping(b"1000000000000000a"), Some(10));
        assert_eq!(parse_hex_wrapping(b"ff"), Some(255));
        assert_eq!(parse_hex_wrapping(b"xyz"), None);
    }
}
