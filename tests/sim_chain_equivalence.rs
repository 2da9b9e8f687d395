//! The sim chain's rewritten helpers against the code they replaced.
//!
//! Each helper on the Fig. 6 chain's hot path was rewritten to stop
//! building temporaries (lowercased copies, collected vectors, owned
//! names, formatted strings). These properties feed every one of them
//! arbitrary bytes, about half drawn from the tokens the helpers branch
//! on, and require the old answer; the `old_*` functions are the code
//! before the rewrite. The last test runs the Table II catalog through
//! one reused `Workflow` and requires every outcome to equal a fresh
//! workflow's: the prebuilt servers and proxies keep no per-case state.

use proptest::prelude::*;

use hdiff::diff::workflow::is_ambiguous;
use hdiff::diff::Workflow;
use hdiff::gen::{catalog, Origin, TestCase};
use hdiff::servers::cache::{Cache, CacheKey, StoreDecision};
use hdiff::servers::engine::canonical_name;
use hdiff::servers::fault::{FaultInjector, FaultPlan, FaultSession};
use hdiff::servers::{CachePolicy, ParserProfile, Server};
use hdiff::wire::ascii;
use hdiff::wire::uri::{interpret_host, AtSignPolicy, CommaPolicy, HostError, SlashPolicy};
use hdiff::wire::{HostParseOptions, RequestTarget, StatusCode, Version};

/// Tokens the rewritten helpers branch on, in several spellings.
const PIECES: [&[u8]; 40] = [
    b"\r",
    b"\n",
    b"\r\n",
    b"\r\n\r\n",
    b" ",
    b"\t",
    b"\x0b",
    b"\x00",
    b"\x80",
    b",",
    b"@",
    b"/",
    b":",
    b"://",
    b"[::1]",
    b"*",
    b"?",
    b"#",
    b"GET",
    b"get",
    b"POST",
    b"HTTP/1.1",
    b"http/1.1",
    b"HTTP/1.0",
    b"http://",
    b"test://",
    b"Host:",
    b"HOST: ",
    b"host",
    b"Content-Length",
    b"content-length: 3",
    b"Transfer-Encoding",
    b"CHUNKED",
    b"Expect",
    b"Connection:",
    b"keep-alive",
    b"TE",
    b"h1.com",
    b"H2.COM:80",
    b"0",
];

/// Arbitrary bytes, about half of them drawn from [`PIECES`].
fn mixed_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u32>(), 0..40).prop_map(|codes| {
        let mut out = Vec::new();
        for code in codes {
            match code % 2 {
                0 => out.extend_from_slice(PIECES[(code / 2) as usize % PIECES.len()]),
                _ => out.push((code >> 8) as u8),
            }
        }
        out
    })
}

/// Request-shaped bytes: a request line, header lines and an optional
/// body, each part drawn from spellings that sit on either side of one
/// of the ambiguity heuristic's markers, so every branch of it is
/// reached by requests no earlier branch decides.
fn request_like() -> impl Strategy<Value = Vec<u8>> {
    const METHODS: [&[u8]; 4] = [b"GET", b"get", b"POST", b"PUT"];
    const TARGETS: [&[u8]; 5] = [b"/", b"/a?b=1", b"http://h2.com/", b"test://h/", b"/x y"];
    const VERSIONS: [&[u8]; 5] = [b"HTTP/1.1", b"http/1.1", b"HTTP/1.0", b"HTTP/1.1 ", b"1.1/HTTP"];
    const NAMES: [&[u8]; 9] = [
        b"Host",
        b"HOST",
        b"X-Host",
        b"Content-Length",
        b"Transfer-Encoding",
        b"Expect",
        b"Connection",
        b"Accept",
        b" Folded",
    ];
    const VALUES: [&[u8]; 11] = [
        b" h1.com",
        b"h1.com",
        b" h1.com ",
        b"  h1.com",
        b" h 1",
        b" a@b",
        b" a,b",
        b" a/b",
        b" 3",
        b" chunked",
        b" \x0bv",
    ];
    proptest::collection::vec(any::<u32>(), 3..10).prop_map(|codes| {
        let pick = |table: &[&'static [u8]], code: u32| table[code as usize % table.len()];
        let mut out = Vec::new();
        out.extend_from_slice(pick(&METHODS, codes[0]));
        out.push(b' ');
        out.extend_from_slice(pick(&TARGETS, codes[1]));
        out.push(b' ');
        out.extend_from_slice(pick(&VERSIONS, codes[2]));
        out.extend_from_slice(b"\r\n");
        for &code in &codes[3..] {
            out.extend_from_slice(pick(&NAMES, code));
            out.push(b':');
            out.extend_from_slice(pick(&VALUES, code >> 8));
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        if codes[0] & 0x100 != 0 {
            out.extend_from_slice(b"abc");
        }
        out
    })
}

fn old_is_ambiguous(bytes: &[u8]) -> bool {
    let lower = bytes.to_ascii_lowercase();
    let count = |needle: &[u8]| lower.windows(needle.len()).filter(|w| *w == needle).count();
    let has = |needle: &[u8]| count(needle) > 0;

    if count(b"content-length") >= 2 || count(b"transfer-encoding") >= 2 || count(b"host:") >= 2 {
        return true;
    }
    if has(b"content-length") && has(b"transfer-encoding") {
        return true;
    }
    if has(b"transfer-encoding") || has(b"chunked") {
        return true;
    }
    let header_end = lower.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or(lower.len());
    if lower[..header_end].iter().any(|&b| {
        b == 0 || b == 0x0b || (b < 0x20 && b != b'\r' && b != b'\n' && b != b'\t') || b >= 0x80
    }) {
        return true;
    }
    let line_end = lower.windows(2).position(|w| w == b"\r\n").unwrap_or(lower.len());
    let line = &lower[..line_end];
    if !line.ends_with(b"http/1.1") || line.iter().filter(|&&b| b == b' ').count() != 2 {
        return true;
    }
    if has(b"http://") || has(b"://") {
        return true;
    }
    if let Some(hpos) = lower.windows(5).position(|w| w == b"host:") {
        let rest = &lower[hpos + 5..];
        let vend = rest.windows(2).position(|w| w == b"\r\n").unwrap_or(rest.len());
        let value: &[u8] = &rest[..vend];
        let trimmed: Vec<u8> = value.iter().copied().filter(|&b| b != b' ').collect();
        if value.iter().any(|&b| matches!(b, b',' | b'@' | b'/')) || trimmed.len() + 1 < value.len()
        {
            return true;
        }
    }
    if has(b"expect") || has(b"connection:") {
        return true;
    }
    if lower[..header_end].windows(3).any(|w| w == b"\r\n " || w == b"\r\n\t") {
        return true;
    }
    if lower.starts_with(b"get") && header_end + 4 < lower.len() {
        return true;
    }
    false
}

fn old_is_scheme(s: &[u8]) -> bool {
    !s.is_empty()
        && s[0].is_ascii_alphabetic()
        && s.iter().all(|&b| b.is_ascii_alphanumeric() || b == b'+' || b == b'-' || b == b'.')
}

fn old_looks_like_host(s: &[u8]) -> bool {
    !s.is_empty()
        && s.iter().all(|&b| {
            b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'_' | b'[' | b']' | b':')
        })
}

fn old_classify(raw: &[u8]) -> RequestTarget {
    if raw == b"*" {
        return RequestTarget::Asterisk;
    }
    if raw.first() == Some(&b'/') {
        let (path, query) = match raw.iter().position(|&b| b == b'?') {
            Some(i) => (raw[..i].to_vec(), Some(raw[i + 1..].to_vec())),
            None => (raw.to_vec(), None),
        };
        return RequestTarget::Origin { path, query };
    }
    if let Some(colon) = raw.iter().position(|&b| b == b':') {
        let scheme = &raw[..colon];
        if old_is_scheme(scheme) && raw[colon + 1..].starts_with(b"//") {
            let after = &raw[colon + 3..];
            let end = after
                .iter()
                .position(|&b| b == b'/' || b == b'?' || b == b'#')
                .unwrap_or(after.len());
            return RequestTarget::Absolute {
                scheme: scheme.to_vec(),
                authority: after[..end].to_vec(),
                rest: after[end..].to_vec(),
            };
        }
        if !scheme.is_empty()
            && raw[colon + 1..].iter().all(u8::is_ascii_digit)
            && !raw[colon + 1..].is_empty()
            && old_looks_like_host(scheme)
        {
            return RequestTarget::Authority(raw.to_vec());
        }
    }
    if old_looks_like_host(raw) && !raw.is_empty() {
        return RequestTarget::Authority(raw.to_vec());
    }
    RequestTarget::Invalid(raw.to_vec())
}

fn old_split_port(hostport: &[u8]) -> (&[u8], Option<&[u8]>) {
    if hostport.first() == Some(&b'[') {
        if let Some(close) = hostport.iter().position(|&b| b == b']') {
            let rest = &hostport[close + 1..];
            if let Some(stripped) = rest.strip_prefix(b":") {
                return (&hostport[..close + 1], Some(stripped));
            }
            return (&hostport[..close + 1], None);
        }
        return (hostport, None);
    }
    match hostport.iter().rposition(|&b| b == b':') {
        Some(i) => (&hostport[..i], Some(&hostport[i + 1..])),
        None => (hostport, None),
    }
}

fn old_interpret_host(raw: &[u8], opts: &HostParseOptions) -> Result<Vec<u8>, HostError> {
    let mut value = ascii::trim_ows(raw).to_vec();
    if value.is_empty() {
        return if opts.allow_empty {
            Ok(Vec::new())
        } else {
            Err(HostError { reason: "empty host value" })
        };
    }
    if value.contains(&b',') {
        match opts.comma {
            CommaPolicy::Reject => return Err(HostError { reason: "comma in host value" }),
            CommaPolicy::TakeFirst => {
                let i = value.iter().position(|&b| b == b',').expect("checked");
                value.truncate(i);
            }
            CommaPolicy::TakeLast => {
                let i = value.iter().rposition(|&b| b == b',').expect("checked");
                value = value[i + 1..].to_vec();
            }
            CommaPolicy::Whole => {}
        }
        value = ascii::trim_ows(&value).to_vec();
    }
    if value.contains(&b'@') {
        match opts.at_sign {
            AtSignPolicy::Reject => return Err(HostError { reason: "at sign in host value" }),
            AtSignPolicy::UseAfter => {
                let i = value.iter().rposition(|&b| b == b'@').expect("checked");
                value = value[i + 1..].to_vec();
            }
            AtSignPolicy::UseBefore => {
                let i = value.iter().position(|&b| b == b'@').expect("checked");
                value.truncate(i);
            }
            AtSignPolicy::Whole => {}
        }
    }
    if value.contains(&b'/') {
        match opts.slash {
            SlashPolicy::Reject => return Err(HostError { reason: "slash in host value" }),
            SlashPolicy::Truncate => {
                let i = value.iter().position(|&b| b == b'/').expect("checked");
                value.truncate(i);
            }
            SlashPolicy::Whole => {}
        }
    }
    let (host, _port) = old_split_port(&value);
    let mut host = host.to_vec();
    host.make_ascii_lowercase();
    Ok(host)
}

/// Every combination of the four Host policies, indexed by `n`.
fn host_policy(n: u32) -> HostParseOptions {
    let at = [AtSignPolicy::Reject, AtSignPolicy::UseAfter, AtSignPolicy::UseBefore];
    let comma = [CommaPolicy::Reject, CommaPolicy::TakeFirst, CommaPolicy::TakeLast];
    let slash = [SlashPolicy::Reject, SlashPolicy::Truncate, SlashPolicy::Whole];
    let n = n as usize;
    HostParseOptions {
        at_sign: if n % 4 == 3 { AtSignPolicy::Whole } else { at[n % 4] },
        comma: if (n / 4) % 4 == 3 { CommaPolicy::Whole } else { comma[(n / 4) % 4] },
        slash: slash[(n / 16) % 3],
        allow_empty: (n / 48).is_multiple_of(2),
    }
}

/// A request version of every kind, indexed by `n`.
fn version(n: u32, raw: &[u8]) -> Version {
    match n % 6 {
        0 => Version::Http09,
        1 => Version::Http10,
        2 => Version::Http11,
        3 => Version::Http20,
        4 => Version::Other((n >> 8) as u8, (n >> 16) as u8),
        _ => Version::Invalid(raw.to_vec()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn crlf_search_matches_the_window_scan(bytes in mixed_bytes()) {
        prop_assert_eq!(ascii::find_crlf(&bytes), bytes.windows(2).position(|w| w == b"\r\n"));
    }

    #[test]
    fn canonical_names_match_the_lossy_lowercase(name in mixed_bytes()) {
        let expected = String::from_utf8_lossy(&name).to_ascii_lowercase();
        prop_assert_eq!(canonical_name(&name), expected.as_str());
    }

    #[test]
    fn decimal_digits_match_to_string(n in any::<u64>(), shift in 0u32..64) {
        for value in [n, n >> shift] {
            let mut out = Vec::new();
            ascii::push_dec(&mut out, value);
            prop_assert_eq!(out, value.to_string().into_bytes());
        }
    }

    #[test]
    fn version_bytes_match_the_formatted_spelling(n in any::<u32>(), raw in mixed_bytes()) {
        let v = version(n, &raw);
        let expected = match &v {
            Version::Other(maj, min) => format!("HTTP/{maj}.{min}").into_bytes(),
            Version::Invalid(raw) => raw.clone(),
            known => Version::to_bytes(known),
        };
        let mut pushed = b"GET / ".to_vec();
        v.push_to(&mut pushed);
        prop_assert_eq!(&pushed[6..], &expected[..]);
        prop_assert_eq!(v.to_bytes(), expected);
    }

    #[test]
    fn ambiguity_verdicts_match_the_lowercasing_heuristic(
        noise in mixed_bytes(),
        request in request_like(),
    ) {
        prop_assert_eq!(is_ambiguous(&noise), old_is_ambiguous(&noise));
        prop_assert_eq!(is_ambiguous(&request), old_is_ambiguous(&request));
    }

    #[test]
    fn target_classification_matches_the_copying_classifier(raw in mixed_bytes()) {
        let classified = RequestTarget::classify(&raw);
        prop_assert_eq!(&classified, &old_classify(&raw));
        prop_assert_eq!(RequestTarget::authority_in(&raw), classified.authority());
    }

    #[test]
    fn host_reading_matches_the_copying_reader(raw in mixed_bytes(), n in 0u32..96) {
        let opts = host_policy(n);
        prop_assert_eq!(interpret_host(&raw, &opts), old_interpret_host(&raw, &opts));
    }

    #[test]
    fn cache_decide_is_the_decision_store_makes(
        policy in any::<u8>(),
        method in mixed_bytes(),
        n in any::<u32>(),
        status in 100u16..600,
    ) {
        let mut cache = Cache::new(CachePolicy {
            enabled: policy & 1 != 0,
            store_errors: policy & 2 != 0,
            store_pre11: policy & 4 != 0,
        });
        // Half the cases use the one cacheable method.
        let method = if n.is_multiple_of(2) { b"GET".to_vec() } else { method };
        let version = version(n >> 1, &method);
        let origin = Server::new(ParserProfile::strict("o"));
        let mut response = origin.handle(b"GET / HTTP/1.1\r\nHost: h\r\n\r\n").response;
        response.status = StatusCode(status);
        for round in 0..2 {
            let decided = cache.decide(&method, &version, &response);
            let held = cache.len();
            let key = CacheKey::new(format!("h{round}.com"), "/");
            let stored = cache.store(key.clone(), &method, &version, &response);
            prop_assert_eq!(decided, stored);
            prop_assert_eq!(cache.len() == held + 1, stored == StoreDecision::Stored);
            prop_assert_eq!(cache.lookup(&key).is_some(), stored == StoreDecision::Stored);
        }
    }
}

fn catalog_cases() -> Vec<TestCase> {
    let mut cases = Vec::new();
    for entry in catalog::catalog() {
        for (request, note) in entry.requests {
            cases.push(TestCase {
                uuid: cases.len() as u64 + 1,
                request,
                assertions: Vec::new(),
                origin: Origin::Catalog(entry.id.to_string()),
                note,
            });
        }
    }
    cases
}

#[test]
fn a_reused_workflow_gives_every_case_the_outcome_of_a_fresh_one() {
    let cases = catalog_cases();
    let injector = FaultInjector::new(FaultPlan::new(7, 40));
    let reused = Workflow::standard();
    let run = |workflow: &Workflow, case: &TestCase, faulted: bool| {
        let session = FaultSession::new(&injector, case.uuid, 0, 4096);
        let outcome = workflow.run_case_faulted(case, faulted.then_some(&session));
        format!("{outcome:?}")
    };
    for faulted in [false, true] {
        let first: Vec<String> = cases.iter().map(|c| run(&reused, c, faulted)).collect();
        // The second pass runs backwards, so every case follows a
        // different one than it did the first time.
        let mut second: Vec<String> =
            cases.iter().rev().map(|c| run(&reused, c, faulted)).collect();
        second.reverse();
        for ((case, a), b) in cases.iter().zip(&first).zip(&second) {
            assert_eq!(a, b, "case {} differs between passes (faulted: {faulted})", case.uuid);
            let fresh = run(&Workflow::standard(), case, faulted);
            assert_eq!(a, &fresh, "case {} differs from a fresh workflow", case.uuid);
        }
    }
}
