//! Multi-hop chain regressions at the workspace level: the §IV-B chaining
//! note ("may lead to exploitable attacks when chained with other HTTP
//! implementations") exercised end to end, including the response path.

use hdiff::servers::{product, run_multihop, ProductId};
use hdiff::wire::{Method, Request, Version};

#[test]
fn hot_ambiguity_survives_any_all_transparent_chain() {
    let mut req = Request::builder();
    req.method(Method::Get).target("/").version(Version::Http11).header("Host", "h1.com@h2.com");
    let bytes = req.build().to_bytes();

    // Every ordering of the transparent proxies delivers the ambiguity.
    let transparent = [ProductId::Varnish, ProductId::Haproxy, ProductId::Nginx];
    for first in transparent {
        for second in transparent {
            if first == second {
                continue;
            }
            let r = run_multihop(
                &[product(first), product(second)],
                &product(ProductId::Weblogic),
                &bytes,
            );
            assert!(r.rejected_at.is_none(), "{first}->{second}");
            assert_eq!(
                r.origin_replies[0].interpretation.host.as_deref(),
                Some(&b"h2.com"[..]),
                "{first}->{second}: weblogic resolves the RFC host"
            );
            // Both fronts keep believing the transparent identity.
            for hop in &r.hops {
                assert_eq!(
                    hop.results[0].interpretation.host.as_deref(),
                    Some(&b"h1.com@h2.com"[..]),
                    "{first}->{second}: {}",
                    hop.name
                );
            }
        }
    }
}

#[test]
fn any_strict_hop_blocks_the_ambiguity() {
    let mut req = Request::builder();
    req.method(Method::Get).target("/").version(Version::Http11).header("Host", "h1.com@h2.com");
    let bytes = req.build().to_bytes();

    for strict_hop in [ProductId::Apache, ProductId::Squid] {
        let r = run_multihop(
            &[product(ProductId::Varnish), product(strict_hop)],
            &product(ProductId::Weblogic),
            &bytes,
        );
        assert_eq!(r.rejected_at, Some(1), "{strict_hop} must block");
    }
}

#[test]
fn rejection_at_every_hop_index_truncates_the_chain_there() {
    // An ambiguous host the transparent proxies forward but apache 400s:
    // placing apache at index i must reject at exactly i, leave the origin
    // unreached, and deliver no client response.
    let mut req = Request::builder();
    req.method(Method::Get).target("/").version(Version::Http11).header("Host", "h1.com@h2.com");
    let bytes = req.build().to_bytes();
    let transparent = [ProductId::Varnish, ProductId::Haproxy, ProductId::Nginx];

    for reject_at in 0..=transparent.len() {
        let mut chain: Vec<_> = transparent.iter().map(|p| product(*p)).collect();
        chain.insert(reject_at, product(ProductId::Apache));
        let r = run_multihop(&chain, &product(ProductId::Weblogic), &bytes);
        assert_eq!(r.rejected_at, Some(reject_at), "apache at index {reject_at}");
        assert_eq!(r.hops.len(), reject_at + 1, "processing stops at the rejecting hop");
        assert!(r.origin_replies.is_empty(), "origin is never reached");
        assert!(r.origin_bytes.is_empty());
        assert!(
            r.client_response.is_none(),
            "no origin reply means nothing to relay at index {reject_at}"
        );
    }
}

#[test]
fn empty_origin_replies_yield_no_client_response() {
    // A request the front itself rejects: zero forwarded bytes, zero
    // origin replies, and the relay path must cope with `None` instead of
    // inventing a response.
    let r = run_multihop(
        &[product(ProductId::Apache)],
        &product(ProductId::Iis),
        b"GET / HTTP/1.1\r\nBad Header\r\n\r\n",
    );
    assert_eq!(r.rejected_at, Some(0));
    assert!(r.origin_replies.is_empty());
    assert!(r.client_response.is_none());
    // The rejecting hop still recorded its own interpretation.
    assert_eq!(r.hops.len(), 1);
    assert!(!r.hops[0].results.is_empty());
}

#[test]
fn zero_proxy_chain_is_a_direct_origin_round_trip() {
    let r = run_multihop(&[], &product(ProductId::Tomcat), &Request::get("h.com").to_bytes());
    assert!(r.hops.is_empty());
    assert_eq!(r.rejected_at, None);
    assert_eq!(r.origin_replies.len(), 1);
    let resp = r.client_response.expect("origin reply relays through zero hops untouched");
    assert_eq!(resp.status.as_u16(), 200);
}

#[test]
fn round_trip_response_reaches_the_client_with_all_vias() {
    let r = run_multihop(
        &[product(ProductId::Squid), product(ProductId::Ats)],
        &product(ProductId::Iis),
        &Request::get("h1.com").to_bytes(),
    );
    let resp = r.client_response.expect("round trip");
    assert_eq!(resp.status.as_u16(), 200);
    let via_count = resp.headers.count(b"Via");
    assert!(via_count >= 2, "expected a Via per hop, got {via_count}");
}

#[test]
fn chained_version_repair_is_visible_at_every_stage() {
    // nginx repairs the invalid token; the repaired four-token line is
    // itself malformed, so a strict second hop 400s it — the error a
    // caching front would poison itself with.
    let mut req = Request::get("victim.com");
    req.set_version(b"1.1/HTTP");
    let r = run_multihop(
        &[product(ProductId::Nginx), product(ProductId::Apache)],
        &product(ProductId::Tomcat),
        &req.to_bytes(),
    );
    assert_eq!(r.rejected_at, Some(1), "apache rejects the repaired line");

    // Without the strict hop, the repaired line reaches tomcat and fails
    // there instead.
    let r2 =
        run_multihop(&[product(ProductId::Nginx)], &product(ProductId::Tomcat), &req.to_bytes());
    assert!(r2.rejected_at.is_none());
    assert_eq!(r2.origin_replies[0].response.status.as_u16(), 400);
    assert_eq!(r2.client_response.unwrap().status.as_u16(), 400);
}
