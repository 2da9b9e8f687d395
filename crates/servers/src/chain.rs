//! Multi-hop deployment chains.
//!
//! The paper's test environment chains one proxy in front of one back-end,
//! and notes (§IV-B) that pairs which look unexploitable in that topology
//! "may lead to exploitable attacks when chained with other HTTP
//! implementations, such as using CDN as a front-end server". This module
//! runs a request through an arbitrary chain of proxies before the origin,
//! recording every hop's interpretation.

use crate::proxy::{ForwardAction, Proxy, ProxyResult};
use crate::response_path::{relay_response, RelayAction};
use crate::server::{Server, ServerReply};
use crate::ParserProfile;
use hdiff_wire::Response;

/// One hop's processing record.
#[derive(Debug, Clone)]
pub struct HopRecord {
    /// The proxy's product name.
    pub name: String,
    /// Per-message results at this hop.
    pub results: Vec<ProxyResult>,
}

/// Outcome of a multi-hop run.
#[derive(Debug, Clone)]
pub struct MultiHopResult {
    /// Records for every proxy hop reached.
    pub hops: Vec<HopRecord>,
    /// Index of the hop that rejected the message, if any.
    pub rejected_at: Option<usize>,
    /// The origin's replies (empty when a hop rejected everything).
    pub origin_replies: Vec<ServerReply>,
    /// The bytes that finally reached the origin.
    pub origin_bytes: Vec<u8>,
    /// The response the client finally receives, after the origin's first
    /// reply is relayed back through the proxy chain (hop order reversed).
    /// `None` when no hop forwarded anything.
    pub client_response: Option<Response>,
}

impl MultiHopResult {
    /// The host identity each party resolved, front to back (`None` for
    /// rejected/hostless messages) — the quickest way to spot a
    /// HoT-through-CDN gap.
    pub fn host_views(&self) -> Vec<(String, Option<Vec<u8>>)> {
        let mut out: Vec<(String, Option<Vec<u8>>)> = self
            .hops
            .iter()
            .map(|h| {
                let host = h.results.first().and_then(|r| r.interpretation.host.as_deref());
                (h.name.clone(), host.map(<[u8]>::to_vec))
            })
            .collect();
        if let Some(reply) = self.origin_replies.first() {
            out.push((
                "origin".to_string(),
                reply.interpretation.host.as_deref().map(<[u8]>::to_vec),
            ));
        }
        out
    }
}

/// Runs `bytes` through `proxies` (front to back) and then the `origin`.
pub fn run_multihop(
    proxies: &[ParserProfile],
    origin: &ParserProfile,
    bytes: &[u8],
) -> MultiHopResult {
    let mut hops = Vec::new();
    let mut current = bytes.to_vec();
    let mut rejected_at = None;

    for (i, profile) in proxies.iter().enumerate() {
        let proxy = Proxy::new(profile.clone());
        let results = proxy.forward_stream(&current);
        let mut next = Vec::new();
        for r in &results {
            if let ForwardAction::Forwarded(f) = &r.action {
                next.extend_from_slice(f);
            }
        }
        hops.push(HopRecord { name: profile.name.clone(), results });
        if next.is_empty() {
            rejected_at = Some(i);
            current.clear();
            break;
        }
        current = next;
    }

    let origin_replies = if current.is_empty() {
        Vec::new()
    } else {
        Server::new(origin.clone()).handle_stream(&current)
    };

    // Relay the first response back through the chain, innermost proxy
    // first; any hop may replace a malformed upstream reply with its own
    // 502 per RFC 7230 §3.2.4. The origin replied, so no hop rejected.
    let client_response = origin_replies.first().map(|first| {
        let mut bytes = first.response.to_bytes();
        let mut response = first.response.clone();
        for profile in proxies.iter().rev() {
            match relay_response(profile, &bytes) {
                RelayAction::Relayed(b) => {
                    if let Ok(parsed) = hdiff_wire::parse_response(&b) {
                        response = parsed.into();
                    }
                    bytes = b;
                }
                RelayAction::Replaced(r) => {
                    bytes = r.to_bytes();
                    response = r;
                }
            }
        }
        response
    });

    MultiHopResult { hops, rejected_at, origin_replies, origin_bytes: current, client_response }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::products::{product, ProductId};
    use hdiff_wire::{Method, Request, Version};

    #[test]
    fn two_hop_chain_reaches_the_origin() {
        let r = run_multihop(
            &[product(ProductId::Nginx), product(ProductId::Varnish)],
            &product(ProductId::Apache),
            &Request::get("h1.com").to_bytes(),
        );
        assert_eq!(r.hops.len(), 2);
        assert!(r.rejected_at.is_none());
        assert_eq!(r.origin_replies.len(), 1);
        assert!(r.origin_replies[0].interpretation.outcome.is_accept());
        let views = r.host_views();
        assert_eq!(views.len(), 3);
        assert!(views.iter().all(|(_, h)| h.as_deref() == Some(b"h1.com")));
    }

    #[test]
    fn strict_middle_hop_stops_the_attack() {
        // Varnish forwards the ambiguous host, but a strict Apache hop in
        // the middle rejects it before it reaches the origin.
        let mut req = Request::builder();
        req.method(Method::Get)
            .target("/")
            .version(Version::Http11)
            .header("Host", "h1.com@h2.com");
        let bytes = req.build().to_bytes();

        let direct =
            run_multihop(&[product(ProductId::Varnish)], &product(ProductId::Weblogic), &bytes);
        assert!(direct.rejected_at.is_none());
        assert_eq!(
            direct.origin_replies[0].interpretation.host.as_deref(),
            Some(&b"h2.com"[..]),
            "the HoT gap exists on the direct chain"
        );

        let hardened = run_multihop(
            &[product(ProductId::Varnish), product(ProductId::Apache)],
            &product(ProductId::Weblogic),
            &bytes,
        );
        assert_eq!(hardened.rejected_at, Some(1), "apache blocks the ambiguous host");
        assert!(hardened.origin_replies.is_empty());
    }

    #[test]
    fn lenient_front_launders_ambiguity_for_a_strict_backend() {
        // §IV-B: a pair that looks safe can become exploitable when
        // chained. A ws-colon TE header is rejected by apache directly…
        let mut req = Request::builder();
        req.method(Method::Post)
            .target("/")
            .version(Version::Http11)
            .header("Host", "h1.com")
            .header_raw(b"Content-Length : 3".to_vec())
            .body(b"abc".to_vec());
        let bytes = req.build().to_bytes();
        let direct = Server::new(product(ProductId::Apache)).handle(&bytes);
        assert_eq!(direct.response.status.as_u16(), 400);

        // …but an IIS-style AcceptUse front would normalize-and-use while
        // an ATS front forwards it raw; chained ats→apache the origin still
        // rejects what the front accepted: a CPDoS-grade disagreement.
        let chained = run_multihop(&[product(ProductId::Ats)], &product(ProductId::Apache), &bytes);
        assert!(chained.rejected_at.is_none(), "ats accepts and forwards");
        assert_eq!(chained.origin_replies[0].response.status.as_u16(), 400);
    }

    #[test]
    fn client_response_carries_via_headers_from_every_hop() {
        let r = run_multihop(
            &[product(ProductId::Nginx), product(ProductId::Varnish)],
            &product(ProductId::Apache),
            &Request::get("h1.com").to_bytes(),
        );
        let resp = r.client_response.expect("round trip completes");
        assert_eq!(resp.status.as_u16(), 200);
        let vias: Vec<String> = resp
            .headers
            .all(b"Via")
            .map(|f| String::from_utf8_lossy(f.value()).into_owned())
            .collect();
        assert!(vias.iter().any(|v| v.contains("nginx")), "{vias:?}");
        assert!(vias.iter().any(|v| v.contains("varnish")), "{vias:?}");
    }

    #[test]
    fn origin_error_reaches_the_client_through_the_chain() {
        let mut req = Request::get("h1.com");
        req.set_version(b"1.1/HTTP"); // nginx repairs; apache rejects
        let r = run_multihop(
            &[product(ProductId::Nginx)],
            &product(ProductId::Apache),
            &req.to_bytes(),
        );
        let resp = r.client_response.expect("relayed");
        assert_eq!(resp.status.as_u16(), 400, "the CPDoS payload the client sees");
    }

    #[test]
    fn three_hop_chain_is_supported() {
        let r = run_multihop(
            &[product(ProductId::Haproxy), product(ProductId::Nginx), product(ProductId::Squid)],
            &product(ProductId::Iis),
            &Request::get("example.com").to_bytes(),
        );
        assert_eq!(r.hops.len(), 3);
        assert!(r.rejected_at.is_none());
        assert!(r.origin_replies[0].interpretation.outcome.is_accept());
    }
}
