//! The paper's single-implementation claim: unlike plain differential
//! testing (which needs two implementations to see a discrepancy), HDiff
//! checks one implementation against SR assertions extracted from the RFC.

use hdiff::diff::srcheck::check_assertions;
use hdiff::gen::{AbnfGenerator, GenOptions, SrTranslator};
use hdiff::servers::{product, ProductId};

#[test]
fn a_single_implementation_can_be_tested_against_the_spec() {
    let analysis = hdiff::analyzer::DocumentAnalyzer::with_default_inputs()
        .analyze(&hdiff::corpus::core_documents());
    let gen = AbnfGenerator::new(analysis.grammar.clone(), GenOptions::default());
    let mut translator = SrTranslator::new(gen);
    let cases = translator.translate_all(&analysis.requirements);
    assert!(!cases.is_empty());

    // IIS alone — no second implementation — is caught violating the
    // whitespace-before-colon MUST.
    let iis = product(ProductId::Iis);
    let mut iis_mandatory = 0usize;
    for case in &cases {
        iis_mandatory += check_assertions(&iis, case).iter().filter(|v| v.is_mandatory()).count();
    }
    assert!(iis_mandatory > 0, "IIS must violate at least one MUST-level SR");

    // The violations name the SR, so the root cause is known without any
    // cross-implementation comparison.
    let violation = cases
        .iter()
        .flat_map(|c| check_assertions(&iis, c))
        .find(|v| v.is_mandatory())
        .expect("checked above");
    assert!(violation.sr_id.starts_with("rfc"), "{violation:?}");
    assert!(!violation.expected.to_string().is_empty());
}

#[test]
fn products_differ_in_conformance_level() {
    let analysis = hdiff::analyzer::DocumentAnalyzer::with_default_inputs()
        .analyze(&hdiff::corpus::core_documents());
    let gen = AbnfGenerator::new(analysis.grammar.clone(), GenOptions::default());
    let mut translator = SrTranslator::new(gen);
    let cases = translator.translate_all(&analysis.requirements);

    let count = |id: ProductId| {
        let p = product(id);
        cases.iter().flat_map(|c| check_assertions(&p, c)).filter(|v| v.is_mandatory()).count()
    };
    // Weblogic (the most lenient model) must violate strictly more MUSTs
    // than Tomcat (a mostly-strict server).
    assert!(
        count(ProductId::Weblogic) > count(ProductId::Tomcat),
        "weblogic {} vs tomcat {}",
        count(ProductId::Weblogic),
        count(ProductId::Tomcat)
    );
}
